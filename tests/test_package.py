"""The package's public surface and its documentation."""

import csv
import io
import json
import re
from pathlib import Path

import pytest

import openxxx
from openxxx import cli, config

README = Path(__file__).resolve().parent.parent / "README.md"


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from openxxx import *", namespace)  # raises AttributeError on a stale export
    assert [name for name in openxxx.__all__ if name not in namespace] == []
    assert all(namespace[name] is getattr(openxxx, name) for name in openxxx.__all__)


def test_readme_config_schema_parses():
    # the JSON block under "## Config schema" is a complete, valid config, so a
    # removed key left in the docs fails here as an unknown key
    section = README.read_text().split("## Config schema", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    cfg = config.parse_config_dict(json.loads(block))
    assert cfg.sweep is not None and cfg.model.n_sites == 2


# A tiny N = 1 config that every command can run; sweep needs its section.
N1_CONFIG = {
    "model": {"n_sites": 1, "theta": [[0.2, 0.1]], "p": [1.7, 0.3], "q": [0.9, -0.2],
              "xi_plus": [0.6, 0.1], "xi_minus": [1.1, -0.4]},
    "checks": ["foundations.trace_vs_entries"],
    "n_samples": 2,
    "format": "csv",
    "sweep": {"param": "xi_plus", "grid": [[0.6, 0.1]]},
}


def documented_csv_headers() -> dict:
    section = README.read_text().split("## Output formats", 1)[1]
    return dict(re.findall(r"^\| (\w+) +\| `([^`]*)` \|$", section, re.M))


def write_n1_config(tmp_path) -> str:
    cfg_path = tmp_path / "n1.json"
    cfg_path.write_text(json.dumps(N1_CONFIG))
    return str(cfg_path)


def test_readme_csv_columns_are_the_written_headers(tmp_path):
    # each command's CSV header on a tiny N = 1 config equals its row of the
    # "Output formats" table, so a removed column cannot linger in the docs
    documented = documented_csv_headers()
    assert sorted(documented) == ["solve", "spectrum", "sweep", "verify"]
    cfg_path = write_n1_config(tmp_path)
    for command, columns in documented.items():
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--config", cfg_path, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == columns, command


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("command", ["verify", "solve", "spectrum", "sweep"])
def test_stdout_carries_only_the_report(tmp_path, capsys, command, fmt):
    # with no output path, `openxxx <command> > report` must write a report
    # that parses; progress and summary lines go to stderr
    assert cli.main([command, "--config", write_n1_config(tmp_path), "--format", fmt]) == 0
    captured = capsys.readouterr()
    if fmt == "json":
        assert json.loads(captured.out)["command"] == command
    else:
        assert captured.out.splitlines()[0] == documented_csv_headers()[command]
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert all(len(row) == len(rows[0]) for row in rows)
    summary = "suite: pass" if command == "verify" else f"{command}: "
    assert summary in captured.err

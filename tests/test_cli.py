import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from openxxx import cli, config
from openxxx.errors import ConfigError
from openxxx.model import MAX_SITES

BASE_DOC = {
    "model": {
        "n_sites": 2,
        "theta": [[0.2, 0.1], [-0.3, 0.05]],
        "p": [1.7, 0.3],
        "q": [0.9, -0.2],
        "xi_plus": [0.6, 0.1],
        "xi_minus": [1.1, -0.4],
    },
    "solver": {"seed": 11},
}

FAST_CHECKS = [
    "foundations.trace_vs_entries",
    "foundations.vacuum_actions",
    "exchange.bb_commute",
    "offshell.general",
]


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


# --- config parsing ---------------------------------------------------------------

def test_config_complex_forms(tmp_path):
    doc = dict(BASE_DOC)
    doc["model"] = dict(doc["model"], p=2.5)  # bare real accepted
    cfg = config.parse_config(write_config(tmp_path, doc))
    assert cfg.model.p == 2.5


def test_config_rejects_unknown_keys(tmp_path):
    doc = dict(BASE_DOC)
    doc["extra"] = 1
    with pytest.raises(ConfigError, match="unknown keys"):
        config.parse_config(write_config(tmp_path, doc))
    doc = dict(BASE_DOC)
    doc["model"] = dict(doc["model"], typo=3)
    with pytest.raises(ConfigError, match="unknown keys"):
        config.parse_config(write_config(tmp_path, doc))


def test_config_rejects_degenerate_couplings(tmp_path):
    doc = dict(BASE_DOC)
    doc["model"] = dict(doc["model"], xi_plus=[1.0, 0.0], xi_minus=[-1.0, 0.0])
    with pytest.raises(ConfigError, match="rho degenerates"):
        config.parse_config(write_config(tmp_path, doc))


def test_config_rejects_bad_values(tmp_path):
    for patch in (
        {"format": "xml"},
        {"checks": [3]},
        {"model": dict(BASE_DOC["model"], branch="weird")},
        {"model": dict(BASE_DOC["model"], p=[0.0, 0.0])},
        {"sweep": {"param": "theta", "grid": [[0.1, 0]]}},
        {"sweep": {"param": "p", "grid": []}},
    ):
        doc = {**BASE_DOC, **patch}
        with pytest.raises(ConfigError):
            config.parse_config_dict(doc)


def test_default_config_is_valid():
    cfg = config.default_config()
    assert cfg.model.n_sites == 2
    assert cfg.checks == "all"


def test_explicit_n_sites_defaults_to_homogeneous_theta():
    cfg = config.parse_config_dict({"model": {"n_sites": 2}})
    assert cfg.model.theta == (0.0, 0.0)
    cfg3 = config.parse_config_dict({"model": {"n_sites": 3}})
    assert cfg3.model.theta == (0.0, 0.0, 0.0)


# --- verify command ------------------------------------------------------------------

def test_cmd_verify_fast_checks(tmp_path, capsys):
    out = tmp_path / "report.json"
    doc = {**BASE_DOC, "checks": FAST_CHECKS, "output_path": str(out)}
    code = cli.main(["verify", "--config", write_config(tmp_path, doc)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert {c["verdict"] for c in report["checks"]} == {"pass"}
    assert "suite: pass" in capsys.readouterr().err


def test_cmd_verify_fails_when_every_check_is_skipped(tmp_path, capsys):
    doc = {
        "model": {"xi_minus": 0.0},
        "checks": ["rotated.k_plus_diagonalization", "rotated.frame_vacuum_actions"],
    }
    code = cli.main(["verify", "--config", write_config(tmp_path, doc)])
    assert code == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert {c["verdict"] for c in report["checks"]} == {"skipped"}
    assert report["all_pass"] is False
    assert "suite: FAIL" in captured.err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cmd_verify_fails_on_non_finite_residuals(tmp_path):
    # p = 1e160 overflows the operators to NaN; a NaN sample must fail its
    # check, not vanish from the worst residual
    out = tmp_path / "report.json"
    doc = {
        "model": {"p": [1e160, 0.0]},
        "checks": ["foundations.transfer_commute", "foundations.reflection_dressed",
                   "exchange.bb_commute", "exchange.ab_relation", "rotated.bbar_commute",
                   "offshell.general"],
        "output_path": str(out),
    }
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 1
    report = json.loads(out.read_text())
    assert report["all_pass"] is False
    for c in report["checks"]:
        if (c["name"], c["n_sites"]) == ("exchange.bb_commute", 1):
            # B(u) is nilpotent at N = 1, so [B(u), B(v)] is exactly zero
            assert (c["verdict"], c["residual"]) == ("pass", 0.0)
        else:
            assert (c["verdict"], c["residual"]) == ("fail", None), c


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_cmd_verify_contains_a_named_error_to_its_check(tmp_path):
    # on this model golden.w_n2 raises DegenerateBasisError; it fails that
    # check alone, and every other outcome is still written
    out = tmp_path / "report.json"
    doc = {"model": {"p": [1e160, 0.0]}, "output_path": str(out)}
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 1
    report = json.loads(out.read_text())
    assert len(report["checks"]) == 72
    (w_n2,) = [c for c in report["checks"] if (c["name"], c["n_sites"]) == ("golden.w_n2", 2)]
    assert w_n2["verdict"] == "fail" and w_n2["residual"] is None
    assert w_n2["reason"].startswith("DegenerateBasisError: ")


@pytest.mark.parametrize("config_text", [None, "{not json"], ids=["missing", "not_json"])
@pytest.mark.parametrize("command", ["verify", "solve", "spectrum", "sweep"])
def test_unreadable_config_exits_2(tmp_path, capsys, command, config_text):
    path = tmp_path / "config.json"
    if config_text is not None:
        path.write_text(config_text)
    assert cli.main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert "config error: " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("patch", [
    {"spectrum": {}},
    {"model": {"eta_plus": [0.0, 0.0]}},
    {"model": {"eta_minus": [0.3, 0.1]}},
])
@pytest.mark.parametrize("command", ["verify", "solve", "spectrum", "sweep"])
def test_removed_settings_are_unknown_keys(tmp_path, capsys, command, patch):
    # no result depends on them: the right boundary is diagonal and the
    # match tolerance is a constant
    doc = {**patch, "sweep": {"param": "p", "grid": [[1.7, 0.4]]}}
    assert cli.main([command, "--config", write_config(tmp_path, doc)]) == 2
    captured = capsys.readouterr()
    assert "config error: " in captured.err and "unknown keys" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n_sites", [MAX_SITES + 1, 10**9])
def test_config_rejects_chains_beyond_max_sites(n_sites):
    # without theta, the homogeneous theta list must not be built first
    msg = rf"model.n_sites: expected an integer in 1\.\.{MAX_SITES}"
    with pytest.raises(ConfigError, match=msg):
        config.parse_config_dict({"model": {"n_sites": n_sites}})


@pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
@pytest.mark.parametrize("command", ["verify", "solve", "spectrum", "sweep"])
def test_bad_output_path_exits_2_before_the_run(tmp_path, capsys, monkeypatch, command, where):
    def not_run(*args):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, f"cmd_{command}", not_run)
    out = tmp_path / "missing" / "x.json" if where == "missing-dir" else tmp_path
    doc = {"sweep": {"param": "p", "grid": [[1.7, 0.4]]}}
    code = cli.main([command, "--config", write_config(tmp_path, doc), "--out", str(out)])
    assert code == 2
    captured = capsys.readouterr()
    assert "config error: output_path: " in captured.err
    assert captured.out == ""


def test_cmd_verify_degenerate_config(tmp_path):
    doc = dict(BASE_DOC)
    doc["model"] = dict(doc["model"], xi_plus=[1.0, 0.0], xi_minus=[-1.0, 0.0])
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 2


def test_cmd_verify_unknown_check(tmp_path):
    doc = {**BASE_DOC, "checks": ["nope"]}
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 2


@pytest.mark.parametrize("patch", [
    {"solver": {"jacobian_step": 0.0}},  # no longer a key: rejected as unknown
    {"solver": {"max_iter": -3}},
    {"n_samples": 0},
    {"solver": {"damping": 1.0}},  # no longer a key, even at its old default
    {"checks": []},  # would pass on zero evaluated checks
])
def test_cmd_verify_rejects_invalid_solver_and_sample_settings(tmp_path, capsys, patch):
    doc = {**BASE_DOC, "checks": FAST_CHECKS[:1], **patch}
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error" in capsys.readouterr().err


def test_cmd_verify_csv(tmp_path):
    out = tmp_path / "report.csv"
    doc = {**BASE_DOC, "checks": FAST_CHECKS[:2], "format": "csv", "output_path": str(out)}
    assert cli.main(["verify", "--config", write_config(tmp_path, doc)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("name,n_sites,")
    assert len(lines) > 1


# --- solve command -------------------------------------------------------------------

def test_cmd_solve_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    cfg_path = write_config(tmp_path, BASE_DOC)
    assert cli.main(["solve", "--config", cfg_path, "--out", str(out1)]) == 0
    assert cli.main(["solve", "--config", cfg_path, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["count"] >= 1
    for rs in doc["root_sets"]:
        assert rs["residual_norm"] <= 1e-10
        assert len(rs["roots"]) == 2


def test_cmd_solve_empty_is_exit_zero(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["solver"] = {"seed": 1, "n_starts": 1, "max_iter": 1}
    code = cli.main(["solve", "--config", write_config(tmp_path, doc)])
    assert code == 0
    err = capsys.readouterr().err
    assert "no admissible Bethe solutions" in err


@pytest.mark.parametrize("extra, patch", [
    ([], {"solver": {"seed": -1}}),
    (["--seed", "-1"], {}),
])
def test_cmd_solve_rejects_negative_seed(tmp_path, capsys, extra, patch):
    doc = {**BASE_DOC, **patch}
    assert cli.main(["solve", "--config", write_config(tmp_path, doc), *extra]) == 2
    assert "config error" in capsys.readouterr().err


def test_cmd_solve_csv(tmp_path):
    out = tmp_path / "roots.csv"
    doc = {**BASE_DOC, "format": "csv", "output_path": str(out)}
    assert cli.main(["solve", "--config", write_config(tmp_path, doc)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "set_index,root_index,root_re,root_im,residual_norm"
    assert len(lines) >= 3


# --- spectrum command ------------------------------------------------------------------

def test_cmd_spectrum_full_match(tmp_path):
    out = tmp_path / "spec.json"
    assert cli.main(
        ["spectrum", "--config", write_config(tmp_path, BASE_DOC), "--out", str(out)]
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["matched_count"] == 4
    assert doc["unmatched_count"] == 0
    assert all(c["match_error"] <= 1e-8 for c in doc["curves"])
    assert all(c["eigen_residual"] <= 1e-8 for c in doc["curves"])


def test_cmd_spectrum_unmatched_reported_exit_zero(tmp_path, capsys):
    doc = dict(BASE_DOC)
    doc["solver"] = {"tol": 1e-30}
    out = tmp_path / "spec.json"
    doc["output_path"] = str(out)
    code = cli.main(["spectrum", "--config", write_config(tmp_path, doc)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["unmatched_count"] > 0
    # no set certifies at this tol, so no curve has a candidate: inf -> null
    assert all(c["match_error"] is None for c in report["curves"] if not c["matched"])


def test_cmd_spectrum_overflowing_model_is_a_tracking_error(tmp_path, capsys):
    # with |p| = 1e160 the norm of the rotated t(u) coefficients overflows, so
    # the off-diagonal gate read 0 and the cover reported 1/4 curves matched;
    # the gate handles the overflow, so no numpy warning may escape
    doc = {"model": {"p": [1e160, 0.0]}}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["spectrum", "--config", write_config(tmp_path, doc)]) == 3
    assert "TrackingError" in capsys.readouterr().err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("spectrum", [
    {"match_tol": 1e-8},  # the match tolerance is a constant, even at its old default
    {"match_tol": 0},
    {"residual_samples": 0},
    {"rounds": 3},
    {"n_probe": 96},
])
def test_cmd_spectrum_rejects_invalid_settings(tmp_path, capsys, spectrum):
    # no spectrum key is left, so the whole section is an unknown key
    doc = {**BASE_DOC, "spectrum": spectrum}
    assert cli.main(["spectrum", "--config", write_config(tmp_path, doc)]) == 2
    assert "config error: config: unknown keys ['spectrum']" in capsys.readouterr().err


def test_cmd_spectrum_seed_override_changes_nothing_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    cfg_path = write_config(tmp_path, BASE_DOC)
    assert cli.main(["spectrum", "--config", cfg_path, "--out", str(out1), "--seed", "77"]) == 0
    assert cli.main(["spectrum", "--config", cfg_path, "--out", str(out2), "--seed", "77"]) == 0
    assert out1.read_bytes() == out2.read_bytes()


# --- sweep command ----------------------------------------------------------------------

def test_cmd_sweep_single_point_equals_spectrum(tmp_path):
    spec_out = tmp_path / "spec.json"
    cfg_path = write_config(tmp_path, BASE_DOC)
    assert cli.main(["spectrum", "--config", cfg_path, "--out", str(spec_out)]) == 0
    spec = json.loads(spec_out.read_text())

    doc = dict(BASE_DOC)
    doc["sweep"] = {"param": "xi_plus", "grid": [[0.6, 0.1]]}  # the config value itself
    sweep_out = tmp_path / "sweep.json"
    assert cli.main(
        ["sweep", "--config", write_config(tmp_path, doc, "s.json"), "--out", str(sweep_out)]
    ) == 0
    row = json.loads(sweep_out.read_text())["rows"][0]
    assert row["matched_count"] == spec["matched_count"]
    assert row["unmatched_count"] == spec["unmatched_count"]


def test_cmd_sweep_requires_section(tmp_path):
    assert cli.main(["sweep", "--config", write_config(tmp_path, BASE_DOC)]) == 2


def test_cmd_sweep_theta_parameter(tmp_path):
    doc = dict(BASE_DOC)
    doc["sweep"] = {"param": "theta_2", "grid": [[0.05, 0.0], [-0.3, 0.05]]}
    out = tmp_path / "th.json"
    assert cli.main(
        ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]
    ) == 0
    rows = json.loads(out.read_text())["rows"]
    assert [r["matched_count"] for r in rows] == [4, 4]
    bad = dict(BASE_DOC)
    bad["sweep"] = {"param": "theta_9", "grid": [[0.05, 0.0]]}
    with pytest.raises(ConfigError):
        config.parse_config_dict(bad)


@pytest.mark.parametrize(
    "param, bad_value",
    [("p", [0.0, 0.0]), ("xi_plus", [-1.0 / 1.1, 0.0])],  # p = 0; xi+ xi- = -1
)
def test_cmd_sweep_rejects_an_invalid_grid_point_up_front(tmp_path, capsys, param, bad_value):
    doc = dict(BASE_DOC)
    doc["model"] = {**BASE_DOC["model"], "xi_minus": [1.1, 0.0]}
    doc["sweep"] = {"param": param, "grid": [[0.6, 0.1], bad_value]}
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert "sweep.grid[1]" in capsys.readouterr().err
    assert not out.exists()
    with pytest.raises(ConfigError):
        config.parse_config_dict(doc)


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_cmd_sweep_rejects_jobs_below_one(tmp_path, capsys, jobs):
    doc = {**BASE_DOC, "sweep": {"param": "xi_plus", "grid": [[0.6, 0.1]]}}
    out = tmp_path / "sweep.json"
    assert cli.main(
        ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out), "--jobs", jobs]
    ) == 2
    assert "--jobs" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_sweep_starts_no_more_workers_than_grid_points(tmp_path, monkeypatch):
    workers = []

    class SerialPool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    doc = {**BASE_DOC, "sweep": {"param": "xi_plus", "grid": [[0.6, 0.1], [0.9, 0.0]]}}
    out = tmp_path / "sweep.json"
    assert cli.main(
        ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out), "--jobs", "64"]
    ) == 0
    assert workers == [2]
    assert len(json.loads(out.read_text())["rows"]) == 2


# xi_plus values with a positive real part keep xi+ xi- clear of the -1 degeneracy.
_XI_PLUS_POINT = st.tuples(st.floats(0.2, 1.5), st.floats(-0.3, 0.3)).map(list)


# Each example starts two worker processes, so the example count stays small.
@settings(max_examples=5, deadline=None)
@given(st.lists(_XI_PLUS_POINT, min_size=1, max_size=3))
@example([[0.3, 0.0], [0.6, 0.1], [0.9, -0.2], [1.2, 0.3]])
def test_cmd_sweep_parallel_equals_serial(grid):
    doc = {**BASE_DOC, "format": "csv", "sweep": {"param": "xi_plus", "grid": grid}}
    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        cfg_path = write_config(tmp_path, doc)
        serial, parallel = tmp_path / "serial.csv", tmp_path / "parallel.csv"
        assert cli.main(["sweep", "--config", cfg_path, "--out", str(serial)]) == 0
        assert cli.main(
            ["sweep", "--config", cfg_path, "--out", str(parallel), "--jobs", "2"]
        ) == 0
        assert serial.read_bytes() == parallel.read_bytes()
        lines = serial.read_text().strip().splitlines()
    assert len(lines) == len(grid) + 1  # header + one row per grid point
    assert all(line.split(",")[3] == "4" for line in lines[1:])  # 4/4 matched each


def test_cmd_sweep_sixteen_point_grid(tmp_path):
    grid = [[0.25 + 0.1 * k, 0.05 * (k % 3)] for k in range(16)]
    doc = {**BASE_DOC, "format": "csv", "sweep": {"param": "xi_plus", "grid": grid}}
    out = tmp_path / "grid16.csv"
    assert cli.main(
        ["sweep", "--config", write_config(tmp_path, doc), "--out", str(out), "--jobs", "2"]
    ) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 17
    assert all(line.split(",")[3] == "4" for line in lines[1:])


def test_float_cells_round_trip():
    rng_vals = [0.1 + 0.27182818284590452, 1e-13 / 3.0, -2.123456789012345e5]
    for x in rng_vals:
        assert float(cli._fmt_cell(x)) == x


def test_cmd_verify_default_config_all_pass(tmp_path, capsys):
    out = tmp_path / "default_report.json"
    code = cli.main(["verify", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    gating = [c for c in report["checks"] if c["gating"] and c["verdict"] != "skipped"]
    assert gating and all(c["verdict"] == "pass" for c in gating)
    names = {c["name"] for c in report["checks"]}
    assert "spectrum.completeness" in names and "offshell.n4_probe" in names

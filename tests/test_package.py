"""The package's public surface and its documentation."""

import json
import re
from pathlib import Path

import openxxx
from openxxx import config

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

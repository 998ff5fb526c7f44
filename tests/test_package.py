"""The package's public surface."""

import openxxx


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from openxxx import *", namespace)  # raises AttributeError on a stale export
    assert [name for name in openxxx.__all__ if name not in namespace] == []
    assert all(namespace[name] is getattr(openxxx, name) for name in openxxx.__all__)

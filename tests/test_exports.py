"""The package's public names."""

import tfpoly


def test_every_export_resolves():
    # a stale name in __all__ would break `from tfpoly import *`
    assert [name for name in tfpoly.__all__ if not hasattr(tfpoly, name)] == []


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from tfpoly import *", namespace)
    assert set(tfpoly.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(tfpoly, name) for name in tfpoly.__all__)
    assert set(tfpoly.__all__) <= set(dir(tfpoly))

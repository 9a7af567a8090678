"""The package's public names."""

import tfpoly


def test_every_export_resolves():
    # a stale name in __all__ would break `from tfpoly import *`
    assert [name for name in tfpoly.__all__ if not hasattr(tfpoly, name)] == []

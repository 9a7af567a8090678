"""Every cache in the package can be reached, and so cleared, from outside.

A cache built inside a function body, or held only by a closure, would
survive a caller that clears every cache it can find on the modules and
their classes; so the count of cache decorators in the source must
equal the count of cache objects reachable that way.
"""

import importlib
import pathlib
import pkgutil
import re
import sys

import tfpoly

# every submodule, as the command line loads some only for the commands that run them
for info in pkgutil.iter_modules(tfpoly.__path__):
    importlib.import_module(f"tfpoly.{info.name}")

CACHE_DECORATOR = re.compile(r"^\s*@(?:functools\.)?(?:lru_cache|cache)\b", re.MULTILINE)


def reachable_caches() -> set[int]:
    found = set()

    def visit(value) -> None:
        if callable(getattr(value, "cache_clear", None)) and callable(
            getattr(value, "cache_info", None)
        ):
            found.add(id(value))

    for name, module in list(sys.modules.items()):
        if not name.startswith("tfpoly") or module is None:
            continue
        for value in vars(module).values():
            visit(value)
            if isinstance(value, type) and value.__module__ == name:
                for member in vars(value).values():
                    visit(getattr(member, "__func__", member))
    return found


def test_every_cache_decorator_is_reachable():
    package = pathlib.Path(tfpoly.__file__).parent
    declared = sum(
        len(CACHE_DECORATOR.findall(path.read_text(encoding="utf-8")))
        for path in package.rglob("*.py")
    )
    assert len(reachable_caches()) == declared

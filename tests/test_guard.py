"""The state guard is run context: `guarded` sets it for a block and no
other function takes one."""

import ast
from pathlib import Path

import pytest

import tfpoly
from tfpoly.config import DEFAULT_STATE_GUARD, GuardExceeded, guarded, state_guard
from tfpoly.fixtures import fixture
from tfpoly.graph import Orientation
from tfpoly.oracles import enumerate_tensions
from tfpoly.tensionflow import FiniteAbelianGroup

SRC = Path(tfpoly.__file__).parent


def test_only_guarded_takes_a_guard():
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if any(p is not None and p.arg == "guard" for p in params):
                    found.append(f"{path.stem}.{getattr(node, 'name', 'lambda')}")
    assert found == ["config.guarded"]


def test_the_innermost_block_wins(monkeypatch):
    monkeypatch.delenv("TFPOLY_GUARD", raising=False)
    assert state_guard() == DEFAULT_STATE_GUARD
    monkeypatch.setenv("TFPOLY_GUARD", "300")
    assert state_guard() == 300
    with guarded(200) as outer:
        assert outer == state_guard() == 200
        with guarded() as inner:  # the enclosing block's guard
            assert inner == state_guard() == 200
            with guarded(7):
                assert state_guard() == 7
            assert state_guard() == 200
    assert state_guard() == 300
    with guarded() as inherited:  # no block: the environment's
        assert inherited == 300


def test_a_block_ends_however_it_ends(monkeypatch):
    monkeypatch.delenv("TFPOLY_GUARD", raising=False)
    with pytest.raises(GuardExceeded):
        with guarded(1):
            tfpoly.tutte(fixture("k4"))
    assert state_guard() == DEFAULT_STATE_GUARD


def test_an_explicit_guard_does_not_read_the_environment(monkeypatch):
    monkeypatch.setenv("TFPOLY_GUARD", "abc")
    with pytest.raises(ValueError, match="^TFPOLY_GUARD must be an integer, not 'abc'$"):
        with guarded():
            pass
    with guarded(5):
        assert state_guard() == 5


def test_a_generator_charges_under_the_guard_active_when_first_advanced():
    g = fixture("k4")
    z3 = FiniteAbelianGroup.cyclic(3)
    with guarded(26):
        made = enumerate_tensions(g, Orientation.reference(g), z3)
    assert len(list(made)) == 27  # advanced under the default guard
    made = enumerate_tensions(g, Orientation.reference(g), z3)
    with guarded(26), pytest.raises(GuardExceeded, match="needs 27 states, guard is 26$"):
        next(made)

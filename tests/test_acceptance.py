"""Acceptance gate: every verification criterion must pass exactly.

Each test prints its own PASS/FAIL line so the gate can be read off a
plain pytest run.  All comparisons inside the criteria are exact
integer or polynomial identities; there are no tolerances to tune.
"""

import re

import pytest

from tfpoly import verification
from tfpoly.algebra import MultiPoly
from tfpoly.config import GuardExceeded
from tfpoly.fixtures import fixture_names
from tfpoly.verification import SUITES, run_criteria, run_suite

CRITERIA = SUITES["all"]


@pytest.fixture(scope="module")
def results():
    return dict(run_criteria(CRITERIA))


@pytest.mark.parametrize("num", CRITERIA)
def test_criterion(num, results, capsys):
    res = results[num]
    with capsys.disabled():
        print(f"{'PASS' if res.passed else 'FAIL'} criterion {num}: {res.name}")
    assert res.passed, "\n".join(res.lines)


@pytest.mark.parametrize("suite", [name for name in SUITES if name != "all"])
def test_each_suite_alone_matches_the_full_run(suite, results):
    # each suite is a run of its own, with a memo of its own
    assert run_suite(suite) == [(num, results[num]) for num in SUITES[suite]]


def test_a_passing_run_formats_no_polynomial(monkeypatch):
    # details are built only for a comparison that fails
    formatted = []
    real = MultiPoly.__str__

    def spy(self):
        formatted.append(self)
        return real(self)

    monkeypatch.setattr(MultiPoly, "__str__", spy)
    assert all(res.passed for _, res in run_suite("all"))
    assert formatted == []


@pytest.mark.parametrize("num", CRITERIA)
def test_criterion_obeys_the_guard(num):
    with pytest.raises(GuardExceeded):
        verification.CRITERIA[num](guard=1)


def test_failing_identity_shows_both_sides(monkeypatch):
    real = verification.psi_by_orientations

    def wrong_open_sums(g, which, guard=None):
        # an x in the open sums only: no closed sum can balance it
        poly = real(g, which, guard)
        return poly if which.startswith("bar_") else poly + MultiPoly.var("x")

    monkeypatch.setattr(verification, "psi_by_orientations", wrong_open_sums)
    res = verification.criterion_4()
    assert not res.passed
    failed = [re.fullmatch(r"(\w+): FAIL (.+) \[lhs=(.+); rhs=(.+)\]", line) for line in res.lines]
    assert all(failed), res.lines
    # the psi and psi_z pairs fail both ways on every fixture
    assert [m.group(1) for m in failed] == [n for n in fixture_names() for _ in range(4)]

"""Acceptance gate: every verification criterion must pass exactly.

Each test prints its own PASS/FAIL line so the gate can be read off a
plain pytest run.  All comparisons inside the criteria are exact
integer or polynomial identities; there are no tolerances to tune.
"""

import pytest

from tfpoly import verification
from tfpoly.config import GuardExceeded
from tfpoly.verification import SUITES, run_criteria

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


@pytest.mark.parametrize("num", CRITERIA)
def test_criterion_obeys_the_guard(num):
    with pytest.raises(GuardExceeded):
        verification.CRITERIA[num](guard=1)

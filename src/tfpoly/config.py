"""The state guard and shared error types.

Every exponential loop in this package (enumerations of tensions, flows
and pairs, scans over edge subsets and orientations, the Tutte
recursion, finite arrangement closures) charges the work it will do, in
states computed from its input, against one guard and refuses to start
when the charge crosses it.  The guard is a deliberate speed bump, not
a hard limit: callers can pass a larger one explicitly, and the
environment variable ``TFPOLY_GUARD`` overrides the default.
"""

from __future__ import annotations

import os

# Upper bound on the number of states any single loop may visit.
DEFAULT_STATE_GUARD = 10_000_000

GUARD_ENV = "TFPOLY_GUARD"


class GuardExceeded(RuntimeError):
    """An enumeration would visit more states than the active guard allows."""


class VerificationError(RuntimeError):
    """An identity that must hold exactly failed on concrete data."""


def state_guard(override: int | None = None) -> int:
    """Active state-space guard: explicit override, else env, else default.

    A guard below one would refuse every input, so it is a ValueError
    that names the value and where it came from.
    """
    if override is not None:
        guard = int(override)
        if guard < 1:
            raise ValueError(f"guard must be positive, not {guard}")
        return guard
    env = os.environ.get(GUARD_ENV)
    if env is None:
        return DEFAULT_STATE_GUARD
    try:
        guard = int(env)
    except ValueError:
        raise ValueError(f"{GUARD_ENV} must be an integer, not {env!r}") from None
    if guard < 1:
        raise ValueError(f"{GUARD_ENV} must be positive, not {env!r}")
    return guard


def check_state_space(size: int, guard: int | None = None, what: str = "enumeration") -> None:
    limit = state_guard(guard)
    if size > limit:
        raise GuardExceeded(f"{what} needs {size} states, guard is {limit}")

"""The state guard, shared error types, the value base and the suites.

Every exponential loop in this package (enumerations of tensions, flows
and pairs, scans over edge subsets and orientations, finite arrangement
closures) charges the work it will do, in states computed from its
input, against one guard and refuses to start when the charge crosses
it.  The Tutte recursion and the frontier sums charge their states as
they make them, and stop when the sum crosses it.  The guard is a
deliberate speed bump, not a hard limit.  It is run context, not an
argument: `guarded` sets it for a block (the command line runs each
command in one), `state_guard` reads it, and outside every such block
the environment variable ``TFPOLY_GUARD`` or else the default applies.

Results that one verification run asks for again and again are kept in
one memo that lives only as long as the run: `run_scope` opens it, and
functions decorated with `memoised_in_run` store their results there
while it is open and are plain calls when it is not.  The memo is
keyed on the arguments as passed and on the active guard, so a call
under a different guard is computed, and charged, afresh.

`Record` is the base of the package's value types, and `SUITES` names
the verification criteria each suite runs; both are kept here, in the
one module every other imports, so that neither costs an import of its
own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import os
from typing import Callable, Iterator, TypeVar

# Upper bound on the number of states any single loop may visit.
DEFAULT_STATE_GUARD = 10_000_000

GUARD_ENV = "TFPOLY_GUARD"


class GuardExceeded(RuntimeError):
    """An enumeration would visit more states than the active guard allows."""


class VerificationError(RuntimeError):
    """An identity that must hold exactly failed on concrete data."""


# which criteria of `verification` each suite runs
SUITES: dict[str, tuple[int, ...]] = {
    "arrangement": (1, 11, 15),
    "orientation": (3, 9, 10, 16),
    "reciprocity": (2, 4, 5, 6, 12, 13, 14, 18),
    "whitney": (7, 17, 19),
    "integrals": (8,),
    "all": tuple(range(1, 20)),
}


class Record:
    """Base of the value types: the fields are the names in a subclass's
    `__slots__`, which its `__init__` sets through `object.__setattr__`.

    A record equals a record of the same type with equal fields, hashes
    as the tuple of its fields, prints as `Name(field=value, ...)`, and
    copies and pickles through its constructor.  Assigning or deleting
    an attribute raises.
    """

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._fields()))
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        return self.__class__, self._fields()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


_GUARD: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "tfpoly_guard", default=None
)


def state_guard() -> int:
    """The active guard: that of the innermost `guarded` block, else
    ``TFPOLY_GUARD``, else the default.  An environment value that is
    not a positive integer is a ValueError that names it."""
    guard = _GUARD.get()
    if guard is not None:
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


@contextlib.contextmanager
def guarded(guard: int | None = None) -> Iterator[int]:
    """Run the block under `guard`, or, when it is None, under the guard
    active on entry; yields the guard.  It is checked once, here: one
    that is not an int is a TypeError, not truncated, and one below one,
    which would refuse every input, a ValueError that names it.  A
    generator charges when it is first advanced, under the guard active
    then."""
    if guard is None:
        guard = state_guard()
    elif not isinstance(guard, int):
        raise TypeError(f"guard must be an integer, not {guard!r}")
    elif guard < 1:
        raise ValueError(f"guard must be positive, not {guard}")
    token = _GUARD.set(guard)
    try:
        yield guard
    finally:
        _GUARD.reset(token)


def check_state_space(size: int, what: str = "enumeration") -> None:
    limit = state_guard()
    if size > limit:
        raise GuardExceeded(f"{what} needs {size} states, guard is {limit}")


# -- the run-scoped memo --------------------------------------------------------

_RUN_MEMO: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "tfpoly_run_memo", default=None
)

_F = TypeVar("_F", bound=Callable)


@contextlib.contextmanager
def run_scope() -> Iterator[None]:
    """Keep the results of `memoised_in_run` functions until the block
    exits, however it exits; an enclosing scope's memo is set aside
    meanwhile."""
    memo: dict = {}
    token = _RUN_MEMO.set(memo)
    try:
        yield
    finally:
        _RUN_MEMO.reset(token)
        memo.clear()


def memoised_in_run(func: _F) -> _F:
    """Store func's results, keyed on its arguments and the active guard,
    while a run scope is open; outside one, call func plainly."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        memo = _RUN_MEMO.get()
        if memo is None:
            return func(*args, **kwargs)
        key = (func, state_guard(), args, tuple(kwargs.items()))
        try:
            return memo[key]
        except KeyError:
            value = memo[key] = func(*args, **kwargs)
            return value

    return wrapper  # type: ignore[return-value]

"""Exact algebra substrate: sparse polynomials, univariate
interpolation, and rational matrix rank, determinant and adjugate
from one fraction-free elimination.

Everything here is exact; there is no floating point anywhere.
Polynomial coefficients are arbitrary precision integers or exact
rationals (``fractions.Fraction``), with integral rationals normalised
to plain ints.  Every counting polynomial of a whole graph has integer
coefficients; rationals appear only in single-orientation window
polynomials (lattice point counts of one rational polytope), whose
orientation sums are integral again.

Every ``MultiPoly`` keeps one term invariant: no coefficient is zero;
each coefficient is an ``int``, or a ``Fraction`` only when it is not
integral; and each exponent tuple has one non-negative entry per
variable.  The public constructor ``MultiPoly(variables, terms)`` is
the only place input is validated.  Arithmetic (``+``, ``-``, ``*``,
``**``, ``substitute`` and ``negate_vars``) keeps the invariant by
construction: a sum or product of such terms only needs its zero
coefficients dropped and its integral Fractions turned into ints, which
the private builder ``_from_sums`` does without re-checking anything
else.  ``substitute`` is the one place a polynomial is composed; within
a run scope (``config.run_scope``) it keeps the image of each monomial
under each mapping for the rest of the run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Sequence, Union

from .config import memoised_in_run

# Canonical variable order.  Variables outside this list sort after it,
# alphabetically.  Printing and JSON serialisation follow this order.
VARIABLE_ORDER = ("x", "y", "z", "w", "u", "v", "t")


class InterpolationError(ValueError):
    """Interpolation input was malformed or the fit failed verification."""


Coeff = Union[int, "Fraction"]


def _norm_coeff(value) -> Coeff:
    """Exact coefficient: int, or Fraction when not integral."""
    if type(value) is int:
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"coefficient must be exact (int or Fraction), got {type(value).__name__}")


def _is_integer(value) -> bool:
    """An int, or a Fraction with denominator 1."""
    return isinstance(value, int) or (isinstance(value, Fraction) and value.denominator == 1)


def _var_key(name: str) -> tuple[int, str]:
    try:
        return (VARIABLE_ORDER.index(name), name)
    except ValueError:
        return (len(VARIABLE_ORDER), name)


class MultiPoly:
    """Sparse multivariate polynomial with exact coefficients.

    ``variables`` is an ordered tuple of names; ``terms`` maps exponent
    tuples (one non-negative entry per variable) to non-zero
    coefficients: ints, or Fractions that are not integral (only the
    rational window polynomials have them).  The constructor validates
    its input and merges it into that form; it is the only place input
    is checked.  Arithmetic results keep the form by construction and
    are built without the checks.  Equality is semantic: variables that
    occur in no term are ignored, so x + 1 over (x, y) equals x + 1
    over (x,).
    """

    __slots__ = ("variables", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[tuple[int, ...], Coeff] | None = None):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable in {variables!r}")
        clean: dict[tuple[int, ...], Coeff] = {}
        for exps, coeff in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != len(variables):
                raise ValueError(f"exponent vector {exps} does not match variables {variables}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            coeff = _norm_coeff(coeff)
            if coeff != 0:
                merged = _norm_coeff(clean.get(exps, 0) + coeff)
                if merged == 0:
                    clean.pop(exps, None)
                else:
                    clean[exps] = merged
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):  # immutable after __init__
        raise AttributeError("MultiPoly is immutable")

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str] = ()) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def const(cls, value: Coeff) -> "MultiPoly":
        return _from_sums((), {(): _norm_coeff(value)})

    @classmethod
    def var(cls, name: str) -> "MultiPoly":
        return cls((name,), {(1,): 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exps: Sequence[int], coeff: int = 1) -> "MultiPoly":
        return cls(variables, {tuple(exps): coeff})

    # -- canonical form ----------------------------------------------

    def canonical(self) -> tuple:
        """The variables that occur and the terms over them, in display order."""
        variables, terms = self._display()
        return variables, tuple(terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.const(other)
        if self.variables == other.variables:
            # both term dicts are in normal form: no zero coefficients,
            # integral Fractions stored as ints
            return self.terms == other.terms
        return self.canonical() == other.canonical()

    def __hash__(self) -> int:
        return hash(self.canonical())

    # -- arithmetic ---------------------------------------------------

    @staticmethod
    def _coerce(value: Union["MultiPoly", Coeff]) -> "MultiPoly":
        if isinstance(value, MultiPoly):
            return value
        return MultiPoly.const(_scalar(value))

    def _aligned(self, other: "MultiPoly") -> tuple[tuple[str, ...], dict, dict]:
        if self.variables == other.variables:
            return self.variables, self.terms, other.terms
        # a constant lines up with any variables without a remap
        if not other.variables:
            return self.variables, self.terms, _lifted(other, len(self.variables))
        if not self.variables:
            return other.variables, _lifted(self, len(other.variables)), other.terms
        merged = tuple(sorted(set(self.variables) | set(other.variables), key=_var_key))
        return merged, _remap(self, merged), _remap(other, merged)

    def __add__(self, other):
        other = self._coerce(other)
        variables, a, b = self._aligned(other)
        sums = dict(a)
        for exps, coeff in b.items():
            sums[exps] = sums.get(exps, 0) + coeff
        return _from_sums(variables, sums)

    __radd__ = __add__

    def __neg__(self):
        return _from_sums(self.variables, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        # a number or a constant polynomial scales the coefficients
        if not isinstance(other, MultiPoly):
            return _scaled(self, _scalar(other))
        if not other.variables:
            return _scaled(self, other.terms.get((), 0))
        if not self.variables:
            return _scaled(other, self.terms.get((), 0))
        variables, a, b = self._aligned(other)
        return _from_sums(variables, _product(a, b))

    __rmul__ = __mul__

    def __pow__(self, exp: int):
        if not isinstance(exp, int) or exp < 0:
            raise ValueError("only non-negative integer powers")
        result = MultiPoly.const(1)
        base = self
        while exp:
            if exp & 1:
                result = result * base
            exp >>= 1
            if exp:
                base = base * base
        return result

    # -- substitution and evaluation ----------------------------------

    def substitute(self, mapping: Mapping[str, Union["MultiPoly", Coeff]]) -> "MultiPoly":
        """Replace each named variable by a polynomial or number, all at
        once, so {"x": y, "y": x} swaps x and y.

        Names that are not variables of this polynomial are ignored, so
        a family member that degenerated to fewer variables can still be
        fed the family-wide substitution.  The work stays on term dicts:
        each monomial's image comes from `_substitution`, which a run
        scope keeps for the run, so polynomials fed the same
        replacements share their monomials' images.
        """
        bases = tuple(
            self._coerce(mapping[name]) if name in mapping else MultiPoly.var(name)
            for name in self.variables
        )
        images = _substitution(tuple((b.variables, tuple(b.terms.items())) for b in bases))
        sums: dict[tuple[int, ...], Coeff] = {}
        for exps, coeff in self.terms.items():
            for e, c in images.image(exps).items():
                sums[e] = sums.get(e, 0) + coeff * c
        return _from_sums(images.variables, sums)

    def negate_vars(self, names: Iterable[str]) -> "MultiPoly":
        """Substitute v -> -v for each named variable: a term changes
        sign when its exponents in those variables have an odd sum."""
        names = set(names)
        flip = [i for i, v in enumerate(self.variables) if v in names]
        return _from_sums(
            self.variables,
            {e: -c if sum([e[i] for i in flip]) & 1 else c for e, c in self.terms.items()},
        )

    def evaluate(self, **values: int) -> Coeff:
        """Evaluate at integer arguments; extra names are ignored, but a
        value is required for every variable that actually occurs.  Each
        value must be an int or an integral Fraction, else TypeError.
        The result is an int whenever the value is integral."""
        ints: dict[str, int] = {}
        for name, value in values.items():
            if not _is_integer(value):
                raise TypeError(f"value of {name} must be an integer, got {value!r}")
            ints[name] = int(value)
        missing = [
            v
            for i, v in enumerate(self.variables)
            if v not in ints and any(e[i] for e in self.terms)
        ]
        if missing:
            raise KeyError(f"missing value(s) for: {missing}")
        total = 0
        for exps, coeff in self.terms.items():
            prod = coeff
            for name, e in zip(self.variables, exps):
                if e:
                    prod *= ints[name] ** e
            total += prod
        return _norm_coeff(total)

    # -- inspection ----------------------------------------------------

    def degree(self) -> int:
        """Total degree; zero polynomial reports -1."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, **exps: int) -> int:
        """Coefficient of the monomial with the given exponents (others 0)."""
        key = tuple(exps.get(v, 0) for v in self.variables)
        extra = set(exps) - set(self.variables)
        if extra:
            raise KeyError(f"unknown variable(s): {sorted(extra)}")
        return self.terms.get(key, 0)

    # -- formatting ----------------------------------------------------

    def _display(self) -> tuple[tuple[str, ...], list[tuple[tuple[int, ...], Coeff]]]:
        """The variables that occur, in canonical order, and the terms
        over them in graded-lex order, descending: higher total degree
        first, then lex on the exponents (x^1 before y^1)."""
        order = sorted(range(len(self.variables)), key=lambda i: _var_key(self.variables[i]))
        terms = sorted(
            ((tuple([e[i] for i in order]), c) for e, c in self.terms.items()),
            key=lambda item: (sum(item[0]), item[0]),
            reverse=True,
        )
        used = [k for k, column in enumerate(zip(*[e for e, _ in terms])) if any(column)]
        if len(used) < len(order):
            terms = [(tuple([e[k] for k in used]), c) for e, c in terms]
        return tuple(self.variables[order[k]] for k in used), terms

    def __str__(self) -> str:
        variables, terms = self._display()
        if not terms:
            return "0"
        chunks: list[str] = []
        for pos, (exps, coeff) in enumerate(terms):
            mono = "*".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(variables, exps) if e
            )
            mag = abs(coeff)
            if mono:
                body = mono if mag == 1 else f"{mag}*{mono}"
            else:
                body = str(mag)
            if pos == 0:
                chunks.append(body if coeff > 0 else f"-{body}")
            else:
                chunks.append(f"+ {body}" if coeff > 0 else f"- {body}")
        return " ".join(chunks)

    @staticmethod
    def _json_terms(terms: list[tuple[tuple[int, ...], Coeff]]) -> list[dict]:
        """The JSON term list of `_display`'s terms, coefficients as
        decimal strings (exact bigints)."""
        return [{"exps": list(e), "coeff": str(c)} for e, c in terms]

    def __repr__(self) -> str:
        return f"MultiPoly({self})"

    # -- JSON form -----------------------------------------------------

    def to_json(self) -> list[dict]:
        """Term list with coefficients as decimal strings (exact bigints)."""
        return self._json_terms(self._display()[1])

    def json_variables(self) -> list[str]:
        return list(self._display()[0])

    @classmethod
    def from_json(cls, variables: Sequence[str], items: Iterable[Mapping]) -> "MultiPoly":
        terms = {tuple(item["exps"]): Fraction(item["coeff"]) for item in items}
        return cls(tuple(variables), terms)


def _from_sums(variables: tuple[str, ...], sums: Mapping[tuple[int, ...], Coeff]) -> MultiPoly:
    """The polynomial with the given sums, which the arithmetic computed
    from operands that keep the term invariant: zero sums are dropped
    and integral Fractions become ints; nothing is validated."""
    poly = object.__new__(MultiPoly)
    object.__setattr__(poly, "variables", variables)
    object.__setattr__(
        poly,
        "terms",
        {
            e: c.numerator if type(c) is not int and c.denominator == 1 else c
            for e, c in sums.items()
            if c
        },
    )
    return poly


class _Substitution:
    """One substitution of polynomials for variables, on term dicts: the
    variables of its images, and the image of each monomial, computed
    on first use from the powers of the replacements, each power also
    computed once."""

    def __init__(self, bases: Sequence[MultiPoly]):
        self.variables = tuple(sorted({v for b in bases for v in b.variables}, key=_var_key))
        self._one = {(0,) * len(self.variables): 1}
        # powers[k][e] holds the terms of bases[k]^e
        self._powers = [[self._one, _remap(b, self.variables)] for b in bases]
        self._images: dict[tuple[int, ...], dict[tuple[int, ...], Coeff]] = {}

    def image(self, exps: tuple[int, ...]) -> dict[tuple[int, ...], Coeff]:
        """The terms of the image of the monomial with these exponents,
        one exponent per base; zero sums may be among them."""
        try:
            return self._images[exps]
        except KeyError:
            pass
        term = self._one
        for done, e in zip(self._powers, exps):
            if e:
                while len(done) <= e:
                    done.append(_product(done[-1], done[1]))
                term = _product(term, done[e])
        self._images[exps] = term
        return term


@memoised_in_run
def _substitution(
    bases: tuple[tuple[tuple[str, ...], tuple[tuple[tuple[int, ...], Coeff], ...]], ...],
) -> _Substitution:
    """The substitution of the polynomials given as (variables, terms),
    one per variable replaced; keyed on exactly those, not on equality
    of polynomials, so that the images keep the variables they would
    have had without the memo."""
    return _Substitution([_from_sums(v, dict(t)) for v, t in bases])


def _product(a: Mapping[tuple[int, ...], Coeff], b: Mapping[tuple[int, ...], Coeff]) -> dict:
    """The sums of the product of two term dicts over the same
    variables; a zero sum is kept for `_from_sums` to drop."""
    sums: dict[tuple[int, ...], Coeff] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(map(add, e1, e2))
            sums[e] = sums.get(e, 0) + c1 * c2
    return sums


def _scalar(value) -> Coeff:
    """The operand itself when it is an int or a Fraction."""
    if type(value) is int or isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"cannot treat {type(value).__name__} as a polynomial")


def _scaled(poly: MultiPoly, scalar: Coeff) -> MultiPoly:
    return _from_sums(poly.variables, {e: c * scalar for e, c in poly.terms.items()})


def _lifted(constant: MultiPoly, width: int) -> dict[tuple[int, ...], Coeff]:
    """Terms of a polynomial over no variables, over `width` variables."""
    return {(0,) * width: c for c in constant.terms.values()}


def _remap(poly: MultiPoly, variables: tuple[str, ...]) -> dict[tuple[int, ...], int]:
    index = {v: i for i, v in enumerate(variables)}
    out: dict[tuple[int, ...], int] = {}
    for exps, coeff in poly.terms.items():
        e = [0] * len(variables)
        for name, power in zip(poly.variables, exps):
            e[index[name]] = power
        out[tuple(e)] = coeff
    return out


# -- univariate interpolation -----------------------------------------


def interpolate_univariate(
    samples: Sequence[tuple[int, int]],
    degree_bound: int,
    var: str = "t",
    integral: bool = True,
) -> MultiPoly:
    """Fit the unique polynomial p of degree <= degree_bound through the
    degree_bound+1 lowest samples and verify it on the rest.

    Each sample is a pair of ints or integral Fractions, else
    TypeError.  The abscissae, in any order, must be consecutive
    integers a, a+1, ...; a gap or a duplicated abscissa raises
    InterpolationError, as does a sample beyond the fit that p misses.
    The fit stays in integers: with d = degree_bound, the forward
    differences at a give d! p in the falling-factorial basis
    (t - a)(t - a - 1)..., which is expanded, checked against the extra
    samples, and divided by d! once at the end.  With integral=True (the default) a non-integer
    coefficient is also an error; counting polynomials for a single
    orientation are the one place rational coefficients are legitimate,
    and they pass integral=False.
    """
    if degree_bound < 0:
        raise InterpolationError("degree bound must be non-negative")
    pts = []
    for a, b in samples:
        if not (_is_integer(a) and _is_integer(b)):
            raise TypeError(f"sample {(a, b)!r} must be a pair of integers")
        pts.append((int(a), int(b)))
    pts.sort()
    for (a, _), (nxt, _) in zip(pts, pts[1:]):
        if nxt == a:
            raise InterpolationError(f"duplicate sample point t={a}")
        if nxt != a + 1:
            raise InterpolationError(
                f"sample points must be consecutive integers: t={a} is followed by t={nxt}"
            )
    need = degree_bound + 1
    if len(pts) < need:
        raise InterpolationError(f"need {need} samples for degree {degree_bound}, got {len(pts)}")

    start = pts[0][0]
    scale = math.factorial(degree_bound)
    values = [b for _, b in pts[:need]]
    # scaled[i] is the coefficient of t^i in d! p; falling holds
    # (t - start)(t - start - 1)...(t - start - k + 1), weight d!/k!
    scaled = [0] * need
    falling = [1]
    weight = scale
    for k in range(need):
        if k:
            weight //= k
            shifted = [0] + falling
            for i, c in enumerate(falling):
                shifted[i] -= (start + k - 1) * c
            falling = shifted
            values = [b - a for a, b in zip(values, values[1:])]
        for i, c in enumerate(falling):
            scaled[i] += values[0] * weight * c

    for a, b in pts[need:]:
        got = 0
        for c in reversed(scaled):
            got = got * a + c
        if got != scale * b:
            raise InterpolationError(
                f"verification failed at t={a}: fit gives {Fraction(got, scale)}, sample says {b}"
            )
    out: dict[tuple[int, ...], Coeff] = {}
    for i, c in enumerate(scaled):
        if c % scale:
            if integral:
                raise InterpolationError(
                    f"non-integer coefficient {Fraction(c, scale)} of {var}^{i}"
                )
            out[(i,)] = Fraction(c, scale)
        elif c:
            out[(i,)] = c // scale
    return _from_sums((var,), out)


# -- exact matrices ----------------------------------------------------


def _eliminate(work: list[list[int]], width: int) -> tuple[int, int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows `work`,
    in place, pivoting in the first `width` columns (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 22, 1968).  At each pivot p every other row becomes
    (p * row - row[col] * pivot row) / previous pivot, a division that
    is exact, so every entry stays an integer minor.  Returns (rank, sign
    of the row swaps, last pivot).  For a nonsingular square A, [A | I]
    ends as [sign det A * I | sign adj A]."""
    rank, sign, prev = 0, 1, 1
    for col in range(width):
        if rank == len(work):
            break
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            work[rank], work[pivot] = work[pivot], work[rank]
            sign = -sign
        top = work[rank]
        p = top[col]
        for i, row in enumerate(work):
            if i != rank:
                f = row[col]
                work[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        rank += 1
    return rank, sign, prev


def rational_rank(rows: Sequence[Sequence[int | Fraction]]) -> int:
    """Exact rank over Q by fraction-free elimination of rows of ints or
    Fractions; any other entry, a float included, is a TypeError.  A row
    with a Fraction is scaled to integers first (rank-preserving)."""
    if not rows or not rows[0]:
        return 0
    work: list[list[int]] = []
    for row in rows:
        if all(type(x) is int for x in row):
            work.append(list(row))
            continue
        for x in row:
            if not isinstance(x, (int, Fraction)):
                raise TypeError(f"matrix entry {x!r} must be an int or a Fraction")
        scale = math.lcm(*(x.denominator for x in row))
        work.append([int(x * scale) for x in row])
    return _eliminate(work, len(work[0]))[0]


def det_adjugate(rows: Sequence[Sequence[int]]) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(det A, adj A) of a nonsingular square integer matrix, by
    fraction-free elimination of [A | I].  An entry that is not an int or
    an integral Fraction is a TypeError, and a singular A a ValueError."""
    n = len(rows)
    work = []
    for i, row in enumerate(rows):
        for x in row:
            if not _is_integer(x):
                raise TypeError(f"matrix entry {x!r} must be an integer")
        work.append([int(x) for x in row] + [int(i == j) for j in range(n)])
    rank, sign, last = _eliminate(work, n)
    if rank < n:
        raise ValueError("singular matrix has no adjugate by inversion")
    return sign * last, tuple(tuple(sign * x for x in row[n:]) for row in work)

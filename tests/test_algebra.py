"""Exact arithmetic substrate: polynomials, interpolation, matrices."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfpoly.algebra import (
    InterpolationError,
    MultiPoly,
    _var_key,
    det_adjugate,
    interpolate_univariate,
    rational_rank,
)
from tfpoly.config import run_scope

X = MultiPoly.var("x")
Y = MultiPoly.var("y")


# operands over differing variable tuples, so arithmetic must line them
# up; the empty tuple gives constants, which take the scalar path
VARIABLE_TUPLES = ((), ("x",), ("y", "x"), ("x", "y", "z"))
SMALL_FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def small_polys(draw):
    variables = draw(st.sampled_from(VARIABLE_TUPLES))
    exps = st.tuples(*(st.integers(0, 3) for _ in variables))
    coeffs = st.integers(-9, 9) | SMALL_FRACTIONS
    return MultiPoly(variables, draw(st.dictionaries(exps, coeffs, max_size=5)))


def assert_canonical(p):
    """The term invariant: what the constructor would make of the terms,
    with no zero coefficient and no integral Fraction."""
    assert MultiPoly(p.variables, p.terms).terms == p.terms
    for exps, coeff in p.terms.items():
        assert len(exps) == len(p.variables)
        assert coeff != 0
        assert type(coeff) is int or (type(coeff) is Fraction and coeff.denominator != 1)


# -- construction and canonical form ------------------------------------


def test_zero_coefficients_are_dropped():
    p = MultiPoly(("x",), {(1,): 0, (0,): 3})
    assert p.terms == {(0,): 3}


def test_duplicate_exponents_merge():
    # the constructor sums whatever it is given per exponent vector
    p = MultiPoly(("x",), {(2,): 5}) + MultiPoly(("x",), {(2,): -5})
    assert p.is_zero()


def test_integral_fractions_normalize_to_int():
    p = MultiPoly(("x",), {(1,): Fraction(4, 2)})
    c = p.terms[(1,)]
    assert c == 2 and isinstance(c, int)


def test_constructors_refuse_floats():
    with pytest.raises(TypeError):
        MultiPoly.const(0.0)
    with pytest.raises(TypeError):
        MultiPoly(("x",), {(1,): 0.5})
    with pytest.raises(TypeError):
        X * 0.5


def test_rational_coefficients_survive():
    p = MultiPoly(("x",), {(1,): Fraction(1, 2)})
    assert p.terms[(1,)] == Fraction(1, 2)
    assert (p + p).terms[(1,)] == 1


def test_equality_with_numbers_matches_coercion():
    assert MultiPoly.const(Fraction(1, 2)) == Fraction(1, 2)
    assert MultiPoly.const(Fraction(4, 2)) == 2
    assert MultiPoly.const(Fraction(1, 2)) != Fraction(1, 3)
    assert X != Fraction(1, 2)
    assert MultiPoly.const(1) != 1.0


def test_equality_ignores_unused_variables():
    a = MultiPoly(("x", "y"), {(1, 0): 2})
    b = MultiPoly(("x",), {(1,): 2})
    assert a == b
    assert hash(a) == hash(b)
    assert MultiPoly.zero(("x", "y")) == MultiPoly.zero(())
    assert MultiPoly.const(7) == 7


def test_variable_order_of_construction_is_irrelevant():
    a = MultiPoly(("y", "x"), {(1, 2): 3})
    b = MultiPoly(("x", "y"), {(2, 1): 3})
    assert a == b
    assert str(a) == str(b)


# -- ring laws -----------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_addition_commutes(a, b):
    assert a + b == b + a


@settings(max_examples=40, deadline=None)
@given(small_polys(), small_polys())
def test_multiplication_commutes(a, b):
    assert a * b == b * a


@settings(max_examples=25, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_multiplication_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@settings(max_examples=25, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_multiplication_associates(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=25, deadline=None)
@given(small_polys())
def test_neutral_elements(a):
    assert a + MultiPoly.zero() == a
    assert a * MultiPoly.const(1) == a
    assert a - a == MultiPoly.zero()
    assert (a * MultiPoly.zero()).is_zero()


@settings(max_examples=25, deadline=None)
@given(small_polys(), st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_evaluation_is_a_ring_hom(a, x, y, z):
    b = X * Y - 2
    at = {"x": x, "y": y, "z": z}
    lhs = (a * b + a).evaluate(**at)
    rhs = a.evaluate(**at) * b.evaluate(**at) + a.evaluate(**at)
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), st.integers(-3, 3), SMALL_FRACTIONS, st.integers(0, 3))
def test_arithmetic_results_keep_the_term_invariant(a, b, k, f, n):
    results = [
        a + b,
        a - b,
        -a,
        a * b,
        k * a,
        a * k,
        f * a,
        0 * a,
        Fraction(0) * a,
        Fraction(2, 1) * a,
        a**n,
        a.substitute({"x": b, "y": -1}),
        a.substitute({"z": f, "x": 2 * X}),
        a.negate_vars(["x", "z"]),
    ]
    for r in results:
        assert_canonical(r)


def test_pow():
    assert (X + 1) ** 3 == X**3 + 3 * X**2 + 3 * X + 1
    assert (X + 1) ** 0 == 1


# -- substitution and evaluation ------------------------------------------


def test_substitute_pins_and_ignores():
    p = X**2 * Y + 3 * X
    assert p.substitute({"y": 1}) == X**2 + 3 * X
    assert p.substitute({"y": 0}) == 3 * X
    # absent names are no-ops, so one mapping serves many polynomials
    assert p.substitute({"z": 5}) == p


def test_substitute_polynomial_composition():
    p = X**2 + 1
    assert p.substitute({"x": Y + 1}) == Y**2 + 2 * Y + 2


def _value(p, point):
    """p at exact (int or Fraction) values, summed term by term."""
    total = 0
    for exps, coeff in p.terms.items():
        for name, e in zip(p.variables, exps):
            coeff *= point[name] ** e
        total += coeff
    return total


@settings(max_examples=60, deadline=None)
@given(
    small_polys(),
    small_polys() | st.integers(-3, 3) | SMALL_FRACTIONS,
    small_polys() | st.integers(-3, 3) | SMALL_FRACTIONS,
    st.tuples(*(st.integers(-3, 3) for _ in "xyz")),
)
def test_substitute_composes(a, b, c, values):
    point = dict(zip("xyz", values))

    def at(p):
        return _value(p, point) if isinstance(p, MultiPoly) else p

    # all at once: a y inside b is the old y, not c, and an x inside c is not b
    inner = {**point, "x": at(b), "y": at(c)}
    assert _value(a.substitute({"x": b, "y": c}), point) == _value(a, inner)
    swapped = {**point, "x": point["y"], "y": point["x"]}
    assert _value(a.substitute({"x": Y, "y": X}), point) == _value(a, swapped)


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys(), small_polys() | st.integers(-3, 3) | SMALL_FRACTIONS)
def test_substitute_reads_the_same_in_a_run(a, b, c):
    # within a run the images of a's monomials are kept and shared with
    # every polynomial fed the same replacements; what comes out, down
    # to its variables and terms, is what a call outside a run gives
    mapping = {"x": b, "y": c}
    cold = a.substitute(mapping)
    with run_scope():
        for _ in range(2):
            warm = a.substitute(mapping)
            assert (warm.variables, warm.terms) == (cold.variables, cold.terms)


def test_substitute_keeps_its_variables_beside_an_equal_replacement():
    # x + 1 over (x, y) equals x + 1 over (x,), but a composite with it
    # carries y, in a run as out of one
    wide = MultiPoly(("x", "y"), {(1, 0): 1, (0, 0): 1})
    p = MultiPoly(("t",), {(2,): 1})
    with run_scope():
        narrow_first = p.substitute({"t": X + 1})
        wide_then = p.substitute({"t": wide})
    assert narrow_first.variables == ("x",)
    assert wide_then.variables == ("x", "y")
    assert narrow_first == wide_then


@settings(max_examples=40, deadline=None)
@given(small_polys(), st.sets(st.sampled_from("xyzw")))
def test_negate_vars_substitutes_minus_each_variable(a, names):
    assert a.negate_vars(names) == a.substitute({v: -MultiPoly.var(v) for v in names})


def test_negate_vars():
    p = X**2 + X * Y + Y
    assert p.negate_vars(["x"]) == X**2 - X * Y + Y
    assert p.negate_vars(["x", "y"]) == X**2 + X * Y - Y


def test_evaluate_requires_used_variables_only():
    p = X * Y + X
    assert p.evaluate(x=2, y=3) == 8
    assert p.evaluate(x=2, y=3, t=99) == 8
    with pytest.raises(KeyError):
        p.evaluate(x=2)
    # y is carried but unused here, so no value is needed
    q = MultiPoly(("x", "y"), {(1, 0): 1})
    assert q.evaluate(x=5) == 5


def test_evaluate_takes_integers_only():
    p = X * X
    assert p.evaluate(x=Fraction(6, 3)) == 4
    assert type(p.evaluate(x=Fraction(6, 3))) is int
    with pytest.raises(TypeError):
        p.evaluate(x=Fraction(1, 2))
    with pytest.raises(TypeError):
        p.evaluate(x=2.9)


def test_coefficient_lookup():
    p = X**2 * Y - 3 * X + 2
    assert p.coefficient(x=2, y=1) == 1
    assert p.coefficient(x=1) == -3
    assert p.coefficient() == 2
    assert p.coefficient(x=5) == 0
    with pytest.raises(KeyError):
        p.coefficient(q=1)


def test_degree():
    assert (X**2 * Y + X).degree() == 3
    assert MultiPoly.const(5).degree() == 0
    assert MultiPoly.zero().degree() == -1


# -- printing -------------------------------------------------------------


def test_graded_lex_printing():
    p = X**2 * Y - 3 * X + 2 + Y
    assert str(p) == "x^2*y - 3*x + y + 2"
    assert str(MultiPoly.zero()) == "0"
    assert str(X - 1) == "x - 1"
    assert str(-X) == "-x"
    # ties in total degree break by the fixed x,y,z,w,u,v,t order
    assert str(X + Y) == "x + y"
    assert str(MultiPoly.var("t") + MultiPoly.var("w")) == "w + t"


def _term_key(exps):
    # graded-lex, descending: higher total degree first, then lex on the
    # exponent vector (x^1 before y^1 under the canonical order)
    return (-sum(exps), tuple(-e for e in exps))


@settings(max_examples=200, deadline=None)
@given(small_polys() | small_polys().map(lambda p: p.substitute({"x": Y * Y})))
def test_display_order_is_the_graded_lex_term_key(p):
    # the unused variables dropped first, the rest in canonical order,
    # the terms sorted by _term_key
    used = [v for i, v in enumerate(p.variables) if any(e[i] for e in p.terms)]
    order = sorted(used, key=_var_key)
    at = [p.variables.index(v) for v in order]
    want = [(tuple(e[i] for i in at), c) for e, c in p.terms.items()]
    want.sort(key=lambda item: _term_key(item[0]))
    assert p._display() == (tuple(order), want)


def test_fraction_printing():
    p = MultiPoly(("x",), {(2,): Fraction(1, 2), (1,): Fraction(-3, 2)})
    assert str(p) == "1/2*x^2 - 3/2*x"


# -- JSON round trip --------------------------------------------------------


def test_json_round_trip():
    p = X**3 * Y - 12 * X + 7
    back = MultiPoly.from_json(p.json_variables(), p.to_json())
    assert back == p


def test_json_round_trip_rational():
    p = MultiPoly(("x",), {(3,): Fraction(14, 3), (0,): -18})
    items = p.to_json()
    assert {it["coeff"] for it in items} == {"14/3", "-18"}
    assert MultiPoly.from_json(p.json_variables(), items) == p


def test_json_big_integers_exact():
    big = 10**40 + 1
    p = MultiPoly(("x",), {(1,): big})
    assert MultiPoly.from_json(["x"], p.to_json()).terms[(1,)] == big


# -- interpolation -----------------------------------------------------------


def test_interpolation_recovers_polynomial():
    f = lambda t: 2 * t**3 - t + 5
    samples = [(t, f(t)) for t in range(6)]
    p = interpolate_univariate(samples, 3)
    assert p == 2 * MultiPoly.var("t") ** 3 - MultiPoly.var("t") + 5
    # integral Fractions are integers too
    assert interpolate_univariate([(Fraction(a), Fraction(b)) for a, b in samples], 3) == p


def test_interpolation_checks_extra_samples():
    samples = [(0, 0), (1, 1), (2, 4), (3, 9), (4, 99)]
    with pytest.raises(InterpolationError):
        interpolate_univariate(samples, 2)


def test_interpolation_rejects_duplicate_points():
    with pytest.raises(InterpolationError):
        interpolate_univariate([(1, 1), (1, 2), (2, 3)], 1)


def test_interpolation_needs_enough_samples():
    with pytest.raises(InterpolationError):
        interpolate_univariate([(0, 1)], 1)


def test_interpolation_integrality_gate():
    # t(t-1)/2 is integer valued with non-integer coefficients
    samples = [(t, t * (t - 1) // 2) for t in range(5)]
    with pytest.raises(InterpolationError):
        interpolate_univariate(samples, 2)
    p = interpolate_univariate(samples, 2, integral=False)
    assert p.terms == {(2,): Fraction(1, 2), (1,): Fraction(-1, 2)}


def test_interpolation_accepts_samples_in_any_order():
    f = lambda t: t**3 - 4 * t + 7
    samples = [(t, f(t)) for t in range(2, 8)]
    want = MultiPoly.var("t") ** 3 - 4 * MultiPoly.var("t") + 7
    assert interpolate_univariate(samples[::-1], 3) == want
    assert interpolate_univariate(samples[3:] + samples[:3], 3) == want


def test_interpolation_needs_consecutive_points():
    samples = [(1, 1), (2, 4), (4, 16), (5, 25)]
    with pytest.raises(InterpolationError, match="consecutive integers: t=2 is followed by t=4"):
        interpolate_univariate(samples, 2)


@pytest.mark.parametrize("wrong", [1, 5])
def test_interpolation_reports_a_wrong_sample_at_either_end(wrong):
    samples = [(t, t * t + (1 if t == wrong else 0)) for t in range(1, 6)]
    with pytest.raises(InterpolationError, match="verification failed"):
        interpolate_univariate(samples, 2)
    with pytest.raises(InterpolationError, match="verification failed"):
        interpolate_univariate(samples[::-1], 2)


def test_interpolation_returns_fraction_coefficients():
    # the transitive triangle's tension window count (x - 1)(x - 2)/2
    samples = [(x, (x - 1) * (x - 2) // 2) for x in range(1, 6)]
    p = interpolate_univariate(samples, 2, "x", integral=False)
    assert p.terms == {(2,): Fraction(1, 2), (1,): Fraction(-3, 2), (0,): 1}
    assert all(type(c) in (int, Fraction) for c in p.terms.values())
    assert type(p.terms[(0,)]) is int


@pytest.mark.parametrize(
    "samples",
    [
        [(0, 0.5), (1, 1.7)],
        [(0, Fraction(1, 2)), (1, Fraction(7, 2))],
        [(0.9, 0), (1.2, 1)],
    ],
)
def test_interpolation_refuses_non_integer_samples(samples):
    # int() would truncate these to t, 3t and t without a word
    with pytest.raises(TypeError, match=r"sample \(0"):
        interpolate_univariate(samples, 1)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(-6, 6), min_size=1, max_size=4))
def test_interpolation_inverts_evaluation(coeffs):
    p = MultiPoly(("t",), {(i,): c for i, c in enumerate(coeffs)})
    d = len(coeffs) - 1
    samples = [(t, p.evaluate(t=t)) for t in range(d + 3)]
    assert interpolate_univariate(samples, d) == p


# -- matrices ------------------------------------------------------------------


def test_rational_rank():
    m = [[1, 2], [2, 4]]
    assert rational_rank(m) == 1
    m = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert rational_rank(m) == 3
    m = [[Fraction(1, 2), 1], [1, 2]]
    assert rational_rank(m) == 1
    assert rational_rank([[0, 0], [0, 0]]) == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=1, max_size=4))
def test_rational_rank_reads_int_rows_as_their_fractions(rows):
    # int rows skip the scaling; the same rows as Fractions take it
    assert rational_rank(rows) == rational_rank([[Fraction(x) for x in row] for row in rows])
    halves = [[Fraction(x, 2) for x in row] for row in rows]
    assert rational_rank(halves) == rational_rank(rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[Fraction(1, 2), 0], [0, 2.7]],
        [[1, 0], [0, 2.7]],
        [[1, 0], [0, 2.0]],
        [[2.5, 0], [0, 1]],
    ],
)
def test_matrix_routines_refuse_non_integer_entries(rows):
    # a float is refused even when it is integral
    for routine in (rational_rank, det_adjugate):
        with pytest.raises(TypeError, match="matrix entry"):
            routine(rows)


def test_det_adjugate_refuses_fractions_that_are_not_integral():
    # rational_rank scales such a row to integers; the adjugate of [1/2]
    # used to read (0, ((0,),))
    with pytest.raises(TypeError, match="matrix entry"):
        det_adjugate([[Fraction(1, 2)]])
    assert det_adjugate([[Fraction(4, 2), 0], [0, Fraction(3)]]) == (6, ((3, 0), (0, 2)))


@st.composite
def int_matrices(draw, square=False):
    """Small integer matrices, many of them singular: a column may be
    zeroed and the last row may repeat the first."""
    m = draw(st.integers(1, 4))
    n = m if square else draw(st.integers(1, 5))
    row = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    if draw(st.booleans()):
        col = draw(st.integers(0, n - 1))
        for r in rows:
            r[col] = 0
    if m > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])
    return rows


def fraction_rank(rows):
    """Rank by Gaussian elimination over Fractions."""
    work = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / work[rank][col]
            work[i] = [x - f * y for x, y in zip(work[i], work[rank])]
        rank += 1
    return rank


def leibniz(rows):
    """Determinant as the signed sum over permutations."""
    total = 0
    for perm in itertools.permutations(range(len(rows))):
        term = -1 if sum(a > b for a, b in itertools.combinations(perm, 2)) & 1 else 1
        for row, j in zip(rows, perm):
            term *= row[j]
        total += term
    return total


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_rational_rank_matches_fraction_elimination(rows):
    assert rational_rank(rows) == fraction_rank(rows)


@settings(max_examples=150, deadline=None)
@given(int_matrices(square=True))
def test_det_adjugate_matches_leibniz(rows):
    n = len(rows)
    det = leibniz(rows)
    if det == 0:
        with pytest.raises(ValueError):
            det_adjugate(rows)
        return
    # adj[i][j] is the (j, i) cofactor
    cofactor = [
        [
            (-1) ** (i + j)
            * leibniz([[x for c, x in enumerate(row) if c != i] for r, row in enumerate(rows) if r != j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    got_det, adj = det_adjugate(rows)
    assert got_det == det
    assert [list(row) for row in adj] == cofactor
    for i in range(n):
        for j in range(n):
            assert sum(rows[i][k] * adj[k][j] for k in range(n)) == (det if i == j else 0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3
    )
)
def test_adjugate_times_matrix_is_determinant(rows):
    a, b, c = rows
    det = (
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )
    if det == 0:
        with pytest.raises(ValueError):
            det_adjugate(rows)
        return
    got_det, adj = det_adjugate(rows)
    assert got_det == det
    for i in range(3):
        for j in range(3):
            assert sum(rows[i][k] * adj[k][j] for k in range(3)) == (det if i == j else 0)

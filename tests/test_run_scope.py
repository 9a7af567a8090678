"""The run-scoped memo: results are kept only while a verification run
is open, and nothing is left behind when the run ends, however it ends."""

from collections import Counter

import pytest

from tfpoly import config, graph, invariants, oracles, tensionflow, verification
from tfpoly.config import DEFAULT_STATE_GUARD, GuardExceeded, guarded, run_scope
from tfpoly.fixtures import all_fixtures, fixture, small_ladder
from tfpoly.graph import Orientation, subset_rank_table
from tfpoly.invariants import QUADRANTS, omega
from tfpoly.oracles import (
    integral_support_classes,
    kappa_rho,
    modular_complementary_count,
    omega_value,
    pair_support_classes,
    tutte_value_triples,
    whitney_weighted_sums,
)
from tfpoly.tensionflow import FiniteAbelianGroup, integral_window_counts
from tfpoly.verification import run_criteria, run_suite


@pytest.fixture
def kappa_spy(monkeypatch):
    """The (orientation, mode) of every kappa that is computed, not
    read from a memo."""
    computed = []
    real = oracles._kappa

    def spy(g, o, b, c, mode):
        computed.append((o.flips, mode))
        return real(g, o, b, c, mode)

    monkeypatch.setattr(oracles, "_kappa", spy)
    return computed


def test_nothing_is_memoised_outside_a_run(kappa_spy):
    g = fixture("k3")
    o = Orientation.reference(g)
    assert kappa_rho(g, o, "open") == kappa_rho(g, o, "open")
    assert len(kappa_spy) == 2


def test_a_run_computes_each_result_once(kappa_spy):
    g = fixture("k3")
    o = Orientation.reference(g)
    with run_scope():
        assert kappa_rho(g, o, "open") == kappa_rho(g, o, "open")
    assert len(kappa_spy) == 1


@pytest.fixture
def support_spy(monkeypatch):
    """(graph, side, modulus, bound) of every support walk that is made,
    not read from the run memo."""
    walked = []
    real = oracles._support_walk.__wrapped__

    def spy(g, tensions, modulus, bound):
        walked.append((g, "tensions" if tensions else "flows", modulus, bound))
        return real(g, tensions, modulus, bound)

    monkeypatch.setattr(oracles, "_support_walk", config.memoised_in_run(spy))
    return walked


def test_a_run_enumerates_the_pairs_of_two_groups_once(support_spy):
    # criteria 1, 5, 7 and 8 all read the (Z_p, Z_q) pair classes
    g = fixture("k4")
    z2, z3 = FiniteAbelianGroup.cyclic(2), FiniteAbelianGroup.cyclic(3)
    with run_scope():
        omega_value(g, z2, z3)
        modular_complementary_count(g, 2, 3)
        whitney_weighted_sums(g, 2, 3)
    assert support_spy == [(g, "tensions", 2, 0), (g, "flows", 3, 0)]


def test_a_run_enumerates_each_integer_box_once(support_spy):
    # criteria 5 and 10 both read the integer (p, q) pair classes
    g = fixture("k3")
    with run_scope():
        first = integral_support_classes(g, 2, 3)
        assert integral_support_classes(g, 2, 3) == first
        integral_support_classes(g, 3, 3)
    assert support_spy == [(g, "tensions", 0, 2), (g, "flows", 0, 3), (g, "tensions", 0, 3)]


def test_a_run_computes_each_psi_kind_once(monkeypatch):
    # criterion 6 asks for psi and bar_psi, criterion 14 for all four
    # kinds, criterion 18 for psi;
    # each closed kind is its open kind reflected.  psi_z convolves a
    # graph of one block as it is, and otherwise its distinct blocks
    frontier = []
    convolutions = []
    real_terms = invariants.psi_terms
    real_convolutions = invariants._cyclic_flat_convolutions

    def terms_spy(g):
        frontier.append(g.fingerprint())
        return real_terms(g)

    def convolutions_spy(graphs, tension, flow):
        convolutions.append((tuple(g.fingerprint() for g in graphs), tension.__name__))
        return real_convolutions(graphs, tension, flow)

    def parts(g):
        found = graph.blocks(g)
        if len(found) < 2:
            return (g.fingerprint(),)
        relabelled = (invariants._relabelled(g.edges[e] for e in block) for block in found)
        return tuple(dict.fromkeys(part.fingerprint() for part in relabelled))

    monkeypatch.setattr(invariants, "psi_terms", terms_spy)
    monkeypatch.setattr(invariants, "_cyclic_flat_convolutions", convolutions_spy)
    # criterion 18's oracle holds its own reference
    monkeypatch.setattr(oracles, "_cyclic_flat_convolutions", convolutions_spy)
    assert all(res.passed for _, res in run_suite("reciprocity"))
    fixtures = [g.fingerprint() for _, g in all_fixtures()]
    ladder = [g.fingerprint() for _, g in small_ladder()]
    assert Counter(frontier) == Counter(fixtures + ladder)
    # psi_z in production; the modular convolution as criterion 18's oracle
    assert Counter(convolutions) == Counter(
        [(parts(g), "integral_tension_poly") for _, g in all_fixtures()]
        + [((fp,), "tension_poly") for fp in fixtures + ladder]
    )
    # p3, a path of two bridges, convolves one bridge
    assert parts(fixture("p3")) == ("v2:0-1",)


def _memo_watcher(monkeypatch, num):
    """Wrap criterion num so that it records the memo of its run, and
    how many entries that memo held when the criterion was done."""
    seen = []
    real = verification.CRITERIA[num]

    def watched():
        memo = config._RUN_MEMO.get()
        seen.append(memo)
        # charges nothing, so it is memoised even under a guard of 1
        g = fixture("k3")
        tensionflow._circuit_table(g, Orientation.reference(g))
        try:
            return real()
        finally:
            seen.append(len(memo))

    monkeypatch.setitem(verification.CRITERIA, num, watched)
    return seen


def test_the_memo_is_empty_once_the_run_returns(monkeypatch):
    seen = _memo_watcher(monkeypatch, 4)
    [(_, result)] = run_criteria([4])
    assert result.passed
    memo, entries = seen
    assert entries > 1
    assert memo == {}
    assert config._RUN_MEMO.get() is None


def test_the_memo_is_empty_once_a_criterion_is_refused(monkeypatch):
    seen = _memo_watcher(monkeypatch, 4)
    with guarded(1), pytest.raises(GuardExceeded):
        run_criteria([4])
    memo, entries = seen
    # every charge on the edgeless fixture e2 fits a guard of 1, so its
    # results are stored before a later fixture is refused
    assert entries > 1
    assert memo == {}
    assert config._RUN_MEMO.get() is None


@pytest.fixture
def walk_spy(monkeypatch):
    """The arguments of every window walk that is made, not read from a
    memo: (flips, tensions, bound, mode, window mask)."""
    walked = []
    real = tensionflow._integral_walk

    def spy(g, o, tensions, bound, mode, window):
        walked.append((o.flips, tensions, bound, mode, window and window.mask))
        return real(g, o, tensions, bound, mode, window)

    monkeypatch.setattr(tensionflow, "_integral_walk", spy)
    return walked


def test_a_run_walks_each_window_count_once(walk_spy):
    # over these (p, q) and quadrants tutte_value_triples asks for the
    # same count up to six times per class; a count is keyed with the
    # flips outside its window cleared
    g = fixture("k4")
    with run_scope():
        for p in (1, 2, 3):
            for q in (1, 2, 3):
                for quadrant in QUADRANTS:
                    tutte_value_triples(g, p, q, quadrant)
    assert walk_spy
    assert max(Counter(walk_spy).values()) == 1
    for flips, _, _, _, mask in walk_spy:
        assert not any(f and not mask >> e & 1 for e, f in enumerate(flips))


def test_outside_a_run_every_window_count_walks(walk_spy):
    g = fixture("k3")
    o = Orientation.reference(g)
    assert integral_window_counts(g, o, True, 3) == integral_window_counts(g, o, True, 3)
    assert len(walk_spy) == 2


def test_a_returned_window_count_list_is_the_callers_own(walk_spy):
    g = fixture("k3")
    o = Orientation.reference(g)
    with run_scope():
        counts = integral_window_counts(g, o, False, 3, "closed")
        want = list(counts)
        counts[-1] += 1
        assert integral_window_counts(g, o, False, 3, "closed") == want
    assert len(walk_spy) == 1


def test_a_run_builds_each_subset_rank_table_once(monkeypatch):
    built = []
    real = graph.check_state_space

    def spy(size, what="enumeration"):
        if what == "subset rank table":
            built.append((size, config.state_guard()))
        return real(size, what)

    monkeypatch.setattr(graph, "check_state_space", spy)
    graphs, guards = (fixture("k3"), fixture("k4")), (DEFAULT_STATE_GUARD, 10**6)
    with run_scope():
        for _ in range(2):
            for g in graphs:
                for guard in guards:
                    with guarded(guard):
                        assert len(subset_rank_table(g)) == 1 << g.edge_count
    # k3 and k4 differ in edge count, so the charge names the graph
    assert Counter(built) == Counter(
        (g.edge_count << g.edge_count, guard) for g in graphs for guard in guards
    )


def test_pair_integral_identities_read_the_same_in_a_warm_run():
    # the subset tallies and the images of their monomials are shared
    # across fixtures and group orders within a run
    orders = [(p, q) for p in (2, 3, 4) for q in (2, 3, 4)]
    fixtures = list(all_fixtures())
    with run_scope():
        for _, g in fixtures:
            for p, q in orders:
                verification.pair_integral_identities(g, p, q)
        warm = [verification.pair_integral_identities(g, p, q) for _, g in fixtures for p, q in orders]
    cold = [verification.pair_integral_identities(g, p, q) for _, g in fixtures for p, q in orders]
    assert warm == cold
    assert all(check.passed for checks, _ in cold for check in checks)


def test_a_run_tallies_and_counts_supports_once(monkeypatch, support_spy):
    # criterion 8 asks for each fixture's subset tallies at four (p, q);
    # criteria 1, 5, 7, 8 and 10 ask for the pair classes of many pairs
    # of groups, and criterion 13 for the nowhere-zero tensions over Z_1
    # to Z_(r+3) and flows over Z_1 to Z_(n+3); each cyclic group (a
    # factor of Z_2 x Z_2 included) and each box on each side is walked
    # once
    tallied = []
    real_tallies = verification._pair_subset_tallies.__wrapped__

    def tallies_spy(g):
        tallied.append(g)
        return real_tallies(g)

    monkeypatch.setattr(verification, "_pair_subset_tallies", config.memoised_in_run(tallies_spy))
    assert all(res.passed for _, res in run_criteria([1, 5, 7, 8, 10, 13]))
    assert Counter(tallied) == Counter(g for _, g in all_fixtures())
    assert support_spy
    assert max(Counter(support_spy).values()) == 1
    # the four (Z_p, Z_q) of criterion 8 share two groups per side
    k4 = fixture("k4")
    assert {(k4, side, m, 0) for m in (2, 3) for side in ("tensions", "flows")} <= set(support_spy)


def test_a_refused_support_product_keeps_the_counts(support_spy):
    # on K4 the 27 flows over Z_3 have 14 supports, the tensions over
    # Z_3 14 and over Z_2 8: at guard 112 the product with Z_3 tensions
    # is refused, naming the count at the ninth flow support, and the
    # product with Z_2 tensions reads the flow counts the refusals made
    g = fixture("k4")
    z2, z3 = FiniteAbelianGroup.cyclic(2), FiniteAbelianGroup.cyclic(3)
    with run_scope(), guarded(112):
        for _ in range(2):
            with pytest.raises(GuardExceeded, match="product needs 126 states, guard is 112$"):
                pair_support_classes(g, z3, z3)
        classes = pair_support_classes(g, z2, z3)
    assert support_spy == [(g, "tensions", 3, 0), (g, "flows", 3, 0), (g, "tensions", 2, 0)]
    assert classes == pair_support_classes(g, z2, z3)
    _, cover, _ = classes
    assert sum(cover.values()) == omega(g).evaluate(x=2, y=3)


def test_an_enumeration_refused_by_its_own_charge_is_refused_again():
    # the memoised support count does not keep what a refused read saw
    g = fixture("k4")
    z3 = FiniteAbelianGroup.cyclic(3)
    with run_scope(), guarded(20):
        for _ in range(2):
            with pytest.raises(GuardExceeded, match="tension enumeration needs 27 states"):
                pair_support_classes(g, z3, z3)


def test_a_run_fits_each_window_polynomial_once(monkeypatch):
    # criterion 4 asks for 528 window polynomials; equal counts share a
    # fit across orientations and graphs
    fitted = []
    real = invariants.interpolate_univariate

    def spy(samples, degree, var, **kwargs):
        fitted.append((tuple(samples), degree, var))
        return real(samples, degree, var, **kwargs)

    monkeypatch.setattr(invariants, "interpolate_univariate", spy)
    assert all(res.passed for _, res in run_criteria([4]))
    assert fitted
    assert max(Counter(fitted).values()) == 1
    fitted.clear()
    g = fixture("k3")
    o = Orientation.reference(g)
    assert kappa_rho(g, o, "open") == kappa_rho(g, o, "open")
    assert len(fitted) == 4

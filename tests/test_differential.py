"""Production routes against their oracles on random multigraphs.

The psi convolution over cyclic flats is compared with the orientation
sums it replaced, and the Tutte values of `tutte-values` with the
signed orientation triples, on hypothesis-generated multigraphs with
loops and parallel edges.  The graphs have at most six edges and a
nullity of at most 3, which keeps the test to a few seconds: both
routes enumerate integer flows in boxes that grow as a power of the
nullity, and at nullity 4 the orientation sums alone take about 2.5 s
for a triangle with doubled edges.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from tfpoly.graph import rank_nullity
from tfpoly.invariants import (
    PSI_KINDS,
    QUADRANTS,
    psi_by_orientations,
    psi_family,
    tutte_value,
    tutte_value_triples,
)

from graph_strategies import multigraphs

SMALL = multigraphs(max_edges=6).filter(lambda g: rank_nullity(g)[1] <= 3)


@settings(max_examples=40, deadline=None)
@given(SMALL)
def test_psi_family_matches_orientation_sums(g):
    for kind in PSI_KINDS:
        assert psi_family(g, kind) == psi_by_orientations(g, kind), kind


@settings(max_examples=40, deadline=None)
@given(SMALL, st.integers(1, 3), st.integers(1, 3))
def test_tutte_values_match_triples(g, p, q):
    for quadrant in QUADRANTS:
        assert tutte_value(g, p, q, quadrant) == tutte_value_triples(g, p, q, quadrant), quadrant

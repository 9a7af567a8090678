"""Graph file format: one `v n` line, then `e tail head` lines."""

from pathlib import Path

import pytest

from tfpoly.fixtures import fixture, fixture_names
from tfpoly.graphio import ParseError, format_graph, parse_graph_file, parse_graph_text

FIXTURE_FILES = Path(__file__).resolve().parent.parent / "fixtures"


def test_basic_parse():
    g = parse_graph_text("v 3\ne 0 1\ne 1 2\ne 0 2\n")
    assert g.vertex_count == 3
    assert g.edges == ((0, 1), (1, 2), (0, 2))


def test_comments_and_blank_lines():
    g = parse_graph_text("# triangle\n\nv 3\n# sides\ne 0 1\n\ne 1 2\ne 0 2\n")
    assert g.edge_count == 3


def test_loop_and_edgeless():
    assert parse_graph_text("v 1\ne 0 0\n").is_loop(0)
    assert parse_graph_text("v 2\n").edge_count == 0


def test_round_trip():
    text = "v 4\ne 0 1\ne 1 2\ne 2 2\n"
    g = parse_graph_text(text)
    assert parse_graph_text(format_graph(g)) == g


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("e 0 1\n", "before"),          # edge before the vertex line
        ("v 2\nv 3\n", "repeated"),     # second vertex line
        ("v 2\ne 0 5\n", "vertex 5"),   # head out of range
        ("v 2\ne 0\n", "tail"),         # wrong arity
        ("v two\n", "integer"),
        ("v 2\nq 1 2\n", "q"),          # unknown directive
        ("v -1\n", "negative"),
        ("", "missing"),                # empty input has no vertex line
    ],
)
def test_malformed_inputs(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_graph_text(text)
    assert fragment in str(err.value)


def test_error_carries_line_number():
    with pytest.raises(ParseError) as err:
        parse_graph_text("# ok\nv 2\ne 0 1\ne 9 0\n")
    assert "line 4" in str(err.value)


def test_parse_graph_file(tmp_path):
    path = tmp_path / "g.graph"
    path.write_text("v 2\ne 0 1\n")
    assert parse_graph_file(str(path)).edge_count == 1


def test_fixture_files_hold_the_built_in_fixtures():
    # the README examples and CI read the files, verify and the tests
    # read fixtures.FIXTURE_TEXTS: the two must hold the same graphs
    paths = sorted(FIXTURE_FILES.glob("*.graph"))
    assert [path.stem for path in paths] == sorted(fixture_names())
    for path in paths:
        assert parse_graph_file(str(path)) == fixture(path.stem), path.name

"""Every command on each graph family of `graph_families`, through
`cli.main`, at one pinned size: it answers at the default guard, and at
a small guard it answers or refuses with the one guard line."""

import json
import re

import pytest

from graph_families import FAMILIES
from tfpoly.algebra import MultiPoly
from tfpoly.cli import COMMANDS, main
from tfpoly.graphio import format_graph
from tfpoly.oracles import _tutte_recursion

SIZE = 5

FORMS = [
    ["tutte"],
    ["whitney"],
    ["omega"],
    ["omega", "--via", "arrangement"],
    ["omega", "--via", "brute", "--p", "2", "--q", "3"],
    ["tension"],
    ["flow"],
    ["chromatic"],
    ["kappa"],
    ["kappa", "--integral"],
    ["psi"],
    ["psi", "--integral", "--dual"],
    ["classify-orientations"],
    ["tutte-values", "--p", "2", "--q", "3", "--quadrant=-+"],
]


def test_the_forms_cover_every_graph_command():
    graph_commands = {name for name, (_, takes_graph, _) in COMMANDS.items() if takes_graph}
    assert {form[0] for form in FORMS} == graph_commands


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_command_answers_on_the_family(family, tmp_path, capsys):
    g = FAMILIES[family](SIZE)
    path = tmp_path / f"{family}.graph"
    path.write_text(format_graph(g))
    for form in FORMS:
        assert main([*form, "--json", str(path)]) == 0, form
        captured = capsys.readouterr()
        assert captured.err == ""
        payload = json.loads(captured.out)
        if form == ["tutte"]:
            got = MultiPoly.from_json(payload["variables"], payload["poly"])
            assert got == _tutte_recursion(g)


# the exit code of each form, in FORMS order, at a guard of 5: the
# edgeless graph charges nothing; on five loops the modular psi (and so
# kappa) factors the loops out and sums over no edge, and the
# orientation class key charges 2^0 x (5 + 0) = 5 states.  tutte-values
# is charged one state per state of each layer: a path, a star or five
# loops keeps one state a layer, 5 in all
AT_GUARD_5 = {
    "path": "2" * 13 + "0",
    "cycle": "2" * 14,
    "star": "2" * 13 + "0",
    "parallel_class": "2" * 14,
    "loops": "22222222020200",
    "k4_and_isolated": "2" * 14,
    "isolated": "0" * 14,
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_every_command_answers_or_refuses_a_small_guard(family, tmp_path, capsys):
    path = tmp_path / f"{family}.graph"
    path.write_text(format_graph(FAMILIES[family](SIZE)))
    for form, want in zip(FORMS, AT_GUARD_5[family]):
        code = main(["--guard", "5", *form, str(path)])
        captured = capsys.readouterr()
        assert code == int(want), form
        if code == 2:
            assert captured.out == ""
            assert re.fullmatch(r"error: [^\n]+ needs \d+ states, guard is 5\n", captured.err), form
        else:
            assert code == 0, form
            assert captured.out and captured.err == ""

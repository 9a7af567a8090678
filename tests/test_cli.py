"""End-to-end command line tests, run in process through main()."""

import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graph_families import petersen
import tfpoly
from tfpoly import cli, invariants, oracles, verification
from tfpoly.algebra import MultiPoly
from tfpoly.config import SUITES, GuardExceeded, guarded
from tfpoly.cli import COMMANDS, build_parser, main
from tfpoly.fixtures import FIXTURE_TEXTS, fixture
from tfpoly.graph import MultiGraph, subset_rank_table
from tfpoly.graphio import format_graph
from tfpoly.invariants import psi_family, tension_poly, tutte
from tfpoly.oracles import _tutte_recursion


def grid(rows: int, cols: int) -> MultiGraph:
    edges = [
        (r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)
    ] + [((r - 1) * cols + c, r * cols + c) for r in range(1, rows) for c in range(cols)]
    return MultiGraph(rows * cols, tuple(edges))


@pytest.fixture
def graph_file(tmp_path):
    def write(name: str) -> str:
        path = tmp_path / f"{name}.graph"
        path.write_text(FIXTURE_TEXTS[name])
        return str(path)

    return write


def test_tutte_text_output(graph_file, capsys):
    assert main(["tutte", graph_file("k3")]) == 0
    assert capsys.readouterr().out.strip() == "x^2 + x + y"


def test_tutte_default_route_reaches_k7(tmp_path, capsys):
    # 21 edges: the subset expansion would need 2^21 x 21 states, over
    # the default guard; the default route does not build it
    path = tmp_path / "k7.graph"
    path.write_text(format_graph(MultiGraph(7, tuple(itertools.combinations(range(7), 2)))))
    assert main(["--json", "tutte", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    poly = MultiPoly.from_json(payload["variables"], payload["poly"])
    assert poly.evaluate(x=1, y=1) == 7**5  # Cayley: spanning trees of K7


def test_tutte_answers_a_long_path(tmp_path, capsys):
    # the shift of R = (x + 1)^3000 is charged 4,501,500 states, within
    # the default guard, and takes additions only
    path = tmp_path / "path.graph"
    path.write_text(format_graph(MultiGraph(3001, tuple((i, i + 1) for i in range(3000)))))
    started = time.perf_counter()
    assert main(["tutte", str(path)]) == 0
    assert time.perf_counter() - started < 10
    assert capsys.readouterr().out == "x^3000\n"


@pytest.mark.parametrize(
    ("command", "guard", "what"),
    # the recursion is an oracle with no command of its own: None calls it
    [(None, "100000", "Tutte deletion-contraction")]
    # the frontier sum charges the 5x5 grid 38,753 states in all
    + [([c], "10000", "Whitney frontier sum") for c in ("whitney", "tension", "flow", "chromatic")],
    ids=["tutte", "whitney", "tension", "flow", "chromatic"],
)
def test_recursion_guard_refuses_grid(tmp_path, capsys, command, guard, what):
    started = time.perf_counter()
    if command is None:
        with pytest.raises(GuardExceeded) as refused:
            with guarded(int(guard)):
                _tutte_recursion(grid(5, 5))
        err = f"error: {refused.value}"
    else:
        path = tmp_path / "grid.graph"
        path.write_text(format_graph(grid(5, 5)))
        assert main([*command, "--guard", guard, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
    assert time.perf_counter() - started < 30
    assert err.startswith(f"error: {what} needs")
    assert f"guard is {guard}" in err


def test_default_route_reaches_the_6x6_grid(tmp_path, capsys):
    # the deletion-contraction memo refused this grid at the default
    # guard after 16 s; the frontier holds at most 132 partitions
    path = tmp_path / "grid6.graph"
    path.write_text(format_graph(grid(6, 6)))
    started = time.perf_counter()
    assert main(["--json", "tutte", str(path)]) == 0
    assert time.perf_counter() - started < 10
    payload = json.loads(capsys.readouterr().out)
    poly = MultiPoly.from_json(payload["variables"], payload["poly"])
    assert poly.evaluate(x=2, y=2) == 2**60
    assert poly.evaluate(x=1, y=1) == 32565539635200  # spanning trees (Kirchhoff)


def test_default_omega_reaches_k8(tmp_path, capsys):
    # 28 edges: the 2^E subset table would need 7.5 * 10^9 states
    path = tmp_path / "k8.graph"
    path.write_text(format_graph(MultiGraph(8, tuple(itertools.combinations(range(8), 2)))))
    started = time.perf_counter()
    assert main(["--json", "omega", str(path)]) == 0
    assert time.perf_counter() - started < 10
    payload = json.loads(capsys.readouterr().out)
    poly = MultiPoly.from_json(payload["variables"], payload["poly"])
    # over a one-element flow group the tension must be nowhere zero:
    # omega(t, 1) is K8's tension polynomial, P(K8; t) / t
    assert [poly.evaluate(x=t, y=1) for t in (7, 8, 9)] == [0, 5040, 40320]


def test_omega_brute_on_loop(graph_file, capsys):
    rc = main(["omega", "--via", "brute", "--p", "2", "--q", "3", graph_file("loop")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "2"


def test_omega_evaluated_at_orders(graph_file, capsys):
    rc = main(["omega", "--p", "2", "--q", "2", graph_file("k3")])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "4"


def test_chromatic_text_output(graph_file, capsys):
    assert main(["chromatic", graph_file("k3")]) == 0
    assert capsys.readouterr().out.strip() == "t^3 - 3*t^2 + 2*t"


def test_kappa_text_output(graph_file, capsys):
    assert main(["kappa", graph_file("k3")]) == 0
    assert capsys.readouterr().out.strip() == "x^2 - 3*x + y + 1"


def test_json_payload_round_trips(graph_file, capsys):
    path = graph_file("k3")
    assert main(["--json", "tutte", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["invariant"] == "tutte"
    assert payload["graph"] == path
    back = MultiPoly.from_json(payload["variables"], payload["poly"])
    x, y = MultiPoly.var("x"), MultiPoly.var("y")
    assert back == x**2 + x + y


def test_json_flag_position_is_irrelevant(graph_file, capsys):
    path = graph_file("k3")
    assert main(["--json", "tutte", path]) == 0
    before = capsys.readouterr().out
    assert main(["tutte", "--json", path]) == 0
    assert capsys.readouterr().out == before


def test_json_keeps_rational_coefficients_exact(graph_file, capsys):
    path = graph_file("k4me")
    assert main(["psi", "--integral", "--json", path]) == 0
    raw = capsys.readouterr().out
    assert '"14/3"' in raw
    payload = json.loads(raw)
    back = MultiPoly.from_json(payload["variables"], payload["poly"])
    assert back == psi_family(fixture("k4me"), "psi_z")


def test_quadrant_values(graph_file, capsys):
    path = graph_file("k3")
    for quadrant, want in (("++", "8"), ("-+", "4"), ("+-", "4"), ("--", "0")):
        rc = main(["tutte-values", "--p", "2", "--q", "2", f"--quadrant={quadrant}", path])
        assert rc == 0
        assert capsys.readouterr().out.strip() == want


def test_missing_file_is_input_error(capsys):
    assert main(["tutte", "/no/such/file.graph"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_malformed_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_text("v 2\ne 0 5\n")
    assert main(["tutte", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "vertex 5" in err


def test_running_out_of_memory_is_an_input_error(graph_file, capsys, monkeypatch):
    def exhausted(g):
        raise MemoryError

    monkeypatch.setattr(cli, "tutte", exhausted)
    assert main(["tutte", graph_file("k3")]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: memory ran out\n")


def test_brute_requires_group_orders(graph_file, capsys):
    assert main(["omega", "--via", "brute", graph_file("k3")]) == 2
    assert "needs --p and --q" in capsys.readouterr().err


@pytest.mark.parametrize("orders", [["--p", "2"], ["--q", "3"]], ids=["p", "q"])
def test_omega_takes_both_group_orders_or_neither(graph_file, capsys, orders):
    # one order alone used to be ignored: the polynomial was printed
    assert main(["omega", *orders, graph_file("k3")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --p and --q must be given together\n"


def test_verify_single_suite(capsys):
    assert main(["verify", "--suite", "whitney"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("PASS criterion 7:")


def test_verify_json_payload(capsys):
    assert main(["--json", "verify", "--suite", "integrals"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    assert [row["criterion"] for row in payload["results"]] == [8]
    assert all(row["passed"] for row in payload["results"])


def test_verify_prints_a_failing_criterion_with_its_details(monkeypatch, capsys):
    real = verification.whitney_weighted_sums

    def off_by_one(g, p, q):
        return tuple(v + 1 for v in real(g, p, q))

    monkeypatch.setattr(verification, "whitney_weighted_sums", off_by_one)
    assert main(["verify", "--suite", "whitney"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == (
        "FAIL criterion 7: weighted complementary sums reproduce the "
        "corank-nullity polynomial at (p,q) and (-p,-q)"
    )
    # e2 has corank-nullity polynomial 1
    assert lines[1:3] == [
        "    e2 (2,2): weighted sum 2, polynomial 1",
        "    e2 (2,2): signed sum 2, polynomial 1",
    ]
    # two sums at nine (p, q) on each of the ten fixtures, then the
    # suite's other criteria, which pass
    details = 2 * 9 * len(FIXTURE_TEXTS)
    assert len(lines) == 1 + details + 2
    assert all(line.startswith("    ") for line in lines[1 : 1 + details])
    assert lines[-2].startswith("PASS criterion 17:")
    assert lines[-1].startswith("PASS criterion 19:")


def test_verify_rejects_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "everything"])
    assert exc.value.code == 2


def test_jobs_flag_is_gone(graph_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--jobs", "2", graph_file("k3")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


def test_psi_scan_is_charged_in_states(tmp_path, capsys):
    # psi --integral scans each block's non-loop edges for cyclic flats
    # and charges 2^E' x E' states, 2^24 x 24 for the 24-edge cycle here:
    # the loop is a block of its own.  Plain psi is a frontier sum and
    # finishes the same graph; the cycle's cyclic flats are the empty set
    # and the whole cycle, and the loop adds a factor w(y - 1)
    path = tmp_path / "long.graph"
    cycle = tuple((i, (i + 1) % 24) for i in range(24))
    path.write_text(format_graph(MultiGraph(24, cycle + ((0, 0),))))
    assert main(["psi", "--integral", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cyclic flat scan needs 402653184 states, guard is 10000000\n"
    assert main(["psi", str(path)]) == 0
    x, y, z, w = (MultiPoly.var(v) for v in "xyzw")
    tau = tension_poly(MultiGraph(24, cycle), "x")
    assert capsys.readouterr().out == f"{(z**24 * tau + w**24 * (y - 1)) * w * (y - 1)}\n"


@pytest.mark.parametrize(
    ("edges", "factor"),
    [
        # a bridge is the block 2z(x - 1), a loop the block 2w(y - 1)
        (tuple((i, i + 1) for i in range(200)), lambda x, y, z, w: 2 * z * (x - 1)),
        (((0, 0),) * 8, lambda x, y, z, w: 2 * w * (y - 1)),
    ],
    ids=["path-200", "loops-8"],
)
def test_psi_integral_answers_a_product_of_small_blocks(tmp_path, capsys, edges, factor):
    path = tmp_path / "blocks.graph"
    path.write_text(format_graph(MultiGraph(max(map(max, edges)) + 1, edges)))
    block = factor(*(MultiPoly.var(v) for v in "xyzw"))
    assert main(["psi", "--integral", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == f"{block ** len(edges)}\n"


def test_psi_integral_charges_the_block_product(tmp_path, capsys):
    # the product of k bridges, k + 1 terms, is multiplied by the next
    # bridge's 2 terms: 2 x (2 + 3 + ... + 200) = 40,198 states in all
    path = tmp_path / "path.graph"
    path.write_text(format_graph(MultiGraph(201, tuple((i, i + 1) for i in range(200)))))
    assert main(["psi", "--integral", "--guard", "40198", str(path)]) == 0
    capsys.readouterr()
    assert main(["psi", "--integral", "--guard", "40197", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: psi block product needs 40198 states, guard is 40197\n"


@pytest.mark.parametrize(
    "command",
    [
        ["omega", "--via", "arrangement"],
        ["psi"],
        ["psi", "--integral"],
        ["classify-orientations"],
    ],
    ids=["omega-arrangement", "psi", "psi-integral", "classify-orientations"],
)
def test_env_guard_reaches_every_scan(graph_file, capsys, monkeypatch, command):
    monkeypatch.setenv("TFPOLY_GUARD", "100")
    assert main([*command, graph_file("k4")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.search(r"needs \d+ states, guard is 100$", captured.err)


# each graph command with the flags it needs, on K4, and each suite
EVERY_REQUEST = [
    [name, *(["--p", "2", "--q", "3"] if name == "tutte-values" else []), "K4"]
    for name, (_, takes_graph, _) in COMMANDS.items()
    if takes_graph
] + [["verify", "--suite", suite] for suite in sorted(SUITES)]


@pytest.mark.parametrize("request_argv", EVERY_REQUEST, ids=" ".join)
@pytest.mark.parametrize("given", ["flag", "env"])
def test_every_command_refuses_a_small_guard(graph_file, capsys, monkeypatch, request_argv, given):
    # the guard reaches every command, given as --guard or TFPOLY_GUARD:
    # exit 2, nothing on stdout, one error line
    argv = [graph_file("k4") if arg == "K4" else arg for arg in request_argv]
    if given == "flag":
        argv = ["--guard", "5", *argv]
    else:
        monkeypatch.setenv("TFPOLY_GUARD", "5")
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]+ needs \d+ states, guard is 5\n", captured.err)


def test_subset_table_guard_counts_states():
    with guarded(5), pytest.raises(GuardExceeded) as refused:
        subset_rank_table(fixture("k4"))
    assert str(refused.value) == "subset rank table needs 384 states, guard is 5"


@pytest.mark.parametrize(
    "command",
    [["tutte", "--route", "recursion"], ["omega", "--via", "expansion"]],
    ids=["tutte-route", "omega-expansion"],
)
def test_oracle_routes_are_not_commands(graph_file, capsys, command):
    with pytest.raises(SystemExit) as exited:
        main([*command, graph_file("k4")])
    assert exited.value.code == 2
    assert capsys.readouterr().out == ""


def test_frontier_guard_counts_states(graph_file, capsys):
    # K4's omega frontier makes 70 states and terms in all
    assert main(["omega", "--guard", "70", graph_file("k4")]) == 0
    capsys.readouterr()
    assert main(["omega", "--guard", "69", graph_file("k4")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: omega frontier sum needs 70 states, guard is 69\n"


def test_psi_frontier_guard_counts_states(graph_file, capsys):
    # K4's psi frontier makes 174 states and terms in all; the layers
    # made before the sum crosses a guard of 100 hold 102
    assert main(["psi", "--guard", "174", graph_file("k4")]) == 0
    capsys.readouterr()
    for guard, spent in ((173, 174), (100, 102)):
        assert main(["psi", "--guard", str(guard), graph_file("k4")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: psi frontier sum needs {spent} states, guard is {guard}\n"


def test_psi_factors_out_loops(tmp_path, capsys):
    # each loop is the factor w(y - 1), so 8 loops at one vertex make no
    # frontier state at all; summed over their roles they made 126
    path = tmp_path / "loops.graph"
    path.write_text(format_graph(MultiGraph(1, ((0, 0),) * 8)))
    assert main(["psi", "--guard", "100", str(path)]) == 0
    assert capsys.readouterr().out == (
        "y^8*w^8 - 8*y^7*w^8 + 28*y^6*w^8 - 56*y^5*w^8 + 70*y^4*w^8"
        " - 56*y^3*w^8 + 28*y^2*w^8 - 8*y*w^8 + w^8\n"
    )


def test_psi_reaches_k7(tmp_path, capsys):
    # 21 edges: the cyclic flat scan would need 2^21 x 21 states, over
    # the default guard; the frontier sum does not scan
    k7 = MultiGraph(7, tuple(itertools.combinations(range(7), 2)))
    path = tmp_path / "k7.graph"
    path.write_text(format_graph(k7))
    started = time.perf_counter()
    for command in (["psi"], ["psi", "--dual"], ["kappa"]):
        assert main(["--json", *command, str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        if command == ["psi"]:
            psi = MultiPoly.from_json(payload["variables"], payload["poly"])
    assert time.perf_counter() - started < 10
    x = MultiPoly.var("x")
    falling = MultiPoly.const(1)
    for k in range(1, 7):
        falling = falling * (x - k)
    assert psi.substitute({"z": 1, "w": 0}) == falling
    assert psi.substitute({"z": 0, "w": 1}) == invariants.flow_poly(k7, "y")


def test_class_key_reaches_k5_plus_two(tmp_path, capsys):
    # 12 non-loop edges: the move closure would have visited 2^12
    # orientations times 2^12 circuit masks
    g = MultiGraph(5, tuple(itertools.combinations(range(5), 2)) + ((0, 1), (2, 3)))
    path = tmp_path / "k5pp.graph"
    path.write_text(format_graph(g))
    assert main(["classify-orientations", str(path)]) == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(rows) == tutte(g).evaluate(x=1, y=1)
    assert sum(row["size"] for row in rows) == 2**12


def test_class_key_refuses_k7_quickly(tmp_path, capsys):
    # 2^21 orientations, each charged for 21 edges and a key of rank 6
    path = tmp_path / "k7.graph"
    path.write_text(format_graph(MultiGraph(7, tuple(itertools.combinations(range(7), 2)))))
    started = time.perf_counter()
    assert main(["classify-orientations", str(path)]) == 2
    assert time.perf_counter() - started < 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: orientation class key needs 56623104 states")


def test_class_key_ignores_isolated_vertices(tmp_path, capsys):
    # an isolated vertex owns no key coordinate and adds nothing to the
    # rank that the key pass is charged for, so 4,000 or 200,000 of them
    # cost only the passes that find the components: the classes are
    # those of the graph without them
    k4 = tuple(itertools.combinations(range(4), 2))
    for vertices, edges, classes in ((4002, ((0, 1),), 1), (200_004, k4, 16)):
        outputs = []
        for g in (MultiGraph(vertices, edges), MultiGraph(1 + max(map(max, edges)), edges)):
            path = tmp_path / "sparse.graph"
            path.write_text(format_graph(g))
            started = time.perf_counter()
            assert main(["classify-orientations", str(path)]) == 0
            assert time.perf_counter() - started < 2
            outputs.append([json.loads(line) for line in capsys.readouterr().out.splitlines()])
        assert len(outputs[0]) == classes
        assert outputs[0] == outputs[1]
    assert outputs[0][0] == {"representative": [0] * 6, "size": 4, "b_size": 6, "c_size": 0}


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.graph"
    path.write_text(format_graph(MultiGraph(5, tuple(itertools.combinations(range(5), 2)))))
    return str(path)


@pytest.mark.parametrize(
    ("g", "count"),
    [(petersen(), 2000), (MultiGraph(6, tuple(itertools.combinations(range(6), 2))), 1296)],
    ids=["petersen", "k6"],
)
def test_classify_orientations_reaches_15_edges(tmp_path, capsys, g, count):
    path = tmp_path / "g.graph"
    path.write_text(format_graph(g))
    started = time.perf_counter()
    assert main(["--json", "classify-orientations", str(path)]) == 0
    assert time.perf_counter() - started < 10
    rows = json.loads(capsys.readouterr().out)["classes"]
    assert len(rows) == count
    assert sum(row["size"] for row in rows) == 2**15


PETERSEN_AND_K6 = pytest.mark.parametrize(
    "g",
    [petersen(), MultiGraph(6, tuple(itertools.combinations(range(6), 2)))],
    ids=["petersen", "k6"],
)


@PETERSEN_AND_K6
def test_arrangement_route_reaches_15_edges(tmp_path, capsys, g):
    # 11,693 and 15,203 flats: an F^2 containment table would need over
    # 10^8 entries, the Mobius pass meets about 10^6 comparable pairs
    path = tmp_path / "g.graph"
    path.write_text(format_graph(g))
    started = time.perf_counter()
    assert main(["--json", "omega", "--via", "arrangement", str(path)]) == 0
    assert time.perf_counter() - started < 10
    via_arrangement = capsys.readouterr().out
    assert main(["--json", "omega", str(path)]) == 0
    assert via_arrangement == capsys.readouterr().out


@PETERSEN_AND_K6
def test_arrangement_route_charges_comparable_pairs(tmp_path, capsys, g):
    # the 2^15 x 15 flat scan fits this guard, the comparable pairs do not
    path = tmp_path / "g.graph"
    path.write_text(format_graph(g))
    assert main(["omega", "--via", "arrangement", "--guard", "500000", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.match(
        r"error: flat containment table needs \d+ states, guard is 500000$", captured.err
    )


def test_arrangement_route_reaches_k5(k5_file, capsys):
    # 429 flats and 7,935 comparable pairs
    assert main(["--json", "omega", "--via", "arrangement", k5_file]) == 0
    via_arrangement = capsys.readouterr().out
    assert main(["--json", "omega", k5_file]) == 0
    assert via_arrangement == capsys.readouterr().out


def test_psi_reaches_k5(k5_file, capsys):
    assert main(["--json", "psi", k5_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    poly = MultiPoly.from_json(payload["variables"], payload["poly"])
    # z = 1, w = 0 leaves the tension polynomial (t-1)(t-2)(t-3)(t-4)
    assert poly.evaluate(x=5, y=0, z=1, w=0) == 24


def test_integral_psi_reaches_k5(k5_file, capsys):
    started = time.perf_counter()
    assert main(["--json", "psi", "--integral", k5_file]) == 0
    assert time.perf_counter() - started < 10
    payload = json.loads(capsys.readouterr().out)
    poly = MultiPoly.from_json(payload["variables"], payload["poly"])
    # up to a shift, a nowhere-zero integer tension with |f| < t is five
    # distinct potentials of span < t: 5! C(t - 1, 4) of them
    t = MultiPoly.var("x")
    assert poly.substitute({"z": 1, "w": 0}) == 5 * (t - 1) * (t - 2) * (t - 3) * (t - 4)
    g = MultiGraph(5, tuple(itertools.combinations(range(5), 2)))
    for p, q in ((2, 2), (2, 3), (3, 2)):
        want = oracles.integral_complementary_count(g, p, q)
        assert poly.evaluate(x=p, y=q, z=1, w=1) == want


def test_integral_psi_refuses_k6_before_counting_a_minor(tmp_path, capsys, monkeypatch):
    # the flow box of K6 itself (nullity 10) is the largest: the counter
    # walks half of the first free value and all but the last of the
    # others; it is charged before any smaller minor is counted
    path = tmp_path / "k6.graph"
    path.write_text(format_graph(MultiGraph(6, tuple(itertools.combinations(range(6), 2)))))
    outcomes = []
    count = invariants.integral_window_counts

    def spy(*args, **kwargs):
        try:
            counts = count(*args, **kwargs)
        except GuardExceeded:
            outcomes.append("refused")
            raise
        outcomes.append("counted")
        return counts

    monkeypatch.setattr(invariants, "integral_window_counts", spy)
    assert main(["psi", "--integral", str(path)]) == 2
    assert outcomes == ["refused"]
    want = f"error: integral flow enumeration needs {12 * 24**8} states"
    assert capsys.readouterr().err.startswith(want)


def test_integral_psi_factors_out_loops(tmp_path, capsys):
    # each loop multiplies the integral flow polynomial by 2(t - 1); with
    # the loops in the flow box, both graphs needed 16^6 states
    six_loops = tmp_path / "six_loops.graph"
    six_loops.write_text(format_graph(MultiGraph(1, ((0, 0),) * 6)))
    mixed = tmp_path / "mixed.graph"
    mixed.write_text(format_graph(MultiGraph(2, ((0, 1),) * 5 + ((0, 0), (1, 1)))))
    commands = (["psi", "--integral"], ["kappa", "--integral"], ["psi", "--integral", "--dual"])
    for path, command in itertools.product((six_loops, mixed), commands):
        assert main([*command, str(path)]) == 0, (path.name, command)
        capsys.readouterr()
    assert main(["--json", "psi", "--integral", str(six_loops)]) == 0
    payload = json.loads(capsys.readouterr().out)
    poly = MultiPoly.from_json(payload["variables"], payload["poly"])
    y, w = MultiPoly.var("y"), MultiPoly.var("w")
    assert poly == (2 * (y - 1)) ** 6 * w**6


def test_omega_brute_charges_enumerations_not_pairs(k5_file, capsys):
    # 6^4 tensions, 6^6 flows and 52 x 314 distinct support pairs fit the
    # default guard; the 6^10 pairs they count would not
    command = ["omega", "--via", "brute", "--p", "6", "--q", "6"]
    assert main([*command, k5_file]) == 0
    assert capsys.readouterr().out.strip() == "45570190"
    assert main([*command, "--guard", "1000", k5_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: tension enumeration needs 1296 states, guard is 1000"


def test_tutte_values_reach_k7(tmp_path, capsys):
    # 21 non-loop edges: far beyond any orientation enumeration
    path = tmp_path / "k7.graph"
    path.write_text(format_graph(MultiGraph(7, tuple(itertools.combinations(range(7), 2)))))
    assert main(["tutte-values", "--p", "1", "--q", "1", str(path)]) == 0
    assert capsys.readouterr().out.strip() == str(7**5)


def test_tutte_values_rejects_non_positive_orders(graph_file, capsys):
    assert main(["tutte-values", "--p", "0", "--q", "2", graph_file("k3")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == "error: p and q must be positive"


def test_guard_env_variable(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("TFPOLY_GUARD", "2")
    path = graph_file("k3")
    rc = main(["omega", "--via", "brute", "--p", "2", "--q", "2", path])
    assert rc == 2
    assert "guard" in capsys.readouterr().err


def test_guard_env_variable_must_be_an_integer(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("TFPOLY_GUARD", "abc")
    assert main(["tutte", graph_file("k3")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: TFPOLY_GUARD must be an integer, not 'abc'\n"


@pytest.mark.parametrize(("flag", "env", "message"), [
    (["--guard", "0"], None, "guard must be positive, not 0"),
    (["--guard", "-5"], None, "guard must be positive, not -5"),
    (["--guard=-5"], None, "guard must be positive, not -5"),
    ([], "0", "TFPOLY_GUARD must be positive, not '0'"),
    ([], "-3", "TFPOLY_GUARD must be positive, not '-3'"),
])
def test_guard_must_be_positive(graph_file, capsys, monkeypatch, flag, env, message):
    if env is not None:
        monkeypatch.setenv("TFPOLY_GUARD", env)
    assert main([*flag, "psi", graph_file("k3")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_guard_flag_beats_env(graph_file, capsys, monkeypatch):
    monkeypatch.setenv("TFPOLY_GUARD", "2")
    path = graph_file("k3")
    rc = main(
        ["--guard", "1000000", "omega", "--via", "brute", "--p", "2", "--q", "2", path]
    )
    assert rc == 0
    assert capsys.readouterr().out.strip() == "4"


def test_classify_orientations_lines(graph_file, capsys):
    assert main(["classify-orientations", graph_file("k3")]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    rows = [json.loads(line) for line in lines]
    assert sorted(row["size"] for row in rows) == [2, 3, 3]
    for row in rows:
        assert row["b_size"] + row["c_size"] == 3
        assert len(row["representative"]) == 3


# shared flags before or after the command, exact and in other spellings
SHARED_FLAGS = ([], ["--json"], ["--guard", "7"], ["--guard=7"], ["--guard", "-5"], ["--json", "--guard=7"])
OWN_ARGS = {
    "omega": [[], ["--via", "brute", "--p", "2", "--q", "3"], ["--vi", "arrangement"]],
    "kappa": [[], ["--integral"], ["--int"]],
    "psi": [[], ["--integral", "--dual"], ["--int", "--du"]],
    "tutte-values": [["--p", "2", "--q", "3", "--quadrant=--"], ["--p", "2", "--q", "3", "--quadrant", "+-"]],
    "verify": [[], ["--suite", "whitney"], ["--su", "all"]],
}


def _corpus(command):
    graph = ["g.graph"] if COMMANDS[command][1] else []
    for before, after, own in itertools.product(SHARED_FLAGS, SHARED_FLAGS, OWN_ARGS.get(command, [[]])):
        yield [*before, command, *own, *after, *graph]


def _check_read_as_the_full_parser(argv):
    """Whatever `_read_argv` reads, argparse parses to the same namespace."""
    read = cli._read_argv(argv)
    if read is None:
        return
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            parsed = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"{argv}: read, but argparse exits")
    if getattr(parsed, "quadrant", None) == []:
        parsed.quadrant = "--"
    assert read == parsed, argv


@pytest.mark.parametrize("command", list(COMMANDS))
def test_one_command_parser_reads_argv_as_the_full_parser(command):
    # the plainest argv of each command is read without argparse
    assert cli._read_argv(next(_corpus(command))) is not None
    for argv in _corpus(command):
        _check_read_as_the_full_parser(argv)


# each is read as argparse reads it, or left to argparse
CORPUS = [
    ["tutte-values", "--p", "2", "--q", "3", "--quadrant", "-+", "g.graph"],
    ["tutte-values", "--p", "2", "--q", "3", "--quadrant=-+", "g.graph"],
    ["tutte-values", "--p", "2", "--quadrant", "+-", "g.graph"],
    ["tutte-values", "--p", "2", "--q", "3", "--quadrant", "xx", "g.graph"],
    ["psi", "--json=1", "g.graph"],
    ["--json", "--guard=abc", "psi", "g.graph"],
    ["omega", "--p", "-5", "--q", "3", "g.graph"],
    ["omega", "--", "g.graph"],
    ["verify", "g.graph"],
]

# values in and out of each flag's type and choices, one that starts
# with "-", and "--"
VALUES = ["7", "-5", "0", "abc", "", "--", "frontier", "brute", "nope", "++", "-+", "all", "whitney"]
FLAGS = [flag for _, _, own in COMMANDS.values() for flag, _ in own] + [flag for flag, _ in cli.COMMON]
# pieces no well-formed argv of the command holds: a flag of another
# command, abbreviations, help, "--", "-5" and stray positionals
NOISE = st.one_of(
    st.tuples(st.sampled_from(FLAGS)),
    st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)),
    st.sampled_from([("--gu", "7"), ("--int",), ("--du",), ("--vi", "brute"), ("--qua=--",), ("-h",), ("--help",)]),
    st.sampled_from([("--",), ("-5",), ("g.graph",), ("tut",), ("--json=1",), *((c,) for c in COMMANDS)]),
)


def _piece(draw, flag, kwargs):
    """flag in either spelling, mostly with a value it takes."""
    if kwargs.get("action") == "store_true":
        return draw(st.sampled_from([(flag,), (flag,), (f"{flag}=1",)]))
    valid = st.sampled_from(kwargs.get("choices", ("7", "-5")))
    value = draw(st.one_of(valid, valid, st.sampled_from(VALUES)))
    return draw(st.sampled_from([(flag, value), (f"{flag}={value}",)]))


@st.composite
def argvs(draw):
    """A command with shared flags on either side, its own flags (the
    required ones mostly) and its graph after it, in any order and
    spelling, and at times a noisy piece anywhere."""
    command = draw(st.sampled_from(list(COMMANDS)))
    _, takes_graph, own = COMMANDS[command]

    def shared():
        return [_piece(draw, *draw(st.sampled_from(cli.COMMON))) for _ in range(draw(st.integers(0, 2)))]

    after = shared() + [("g.graph",)] * takes_graph
    after += [_piece(draw, f, kw) for f, kw in own if draw(st.integers(0, 4)) > (0 if kw.get("required") else 2)]
    pieces = [*shared(), (command,), *draw(st.permutations(after))]
    for piece in draw(st.lists(NOISE, max_size=1)):
        pieces.insert(draw(st.integers(0, len(pieces))), piece)
    return [token for piece in pieces for token in piece]


def _with_corpus(test):
    for argv in CORPUS:
        test = example(argv)(test)
    return test


@settings(max_examples=400, deadline=None)
@_with_corpus
@given(argvs())
def test_read_argv_equals_the_full_parser(argv):
    _check_read_as_the_full_parser(argv)


def _run_main(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


HELP_AND_ERRORS = [
    [],
    ["--help"],
    *([command, "--help"] for command in COMMANDS),
    ["psi"],
    ["--guard", "abc", "psi", "g.graph"],
    ["psi", "--foo", "g.graph"],
    ["psi", "g.graph", "extra"],
    ["--guard", "--json", "psi", "g.graph"],
    ["nope", "g.graph"],
    ["tut", "g.graph"],
]


@pytest.mark.parametrize("argv", HELP_AND_ERRORS, ids=" ".join)
def test_main_answers_help_and_usage_errors_as_the_full_parser(capsys, monkeypatch, argv):
    got = _run_main(argv, capsys)
    assert got[0] in (0, 2)
    monkeypatch.setattr(cli, "_read_argv", lambda argv: None)
    assert _run_main(argv, capsys) == got


# argparse leaves [] for a value "--" given after an equals sign; it is
# the value "--" for --quadrant (`test_quadrant_values`) and a usage
# error for every other flag
DASH_VALUES = [
    ["omega", "--p=--", "--q=2", "GRAPH"],
    ["--guard=--", "psi", "GRAPH"],
    ["tutte-values", "--p=--", "--q", "2", "GRAPH"],
    ["verify", "--suite=--"],
    ["omega", "--via=--", "GRAPH"],
]


@pytest.mark.parametrize("argv", DASH_VALUES, ids=" ".join)
def test_a_dash_value_is_a_usage_error(graph_file, capsys, argv):
    [flag] = [token[:-3] for token in argv if token.endswith("=--")]
    argv = [graph_file("k3") if token == "GRAPH" else token for token in argv]
    code, out, err = _run_main(argv, capsys)
    assert (code, out) == (2, "")
    assert err.startswith("usage: tfpoly ")
    assert err.endswith(f"tfpoly: error: argument {flag}: expected one argument\n")


def _counting_parsers(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


@pytest.mark.parametrize(
    ("flags", "built"),
    [
        (["--json"], 0),
        (["--guard=7", "--json", "--guard", "100"], 0),
        (["--gu", "100"], 1 + len(COMMANDS)),
    ],
    ids=["json", "guards", "abbreviated"],
)
def test_main_builds_only_the_requested_subparser(graph_file, capsys, monkeypatch, flags, built):
    # well-formed argv builds no parser; the abbreviation builds the full one
    parsers = _counting_parsers(monkeypatch)
    assert main([*flags, "tutte", graph_file("k3")]) == 0
    assert len(parsers) == built


def test_every_bench_request_is_read_without_argparse(monkeypatch):
    # the requests of every benchmark workload, as perfbench/run.py spells them
    monkeypatch.syspath_prepend(os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    from workloads import WORKLOADS

    monkeypatch.setattr(cli, "_dispatch", lambda args: 0)
    parsers = _counting_parsers(monkeypatch)
    for (name, build), seed in itertools.product(WORKLOADS.items(), (1, 2, 3)):
        requests = build(seed)[1]
        assert requests, (name, seed)
        for _, graph, argv in requests:
            assert main(argv + ["--json"] + ([f"{graph}.graph"] if graph else [])) == 0
    assert parsers == []


@pytest.mark.parametrize("command", ["omega", "tutte-values"])
def test_answers_of_any_size_print(graph_file, capsys, command):
    # p has 4,001 digits, the answer about 8,000: more than Python turns
    # into a string by default, which main lifts for its answer alone
    path = graph_file("k3")
    limit = sys.get_int_max_str_digits()
    p = 10**4000
    orders = ["--p", str(p), "--q", "2"]
    outs = []
    for flags in ([], ["--json"]):
        assert main([*flags, command, *orders, path]) == 0
        assert sys.get_int_max_str_digits() == limit
        outs.append(capsys.readouterr().out)
    sys.set_int_max_str_digits(0)
    try:
        poly = tutte(fixture("k3")) if command == "tutte-values" else invariants.omega(fixture("k3"))
        want = str(poly.evaluate(x=p, y=2))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(want) > 4300
    assert outs == [f"{want}\n", f'{{"invariant": "{command}", "graph": "{path}", "value": {want}}}\n']
    # input stays limited: 5,000 digits are a usage error
    with pytest.raises(SystemExit) as exited:
        main([command, "--p", "1" + "0" * 4999, "--q", "2", path])
    assert exited.value.code == 2
    assert "invalid int value" in capsys.readouterr().err


def test_a_reader_that_closes_early_ends_the_command_quietly(tmp_path):
    # K6 has 1,296 orientation classes, one line each: far more than a
    # pipe holds, so the command is still writing when the reader leaves
    path = tmp_path / "k6.graph"
    path.write_text(format_graph(MultiGraph(6, tuple(itertools.combinations(range(6), 2)))))
    src = os.path.dirname(os.path.dirname(tfpoly.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "tfpoly", "classify-orientations", str(path)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    assert json.loads(proc.stdout.readline())["size"] > 0
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (0, b"")

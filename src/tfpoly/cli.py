"""Command line interface.

Exit codes: 0 success, 1 verification failure, 2 bad input (malformed
graph file, guard exceeded, usage errors).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .algebra import MultiPoly
from .config import GuardExceeded, VerificationError
from .graph import MultiGraph
from .graphio import ParseError, parse_graph_file
from .invariants import (
    chromatic_poly,
    flow_poly,
    omega,
    omega_value,
    psi_family,
    tension_poly,
    tutte,
    tutte_value,
    whitney,
)
from .orientations import cut_eulerian_classes
from .tensionflow import FiniteAbelianGroup
from .verification import SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfpoly",
        description="Tension-flow counting polynomials of multigraphs.",
    )

    # the shared flags live on both the main parser and every subparser so
    # they may be given on either side of the subcommand; the subparser
    # copies suppress their defaults so an absent flag keeps the value the
    # main parser already put in the namespace
    def add_common(p: argparse.ArgumentParser, top: bool) -> None:
        miss = {} if top else {"default": argparse.SUPPRESS}
        p.add_argument(
            "--json",
            action="store_true",
            help="emit JSON instead of text",
            **({} if top else miss),
        )
        p.add_argument(
            "--guard",
            type=int,
            help="override the enumeration guard (also settable via TFPOLY_GUARD)",
            **({"default": None} if top else miss),
        )

    add_common(parser, top=True)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_cmd(name: str, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        add_common(p, top=False)
        p.add_argument("graph", help="path to a graph file")
        return p

    p = graph_cmd("tutte", "Tutte polynomial")
    p.add_argument(
        "--route",
        choices=("checked", "recursion", "shift"),
        default="recursion",
        help="deletion-contraction (the default), the corank-nullity "
        "subset expansion shifted to x - 1, y - 1, or both compared (checked)",
    )

    graph_cmd("whitney", "corank-nullity polynomial")

    p = graph_cmd("omega", "nowhere-zero pair polynomial")
    p.add_argument(
        "--via",
        choices=("expansion", "arrangement", "brute"),
        default="expansion",
        help="signed subset expansion, arrangement characteristic "
        "polynomial, or brute pair count (brute needs --p and --q)",
    )
    p.add_argument("--p", type=int, default=None, help="tension group order")
    p.add_argument("--q", type=int, default=None, help="flow group order")

    graph_cmd("tension", "nowhere-zero tension polynomial")
    graph_cmd("flow", "nowhere-zero flow polynomial")
    graph_cmd("chromatic", "proper colouring polynomial")

    p = graph_cmd("kappa", "complementary pair polynomial (psi at z = w = 1)")
    p.add_argument(
        "--integral",
        action="store_true",
        help="sum over all orientations (integer pairs) instead of class "
        "representatives (modular pairs)",
    )

    p = graph_cmd("psi", "orientation-sum polynomial in (x, y, z, w)")
    p.add_argument("--integral", action="store_true", help="sum over all orientations")
    p.add_argument("--dual", action="store_true", help="closed windows instead of open")

    graph_cmd("classify-orientations", "cut-Eulerian classes, one JSON object per line")

    p = graph_cmd("tutte-values", "Tutte value T(+-p, +-q), signs from --quadrant")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--quadrant", choices=("++", "+-", "-+", "--"), default="++")

    p = sub.add_parser("verify", help="run the self-verification suites")
    add_common(p, top=False)
    p.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="all",
        help="which suite to run (default: all criteria)",
    )
    return parser


def _emit_poly(args, name: str, g: MultiGraph, poly: MultiPoly) -> int:
    if args.json:
        print(
            json.dumps(
                {
                    "invariant": name,
                    "graph": args.graph,
                    "variables": poly.json_variables(),
                    "poly": poly.to_json(),
                }
            )
        )
    else:
        print(poly)
    return 0


def _emit_value(args, name: str, g: MultiGraph, value: int) -> int:
    if args.json:
        print(json.dumps({"invariant": name, "graph": args.graph, "value": value}))
    else:
        print(value)
    return 0


def _dispatch(args) -> int:
    cmd = args.command
    guard = args.guard
    if cmd == "verify":
        results = run_suite(args.suite, guard)
        ok = all(res.passed for _, res in results)
        if args.json:
            print(
                json.dumps(
                    {
                        "command": "verify",
                        "suite": args.suite,
                        "passed": ok,
                        "results": [
                            {
                                "criterion": num,
                                "name": res.name,
                                "passed": res.passed,
                                "lines": list(res.lines),
                            }
                            for num, res in results
                        ],
                    }
                )
            )
        else:
            for num, res in results:
                status = "PASS" if res.passed else "FAIL"
                print(f"{status} criterion {num}: {res.name}")
                for line in res.lines:
                    print(f"    {line}")
        return 0 if ok else 1

    g = parse_graph_file(args.graph)
    if cmd == "tutte":
        return _emit_poly(args, cmd, g, tutte(g, args.route, guard))
    if cmd == "whitney":
        return _emit_poly(args, cmd, g, whitney(g, guard))
    if cmd == "omega":
        if args.via == "brute":
            if args.p is None or args.q is None:
                print("error: --via brute needs --p and --q", file=sys.stderr)
                return 2
            value = omega_value(
                g,
                FiniteAbelianGroup.cyclic(args.p),
                FiniteAbelianGroup.cyclic(args.q),
                guard,
            )
            return _emit_value(args, cmd, g, value)
        poly = omega(g, args.via, guard)
        if args.p is not None and args.q is not None:
            return _emit_value(args, cmd, g, poly.evaluate(x=args.p, y=args.q))
        return _emit_poly(args, cmd, g, poly)
    if cmd == "tension":
        return _emit_poly(args, cmd, g, tension_poly(g, "t", guard))
    if cmd == "flow":
        return _emit_poly(args, cmd, g, flow_poly(g, "t", guard))
    if cmd == "chromatic":
        return _emit_poly(args, cmd, g, chromatic_poly(g, "t", guard))
    if cmd == "kappa":
        kind = "psi_z" if args.integral else "psi"
        poly = psi_family(g, kind, guard)
        return _emit_poly(args, cmd, g, poly.substitute({"z": 1, "w": 1}))
    if cmd == "psi":
        kind = ("bar_" if args.dual else "") + ("psi_z" if args.integral else "psi")
        return _emit_poly(args, cmd, g, psi_family(g, kind, guard))
    if cmd == "classify-orientations":
        classes = cut_eulerian_classes(g, guard)
        rows = [
            {
                "representative": [int(b) for b in cls.representative.flips],
                "size": cls.size,
                "b_size": cls.b_size,
                "c_size": cls.c_size,
            }
            for cls in classes
        ]
        if args.json:
            print(json.dumps({"command": cmd, "graph": args.graph, "classes": rows}))
        else:
            for row in rows:
                print(json.dumps(row))
        return 0
    if cmd == "tutte-values":
        value = tutte_value(g, args.p, args.q, args.quadrant, guard)
        return _emit_value(args, cmd, g, value)
    raise AssertionError(f"unhandled command {cmd!r}")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse eats the value "--" after an equals sign (it looks like the
    # positional separator) and leaves [] behind; restore the intended value
    if getattr(args, "quadrant", None) == []:
        args.quadrant = "--"
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GuardExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

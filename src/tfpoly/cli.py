"""Command line interface.

Exit codes: 0 success (also when the reader closes stdout early), 1
verification failure, 2 bad input (malformed graph file, guard
exceeded, usage errors).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .algebra import MultiPoly
from .arrangements import graphic_semilattice
from .config import GuardExceeded, state_guard
from .graphio import parse_graph_file
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


# the shared flags live on both the main parser and every subparser so they
# may be given on either side of the subcommand; the subparser copies
# suppress their defaults so an absent flag keeps the value the main parser
# already put in the namespace
def _add_common(p: argparse.ArgumentParser, top: bool) -> None:
    miss = {} if top else {"default": argparse.SUPPRESS}
    p.add_argument("--json", action="store_true", help="emit JSON instead of text", **miss)
    p.add_argument(
        "--guard",
        type=int,
        help="override the enumeration guard (also settable via TFPOLY_GUARD)",
        **miss,
    )


def _omega_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--via",
        choices=("frontier", "arrangement", "brute"),
        default="frontier",
        help="frontier sum of the signed subset expansion (the default), "
        "characteristic polynomial of the graphic arrangement, or brute pair "
        "count (brute needs --p and --q)",
    )
    p.add_argument("--p", type=int, default=None, help="tension group order")
    p.add_argument("--q", type=int, default=None, help="flow group order")


def _kappa_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--integral",
        action="store_true",
        help="sum over all orientations (integer pairs) instead of class "
        "representatives (modular pairs)",
    )


def _psi_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--integral", action="store_true", help="sum over all orientations")
    p.add_argument("--dual", action="store_true", help="closed windows instead of open")


def _tutte_values_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--quadrant", choices=("++", "+-", "-+", "--"), default="++")


def _verify_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--suite",
        choices=sorted(SUITES),
        default="all",
        help="which suite to run (default: all criteria)",
    )


# name -> (help text, takes a graph file, adds the command's own arguments)
COMMANDS = {
    "tutte": ("Tutte polynomial", True, None),
    "whitney": ("corank-nullity polynomial", True, None),
    "omega": ("nowhere-zero pair polynomial", True, _omega_args),
    "tension": ("nowhere-zero tension polynomial", True, None),
    "flow": ("nowhere-zero flow polynomial", True, None),
    "chromatic": ("proper colouring polynomial", True, None),
    "kappa": ("complementary pair polynomial (psi at z = w = 1)", True, _kappa_args),
    "psi": ("orientation-sum polynomial in (x, y, z, w)", True, _psi_args),
    "classify-orientations": ("cut-Eulerian classes, one JSON object per line", True, None),
    "tutte-values": (
        "Tutte value T(+-p, +-q), signs from --quadrant",
        True,
        _tutte_values_args,
    ),
    "verify": ("run the self-verification suites", False, _verify_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The tfpoly parser: every subcommand, or only the one named.

    A one-command parser names all of them in its usage, so its main-level
    usage and errors read exactly as the full parser's do.  The full parser
    keeps the default metavar, which its "invalid choice" error names.
    """
    parser = argparse.ArgumentParser(
        prog="tfpoly",
        description="Tension-flow counting polynomials of multigraphs.",
    )
    _add_common(parser, top=True)
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = tuple(COMMANDS)
    else:
        metavar = "{" + ",".join(COMMANDS) + "}"
        sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
        names = (command,)
    for name in names:
        help_text, takes_graph, add_own = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        _add_common(p, top=False)
        if takes_graph:
            p.add_argument("graph", help="path to a graph file")
        if add_own is not None:
            add_own(p)
    return parser


def _requested_command(argv: Sequence[str]) -> str | None:
    """The subcommand argv names, if the shared flags alone come before it.

    Skips only exact `--json`, `--guard N` and `--guard=N`; anything else
    (help, an abbreviation, an unknown name) leaves the answer to the full
    parser.
    """
    i = 0
    while i < len(argv):
        token = argv[i]
        if token == "--guard":
            i += 2
        elif token == "--json" or token.startswith("--guard="):
            i += 1
        else:
            return token if token in COMMANDS else None
    return None


def _emit_poly(args, name: str, poly: MultiPoly) -> int:
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


def _emit_value(args, name: str, value: int) -> int:
    if args.json:
        print(json.dumps({"invariant": name, "graph": args.graph, "value": value}))
    else:
        print(value)
    return 0


def _dispatch(args) -> int:
    cmd = args.command
    guard = state_guard(args.guard)
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
        return _emit_poly(args, cmd, tutte(g, guard))
    if cmd == "whitney":
        return _emit_poly(args, cmd, whitney(g, guard))
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
            return _emit_value(args, cmd, value)
        if (args.p is None) != (args.q is None):
            print("error: --p and --q must be given together", file=sys.stderr)
            return 2
        if args.via == "arrangement":
            poly = graphic_semilattice(g, guard).characteristic_polynomial()
        else:
            poly = omega(g, guard)
        if args.p is not None:
            return _emit_value(args, cmd, poly.evaluate(x=args.p, y=args.q))
        return _emit_poly(args, cmd, poly)
    if cmd == "tension":
        return _emit_poly(args, cmd, tension_poly(g, "t", guard))
    if cmd == "flow":
        return _emit_poly(args, cmd, flow_poly(g, "t", guard))
    if cmd == "chromatic":
        return _emit_poly(args, cmd, chromatic_poly(g, "t", guard))
    if cmd == "kappa":
        kind = "psi_z" if args.integral else "psi"
        poly = psi_family(g, kind, guard)
        return _emit_poly(args, cmd, poly.substitute({"z": 1, "w": 1}))
    if cmd == "psi":
        kind = ("bar_" if args.dual else "") + ("psi_z" if args.integral else "psi")
        return _emit_poly(args, cmd, psi_family(g, kind, guard))
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
        return _emit_value(args, cmd, value)
    raise AssertionError(f"unhandled command {cmd!r}")


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(_requested_command(argv)).parse_args(argv)
    # argparse eats the value "--" after an equals sign (it looks like the
    # positional separator) and leaves [] behind; restore the intended value
    if getattr(args, "quadrant", None) == []:
        args.quadrant = "--"
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout (`| head -1`): stop quietly, with stdout
        # pointed at the null device so that the flush at exit fails no more
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, GuardExceeded, ValueError) as exc:  # ParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
from contextlib import contextmanager
from typing import Sequence

from .algebra import MultiPoly
from .config import SUITES, GuardExceeded, guarded
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


# (flag, add_argument keywords); the shared flags go on the main parser
# and on every subparser, so they may be given on either side of the
# command.  store_true's default is spelled out, as `_read_argv` takes
# every default from here (None where none is given)
STORE_TRUE = {"action": "store_true", "default": False}
COMMON = (
    ("--json", {**STORE_TRUE, "help": "emit JSON instead of text"}),
    ("--guard", {"type": int, "help": "override the enumeration guard (also settable via TFPOLY_GUARD)"}),
)

# name -> (help text, takes a graph file, the command's own flags)
COMMANDS = {
    "tutte": ("Tutte polynomial", True, ()),
    "whitney": ("corank-nullity polynomial", True, ()),
    "omega": ("nowhere-zero pair polynomial", True, (
        ("--via", {
            "choices": ("frontier", "arrangement", "brute"),
            "default": "frontier",
            "help": "frontier sum of the signed subset expansion (the default), characteristic "
            "polynomial of the graphic arrangement, or brute pair count (brute needs --p and --q)",
        }),
        ("--p", {"type": int, "help": "tension group order"}),
        ("--q", {"type": int, "help": "flow group order"}),
    )),
    "tension": ("nowhere-zero tension polynomial", True, ()),
    "flow": ("nowhere-zero flow polynomial", True, ()),
    "chromatic": ("proper colouring polynomial", True, ()),
    "kappa": ("complementary pair polynomial (psi at z = w = 1)", True, (
        ("--integral", {**STORE_TRUE, "help": "sum over all orientations (integer pairs) "
                        "instead of class representatives (modular pairs)"}),
    )),
    "psi": ("orientation-sum polynomial in (x, y, z, w)", True, (
        ("--integral", {**STORE_TRUE, "help": "sum over all orientations"}),
        ("--dual", {**STORE_TRUE, "help": "closed windows instead of open"}),
    )),
    "classify-orientations": ("cut-Eulerian classes, one JSON object per line", True, ()),
    "tutte-values": ("Tutte value T(+-p, +-q), signs from --quadrant", True, (
        ("--p", {"type": int, "required": True}),
        ("--q", {"type": int, "required": True}),
        ("--quadrant", {"choices": ("++", "+-", "-+", "--"), "default": "++"}),
    )),
    "verify": ("run the self-verification suites", False, (
        ("--suite", {
            "choices": sorted(SUITES),
            "default": "all",
            "help": "which suite to run (default: all criteria)",
        }),
    )),
}


def build_parser() -> argparse.ArgumentParser:
    """The tfpoly parser, for help, usage errors and the spellings
    `_read_argv` leaves to it.  The subparsers' copies of the shared
    flags suppress their defaults, so an absent flag keeps the value the
    main parser already put in the namespace."""
    parser = argparse.ArgumentParser(
        prog="tfpoly",
        description="Tension-flow counting polynomials of multigraphs.",
    )
    for flag, kwargs in COMMON:
        parser.add_argument(flag, **kwargs)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, takes_graph, own) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in COMMON:
            p.add_argument(flag, **{**kwargs, "default": argparse.SUPPRESS})
        if takes_graph:
            p.add_argument("graph", help="path to a graph file")
        for flag, kwargs in own:
            p.add_argument(flag, **kwargs)
    return parser


def _read_argv(argv: Sequence[str]) -> argparse.Namespace | None:
    """argv as `build_parser().parse_args` reads it, when argv is well
    formed in the plainest spelling: exact flag names, as `--flag value`
    (a value that does not start with "-") or `--flag=value`, the shared
    flags on either side of the command, the command's own after it.
    None for anything else (help, abbreviations, errors, "--"), which
    is left to argparse."""
    flags = dict(COMMON)
    values = {flag[2:]: kwargs.get("default") for flag, kwargs in COMMON}
    command, positionals = None, []
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if not token.startswith("-"):
            if command is not None:
                positionals.append(token)
            elif token in COMMANDS:
                command = token
                _, takes_graph, own = COMMANDS[command]
                flags.update(own)
                values.update((flag[2:], kwargs.get("default")) for flag, kwargs in own)
            else:
                return None
            continue
        flag, eq, value = token.partition("=")
        kwargs = flags.get(flag)
        if kwargs is None:
            return None
        if kwargs.get("action") == "store_true":
            if eq:
                return None
            value = True
        else:
            if not eq:
                if i == len(argv) or argv[i].startswith("-"):
                    return None
                value = argv[i]
                i += 1
            try:
                value = kwargs.get("type", str)(value)
            except ValueError:
                return None
            if "choices" in kwargs and value not in kwargs["choices"]:
                return None
        values[flag[2:]] = value
    if command is None or len(positionals) != takes_graph:
        return None
    if any(kwargs.get("required") and values[flag[2:]] is None for flag, kwargs in own):
        return None
    if takes_graph:
        values["graph"] = positionals[0]
    return argparse.Namespace(command=command, **values)


@contextmanager
def _any_int_digits():
    """No limit on the digits of an int turned into a string (Python
    refuses over 4,300 by default) while an answer is written; the
    caller's limit comes back after."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _emit_poly(args, name: str, poly: MultiPoly) -> int:
    with _any_int_digits():
        if args.json:
            variables, terms = poly._display()  # one sort for both fields
            payload = {
                "invariant": name,
                "graph": args.graph,
                "variables": list(variables),
                "poly": MultiPoly._json_terms(terms),
            }
            print(json.dumps(payload))
        else:
            print(poly)
    return 0


def _emit_value(args, name: str, value: int) -> int:
    with _any_int_digits():
        if args.json:
            print(json.dumps({"invariant": name, "graph": args.graph, "value": value}))
        else:
            print(value)
    return 0


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "verify":
        from .verification import run_suite  # imported here: only verify runs the criteria

        results = run_suite(args.suite)
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
        return _emit_poly(args, cmd, tutte(g))
    if cmd == "whitney":
        return _emit_poly(args, cmd, whitney(g))
    if cmd == "omega":
        if args.via == "brute":
            if args.p is None or args.q is None:
                print("error: --via brute needs --p and --q", file=sys.stderr)
                return 2
            value = omega_value(
                g, FiniteAbelianGroup.cyclic(args.p), FiniteAbelianGroup.cyclic(args.q)
            )
            return _emit_value(args, cmd, value)
        if (args.p is None) != (args.q is None):
            print("error: --p and --q must be given together", file=sys.stderr)
            return 2
        if args.via == "arrangement":
            from .arrangements import graphic_semilattice  # imported here: only this route needs it

            poly = graphic_semilattice(g).characteristic_polynomial()
        else:
            poly = omega(g)
        if args.p is not None:
            return _emit_value(args, cmd, poly.evaluate(x=args.p, y=args.q))
        return _emit_poly(args, cmd, poly)
    if cmd == "tension":
        return _emit_poly(args, cmd, tension_poly(g, "t"))
    if cmd == "flow":
        return _emit_poly(args, cmd, flow_poly(g, "t"))
    if cmd == "chromatic":
        return _emit_poly(args, cmd, chromatic_poly(g, "t"))
    if cmd == "kappa":
        kind = "psi_z" if args.integral else "psi"
        poly = psi_family(g, kind)
        return _emit_poly(args, cmd, poly.substitute({"z": 1, "w": 1}))
    if cmd == "psi":
        kind = ("bar_" if args.dual else "") + ("psi_z" if args.integral else "psi")
        return _emit_poly(args, cmd, psi_family(g, kind))
    if cmd == "classify-orientations":
        classes = cut_eulerian_classes(g)
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
        value = tutte_value(g, args.p, args.q, args.quadrant)
        return _emit_value(args, cmd, value)
    raise AssertionError(f"unhandled command {cmd!r}")


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        # argparse eats the value "--" after an equals sign (it looks like
        # the positional separator) and leaves [] behind: restore it where
        # it is a valid value, and refuse it, as `--flag --` is, elsewhere
        for flag, kwargs in COMMON + COMMANDS[args.command][2]:
            if getattr(args, flag[2:]) == []:
                if "--" not in kwargs.get("choices", ()):
                    parser.error(f"argument {flag}: expected one argument")
                setattr(args, flag[2:], "--")
    try:
        with guarded(args.guard):
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

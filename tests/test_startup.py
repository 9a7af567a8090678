"""A command loads only what it runs.

`import tfpoly.cli` leaves out `dataclasses` (which brings `inspect`
with it) and the modules only `verify` and `omega --via arrangement`
need; those two still answer in the same fresh interpreter, loading
their modules as they start.  The oracles load only for `verify` and
`omega --via brute`.
"""

import json
import os
import pathlib
import subprocess
import sys

import tfpoly
from tfpoly.graphio import parse_graph_file
from tfpoly.invariants import omega

K4 = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "k4.graph"

LEFT_OUT = (
    "dataclasses",
    "inspect",
    "tfpoly.verification",
    "tfpoly.arrangements",
    "tfpoly.fixtures",
    "tfpoly.oracles",
)

SCRIPT = """
import contextlib, io, json, sys
import tfpoly.cli

at_start = sorted(sys.modules)
runs = []
for argv in (["verify", "--suite", "whitney"], ["omega", "--via", "arrangement", sys.argv[1]]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = tfpoly.cli.main(argv)
    runs.append([code, out.getvalue()])
print(json.dumps({"at_start": at_start, "runs": runs, "after": sorted(sys.modules)}))
"""


def test_a_fresh_cli_import_leaves_out_verify_and_the_arrangement():
    src = os.path.dirname(os.path.dirname(tfpoly.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", SCRIPT, str(K4)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert [name for name in LEFT_OUT if name in seen["at_start"]] == []
    (verify_code, verify_out), (omega_code, omega_out) = seen["runs"]
    assert verify_code == 0
    assert [line.split(":")[0] for line in verify_out.splitlines()] == [
        "PASS criterion 7",
        "PASS criterion 17",
        "PASS criterion 19",
    ]
    assert (omega_code, omega_out) == (0, f"{omega(parse_graph_file(str(K4)))}\n")
    assert {"tfpoly.verification", "tfpoly.arrangements", "tfpoly.oracles"} <= set(seen["after"])


# every command but verify, each --via and a point of omega, then the brute route
COMMANDS_SCRIPT = """
import contextlib, io, json, sys
import tfpoly.cli

graph = sys.argv[1]
runs = []
for argv in [
    [name, graph]
    for name in tfpoly.cli.COMMANDS
    if name not in ("verify", "tutte-values")
] + [
    ["tutte-values", "--p", "2", "--q", "3", graph],
    ["kappa", "--integral", graph],
    ["psi", "--integral", "--dual", graph],
    ["omega", "--p", "2", "--q", "3", graph],
    ["omega", "--via", "arrangement", graph],
    ["omega", "--via", "brute", "--p", "2", "--q", "3", graph],
]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = tfpoly.cli.main(argv)
    runs.append([argv[:-1], code, "tfpoly.oracles" in sys.modules])
print(json.dumps(runs))
"""


def test_only_verify_and_the_brute_route_load_the_oracles():
    src = os.path.dirname(os.path.dirname(tfpoly.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", COMMANDS_SCRIPT, str(K4)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    runs = json.loads(proc.stdout)
    assert [code for _, code, _ in runs] == [0] * len(runs)
    assert [command for command, _, loaded in runs if loaded] == [
        ["omega", "--via", "brute", "--p", "2", "--q", "3"]
    ]

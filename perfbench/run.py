"""tfpoly benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a tfpoly checkout; the program is imported from
./src.  NAME is classic-polys, orientation-sums, verify-suite, or all
(each in turn, one summary per workload).  Inputs are generated from
the seed and written as .graph files under ./.perfbench/.

Each request is one documented CLI command run through
`tfpoly.cli.main(argv)` in a fresh worker process (see worker.py),
with every lru_cache cleared before it.  Every output is then checked
against an independent reference route (checks.py, reference.py),
outside every timed number.

The last line of standard output is one JSON object: correct,
attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones, with --trace 1 the per-layer ones from a separate
traced run, whose spans are written to .perfbench/<workload>-seed<N>/.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time

from calibrate import calibrated, probe

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 175  # one workload's run, set-up and checks included
SETUP_RUNS = 11


def setup_seconds(src: str) -> float:
    """Median calibrated time of a fresh interpreter importing tfpoly.cli."""
    env = dict(os.environ, PYTHONPATH=src)
    cmd = [sys.executable, "-c", "import tfpoly.cli"]
    subprocess.run(cmd, env=env, check=True)  # writes bytecode caches once, untimed
    times = []
    for _ in range(SETUP_RUNS):
        before = probe()
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, check=True)
        wall = time.perf_counter() - t0
        times.append(calibrated(wall, [before, probe()]))
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: float, trace: bool, root: str) -> dict:
    started = time.perf_counter()
    # these import tfpoly, which main() has just put on sys.path
    import ladder
    from checks import Checker
    from tfpoly.verification import SUITES
    from tracing import layer_metrics
    from workloads import WORKLOADS

    graphs, requests = WORKLOADS[workload](seed)
    # small and large requests interleaved, so that a slow spell of the
    # machine does not fall on one kind of request, as it would if the
    # quick fixture requests all ran at the start of a pass
    random.Random(f"{workload}:{seed}:order").shuffle(requests)
    work = os.path.join(".perfbench", f"{workload}-seed{seed}")
    paths = ladder.write_graphs(os.path.join(work, "graphs"), graphs)
    argvs = [argv + ["--json"] + ([paths[graph]] if graph else []) for _, graph, argv in requests]

    metrics: dict[str, tuple[float, str]] = {}
    src = os.path.join(root, "src")
    if not trace:
        metrics["setup_s"] = (setup_seconds(src), "s")

    plan_path = os.path.join(work, "plan.json")
    result_path = os.path.join(work, "result.json")
    plan = {"src": src, "requests": argvs, "seconds": seconds, "trace": trace,
            "spans": os.path.join(work, "spans.tsv")}
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    budget = DEADLINE_S - (time.perf_counter() - started)
    try:
        # a fixed hash seed keeps set and dict order, and so the work done,
        # the same from run to run
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
                              env=dict(os.environ, PYTHONHASHSEED="0"), timeout=budget)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"error: {workload} worker did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        raise SystemExit(f"error: {workload} worker exited with code {proc.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)

    checker = Checker(graphs, SUITES)
    attempted = failed = 0
    wrong = False
    reported: set[int] = set()
    for done in result["passes"]:
        for i, ((check, graph, _), (code, _, _, stdout, error)) in enumerate(zip(requests, done["requests"])):
            attempted += 1
            if code != 0:
                reason = f"exit {code}: {error}"
                # verify exits 1 when one of the program's own identities fails
                wrong = wrong or (check.startswith("verify:") and code == 1)
            else:
                reason = checker.judge(check, graph, stdout)
                wrong = wrong or reason is not None
            if reason is not None:
                failed += 1
                if i not in reported:
                    reported.add(i)
                    print(f"failed: {' '.join(argvs[i])}: {reason}", file=sys.stderr)

    untraced = [p for p in result["passes"] if not p["traced"]]
    if trace:
        run_s = statistics.median(p["run_s"] for p in untraced)
        metrics.update(layer_metrics([p for p in result["passes"] if p["traced"]], run_s))
    else:
        times = [row[2] for p in untraced for row in p["requests"]]
        metrics["run_s"] = (statistics.median(p["run_s"] for p in untraced), "s")
        metrics["request_s.p50"] = (statistics.median(times), "s")
        metrics["request_s.p90"] = (statistics.quantiles(times, n=10)[-1], "s")
        metrics["success_ratio"] = ((attempted - failed) / attempted, "ratio")
        metrics["peak_rss_mib"] = (result["peak_rss_kib"] / 1024, "MiB")
    wall = [row[1] for p in untraced for row in p["requests"]]
    note = (f"uncalibrated wall times: run_s {statistics.median(p['wall_run_s'] for p in untraced):.4f} s, "
            f"request_s.p50 {statistics.median(wall):.6f} s, "
            f"request_s.p90 {statistics.quantiles(wall, n=10)[-1]:.6f} s")
    return {"workload": workload, "correct": not wrong, "attempted": attempted, "failed": failed,
            "passes": len(result["passes"]), "metrics": metrics, "note": note}


def declared_metrics(root: str, trace: bool) -> dict[str, str] | None:
    path = os.path.join(root, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tfpoly", "cli.py")):
        print("error: no tfpoly source at ./src/tfpoly; run from the root of a tfpoly checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}, all",
              file=sys.stderr)
        return 2

    results = [measure(name, args.seed, args.seconds, bool(args.trace), root) for name in names]

    declared = declared_metrics(root, bool(args.trace))
    for res in results:
        if declared is not None and {k: u for k, (_, u) in res["metrics"].items()} != declared:
            print("error: measured metrics differ from those BENCHMARK.json declares", file=sys.stderr)
            return 1
        print(f"{res['workload']}: {res['attempted']} requests in {res['passes']} passes, "
              f"{res['failed']} failed (failed_ratio {res['failed'] / res['attempted']:.4f}), "
              f"outputs {'correct' if res['correct'] else 'WRONG'}")
        for name, (value, unit) in res["metrics"].items():
            print(f"  {name:48s} {value:14.6f} {unit}")
        print(f"  ({res['note']})")

    single = len(results) == 1
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (name if single else f"{r['workload']}/{name}"): {"value": value, "unit": unit}
            for r in results for name, (value, unit) in r["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

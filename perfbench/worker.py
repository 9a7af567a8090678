"""Run one workload's requests in a fresh interpreter, as one closed-loop client.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names the source directory, the requests (argv lists for
`tfpoly.cli.main`), the measuring time and whether to trace.  Requests
run one after another in whole passes.  Before each request every
lru_cache in the package is cleared and garbage is collected, untimed,
so each request costs what a fresh CLI process pays after start-up.
A new pass starts only while the typical pass still fits in the time
left; the first pass always runs.

With tracing, untraced passes fill the first half of the time and
traced passes the second half; the traced passes give the per-layer
numbers and the ratio of the two gives the tracing overhead.

The calibration probe (calibrate.py) samples machine speed around and
during each request.  The result holds, per pass, each request's exit code, wall
and calibrated seconds, stdout and error, plus the cache statistics,
peak resident memory, and for a traced run the per-layer aggregates.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import re
import resource
import statistics
import sys
import time

from calibrate import Speedometer, calibrated

CACHE_DECORATOR = re.compile(r"^\s*@(?:functools\.)?(?:lru_cache|cache)\b", re.MULTILINE)


def decorator_count(package_dir: str) -> int:
    total = 0
    for root, _, files in os.walk(package_dir):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as fh:
                    total += len(CACHE_DECORATOR.findall(fh.read()))
    return total


def find_caches() -> list:
    """Every lru_cache object reachable from a tfpoly module or its classes."""
    found: dict[int, object] = {}

    def visit(value) -> None:
        if callable(getattr(value, "cache_clear", None)) and callable(getattr(value, "cache_info", None)):
            found.setdefault(id(value), value)

    for name, module in list(sys.modules.items()):
        if not name.startswith("tfpoly") or module is None:
            continue
        for value in vars(module).values():
            visit(value)
            if isinstance(value, type) and value.__module__ == name:
                for member in vars(value).values():
                    visit(getattr(member, "__func__", member))
    return list(found.values())


class Client:
    def __init__(self, requests, caches):
        self.requests = requests
        self.caches = caches
        self.tracer = None
        self.count = 0

    def run_pass(self, traced: bool) -> dict:
        # looked up per pass: tracing rebinds tfpoly.cli.main between passes
        cli = sys.modules["tfpoly.cli"]
        rows = []
        first_span = len(self.tracer) if self.tracer is not None else 0
        hits = misses = kappa_hits = kappa_misses = 0
        entries_max = 0
        started = time.perf_counter()
        for argv in self.requests:
            for cache in self.caches:
                cache.cache_clear()
            gc.collect()
            out, err = io.StringIO(), io.StringIO()
            error = None
            with Speedometer() as speed:
                if traced:
                    self.tracer.request = self.count
                t0 = time.perf_counter()
                try:
                    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                        code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception as exc:  # a crash is a failed request, not a failed benchmark
                    code, error = None, f"{type(exc).__name__}: {exc}"
                wall = time.perf_counter() - t0
                if traced:
                    self.tracer.request = None
            self.count += 1
            entries = 0
            for cache in self.caches:
                info = cache.cache_info()
                hits += info.hits
                misses += info.misses
                entries += info.currsize
                if getattr(cache, "__name__", "") == "kappa_rho":
                    kappa_hits += info.hits
                    kappa_misses += info.misses
            entries_max = max(entries_max, entries)
            rows.append([code, wall, calibrated(wall, speed.probes), out.getvalue(),
                         error or err.getvalue().strip()[-300:]])
        result = {
            "traced": traced,
            "wall_s": time.perf_counter() - started,
            "wall_run_s": sum(row[1] for row in rows),
            "run_s": sum(row[2] for row in rows),
            "requests": rows,
            "cache": {"hits": hits, "misses": misses, "entries_max": entries_max,
                      "kappa_hits": kappa_hits, "kappa_misses": kappa_misses},
        }
        if traced:
            result["layers"] = self.tracer.aggregate(first_span)
        return result


def passes_until(client: Client, deadline: float, traced: bool, out: list) -> None:
    """Whole passes, while the median pass still fits before the deadline."""
    walls: list[float] = []
    while True:
        done = client.run_pass(traced)
        out.append(done)
        walls.append(done["wall_s"])
        if time.perf_counter() + statistics.median(walls) > deadline:
            return


def main(plan_path: str, result_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import tfpoly.cli  # noqa: F401  (loads every module the CLI reaches)

    caches = find_caches()
    declared = decorator_count(os.path.join(plan["src"], "tfpoly"))
    if len(caches) != declared:
        print(f"error: found {len(caches)} lru_caches in tfpoly modules but "
              f"{declared} cache decorators in the source; cannot guarantee cold caches",
              file=sys.stderr)
        return 3

    client = Client(plan["requests"], caches)
    start = time.perf_counter()
    seconds = plan["seconds"]
    passes: list[dict] = []
    if not plan["trace"]:
        passes_until(client, start + seconds, False, passes)
    else:
        # untraced passes first, before any wrapper is installed
        passes_until(client, start + seconds / 2, False, passes)
        from tracing import Tracer, install

        client.tracer = Tracer()
        install(client.tracer)
        if client.tracer.missing:
            print(f"note: not traced (absent): {', '.join(client.tracer.missing)}", file=sys.stderr)
        passes_until(client, start + seconds, True, passes)
        client.tracer.write(plan["spans"])
    result = {
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))

"""Run one workload in this (fresh) interpreter and print its result as JSON.

Started by run.py from the root of a checkout:

    python3 bench/worker.py --workload NAME --seed N --seconds S --tmp DIR [--trace] [--setup-only]

The last line of stdout is one JSON object.  A closed loop with a single
caller: the next operation starts when the previous one has returned.
Outputs are kept and checked after the timed loop, so checking costs the
loop nothing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads as W

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--tmp", required=True, help="scratch directory for cache files")
    ap.add_argument("--trace", action="store_true", help="record spans around the package")
    ap.add_argument("--spans", default=None, help="where to write the spans (traced run)")
    ap.add_argument("--setup-only", action="store_true", help="time the set-up, then exit")
    return ap.parse_args(argv)


def set_up(args):
    """Import the package, generate the inputs, create the files; timed as setup_s."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import knotwind

    cli = importlib.import_module("knotwind.cli") if args.workload == "cli-cached" else None
    tmp = Path(args.tmp)
    tmp.mkdir(parents=True, exist_ok=True)
    ops = W.generate(args.workload, args.seed, tmp, knotwind)
    return knotwind, cli, tmp, ops, time.perf_counter() - start


def probe() -> float:
    """Seconds for a fixed pure-Python loop (about 8 ms on a quiet machine).

    Its mix (integer arithmetic, dict reads and writes, small tuples, sorting,
    wide-integer XOR) is the kind of work the package does, but it calls none
    of the package, so a change to the package cannot move it.  On a shared
    virtual machine the speed can drift by half for minutes at a time;
    run.py scales timings by this probe to a reference speed.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    rows: list[tuple[int, int]] = []
    wide = 0
    v = 0x9E3779B97F4A7C15
    for i in range(10_000):
        v = (v * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
        table[v & 1023] = table.get((v >> 10) & 1023, 0) ^ v
        rows.append((v >> 40, i))
        if len(rows) == 64:
            rows.sort()
            for high, j in rows:
                wide ^= high << (j % 1024)
            rows.clear()
    return time.perf_counter() - start


def timed_loop(knotwind, cli, tmp, ops, seconds, size, tracer):
    """Issue operations until the deadline, probing the machine before each window.

    Returns (results, latencies, window wall times, probes, elapsed); probe k
    precedes window k, and neither window times nor elapsed include probes.
    """
    results, latencies, windows, probes = [], [], [], []
    perf = time.perf_counter
    count = len(ops)
    start = perf()
    deadline = start + seconds
    probing = 0.0
    i = 0
    while perf() < deadline:
        if i % size == 0:
            if i:
                windows.append(perf() - window_start)
            probes.append(probe())
            probing += probes[-1]
            window_start = perf()
        if i and i % count == 0:  # the plan repeats: its cache files must start absent again
            for stale in tmp.glob("cache-*.json"):
                stale.unlink()
        op = ops[i % count]
        if tracer is not None:
            tracer.current_key = op.key
        t0 = perf()
        try:
            result = W.execute(knotwind, cli, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            result = exc
        latencies.append(perf() - t0)
        results.append(result)
        i += 1
    if i and i % size == 0:
        windows.append(perf() - window_start)
    return results, latencies, windows, probes, perf() - start - probing


def check(workload, ops, results, knotwind, cli):
    """(failed, mismatched, notes): failures raised or exited non-zero."""
    failed = mismatched = 0
    notes = []
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if workload == "cli-cached" else {}
    tables: dict[tuple, list[str]] = {}
    for i, result in enumerate(results):
        op = ops[i % len(ops)]
        if isinstance(result, Exception) or (op.kind == "cli" and result[0] != 0):
            failed += 1
            notes.append(f"failed: {op.text}: {result if isinstance(result, Exception) else result[2]}")
            continue
        if op.kind == "cli":
            ok = W.check_cli(op, result, golden)
            if op.fmt == "table":
                tables.setdefault(op.uncached, []).append(result[1])
        else:
            ok = W.check_library(op, result, knotwind)
        if not ok:
            mismatched += 1
            notes.append(f"mismatch: {op.text}: {result!r:.300}")
    # table output has no golden: it must equal the same command run without a cache
    for argv, outputs in tables.items():
        status, out, _ = cli.run(list(argv))
        bad = sum(o != out for o in outputs) if status == 0 else len(outputs)
        if bad:
            mismatched += bad
            notes.append(f"mismatch: {' '.join(argv)}: cached table output differs from uncached")
    return failed, mismatched, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize:
        print("refusing to run under python -O: it skips the package's own cross-checks",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    knotwind, cli, tmp, ops, setup_s = set_up(args)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "probe_s": probe()}))
        return 0
    os.environ.pop(knotwind.CACHE_ENV, None)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(knotwind)
    try:
        results, latencies, windows, probes, elapsed = timed_loop(
            knotwind, cli, tmp, ops, args.seconds, W.WINDOW[args.workload], tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, mismatched, notes = check(args.workload, ops, results, knotwind, cli)
    out = {
        "setup_s": setup_s,
        "attempted": len(results),
        "failed": failed,
        "mismatched": mismatched,
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "window_ops": W.WINDOW[args.workload],
        "windows_s": windows,
        "probes_s": probes,
        "peak_rss_mb": peak_rss_mb,
        "notes": notes[:20],
    }
    if tracer is not None:
        out["per_layer"] = tracer.metrics(len(results))
        if args.spans:
            tracer.dump(Path(args.spans))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""knotwind benchmark: three closed-loop workloads, checked outputs, optional traced run.

Run from the root of a checkout:

    python3 bench/run.py                                   # every workload, default seed
    python3 bench/run.py --workload vseq-mixed --seed 3 --seconds 30 --trace 0
    python3 bench/run.py --workload cli-cached --trace 1   # per-layer metrics
    python3 bench/run.py --workload all --steadiness 10    # run-to-run spread vs bounds
    python3 bench/run.py --record-golden                   # rewrite bench/golden_cli.json

Each measurement runs the workload in a fresh interpreter (bench/worker.py),
so peak memory and the package's module-level caches belong to it alone.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones from a traced run, plus the trace overhead against an
untraced run of the same seed.  See bench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import workloads as W  # noqa: E402  (needs the path above)

TMP = ROOT / ".bench_tmp"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5  # fresh interpreters that only time the set-up, before and again after the run
SETUP_GAP_S = 0.3  # pause between them, so that they sample more than one moment of the machine
TAIL_PERCENTILES = (95, 90, 75, 50)  # the first with >= 10 samples beyond it is reported
REF_PROBE_S = 0.008  # the speed probe on the reference machine, a 2-vCPU Xeon VM when quiet
PROBE_SPAN = 2  # windows on each side whose probes scale a window's times
MIN_WINDOWS = 5  # fewer complete windows: whole-run figures instead of window medians
WORKER_GRACE_S = 45  # beyond --seconds, before a worker counts as hung

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
TIMED = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms")  # scaled by the probe


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def run_conditions(seed: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "commit": git_commit(),
        "seed": seed,
        "optimize": sys.flags.optimize,
    }


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def worker(workload: str, seed: int, seconds: float, *flags: str) -> dict:
    """Run bench/worker.py in a fresh interpreter; its last stdout line is the result."""
    tmp = TMP / f"{workload}-{os.getpid()}"
    env = {k: v for k, v in os.environ.items() if k != "KNOTWIND_CACHE"}
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--tmp", str(tmp), *flags]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=seconds + WORKER_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish within {exc.timeout:.0f} s") from None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(f"{workload} worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"{workload} worker printed no result:\n{proc.stderr.strip()}") from None


def tail_latency(latencies: list[float]) -> tuple[int, float, int]:
    """(percentile, value, samples beyond it), nearest-rank."""
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        rank = max(1, math.ceil(pct / 100 * n))
        if n - rank >= 10 or pct == TAIL_PERCENTILES[-1]:
            return pct, ordered[rank - 1], n - rank
    raise AssertionError("unreachable")


def setup_times(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up seconds, probe seconds just after it) from fresh interpreters."""
    out = []
    for _ in range(SETUP_REPS):
        res = worker(workload, seed, 0, "--setup-only")
        out.append((res["setup_s"], res["probe_s"]))
        time.sleep(SETUP_GAP_S)
    return out


def smoothed_probe(probes: list[float], k: int) -> float:
    """Median of the probes of windows k-2..k+2: one probe is noisy, spells last minutes."""
    return statistics.median(probes[max(0, k - PROBE_SPAN):k + PROBE_SPAN + 1])


def timings(res: dict, scaled: bool) -> tuple[float, float, list[float]]:
    """(ops_per_s, p50 latency s, every latency s) of a worker's run.

    Rates and medians are medians over windows, which damp bursts of machine
    noise; with too few windows they cover the whole run.  When `scaled`, each
    window's times are scaled to the reference speed by the probe before it.
    """
    size, probes, lat = res["window_ops"], res["probes_s"], res["latencies_s"]
    factor = [REF_PROBE_S / smoothed_probe(probes, k) if scaled else 1.0 for k in range(len(probes))]
    lat = [t * factor[i // size] for i, t in enumerate(lat)]
    wins = res["windows_s"]
    if len(wins) >= MIN_WINDOWS:
        rate = size / statistics.median(w * f for w, f in zip(wins, factor))
        p50 = statistics.median(statistics.median(lat[k * size:(k + 1) * size]) for k in range(len(wins)))
    else:
        rate = len(lat) / (res["elapsed_s"] * statistics.median(factor))
        p50 = statistics.median(lat)
    return rate, p50, lat


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one untraced run, with set-up timed in several interpreters."""
    setups = setup_times(workload, seed)
    res = worker(workload, seed, seconds)
    setups += [(res["setup_s"], res["probes_s"][0])] + setup_times(workload, seed)
    attempted = res["attempted"]
    figures = {}
    for scaled in (True, False):
        rate, p50, lat = timings(res, scaled)
        pct, tail, beyond = tail_latency(lat)
        figures[scaled] = {
            "setup_s": statistics.median(s * (REF_PROBE_S / p if scaled else 1) for s, p in setups),
            "ops_per_s": rate,
            "latency_p50_ms": p50 * 1000,
            "latency_tail_ms": tail * 1000,
            "peak_rss_mb": res["peak_rss_mb"],
        }
    return {
        "workload": workload,
        "attempted": attempted,
        "failed": res["failed"],
        "mismatched": res["mismatched"],
        "notes": res["notes"],
        "tail": {"percentile": pct, "samples": len(lat), "beyond": beyond},
        "windows": len(res["windows_s"]),
        "probe_median_s": statistics.median(res["probes_s"]),
        "setup_runs_s": setups,
        "metrics": figures[True],
        "unscaled": figures[False],
        "ratios": {
            "fail_ratio": res["failed"] / attempted,
            "mismatch_ratio": res["mismatched"] / attempted,
        },
    }


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """Per-layer metrics of a traced run, and its overhead against a shorter untraced run."""
    plain = worker(workload, seed, seconds / 2)
    spans = OUT / f"spans-{workload}-seed{seed}"
    traced = worker(workload, seed, seconds, "--trace", "--spans", str(spans))
    plain_rate, traced_rate = timings(plain, True)[0], timings(traced, True)[0]
    layers = dict(traced["per_layer"])
    layers["trace.ops_per_s_delta"] = plain_rate - traced_rate
    layers["trace.overhead_share"] = 1 - traced_rate / plain_rate
    return {
        "workload": workload,
        "attempted": traced["attempted"] + plain["attempted"],
        "failed": traced["failed"] + plain["failed"],
        "mismatched": traced["mismatched"] + plain["mismatched"],
        "notes": plain["notes"] + traced["notes"],
        "untraced_ops_per_s": plain_rate,
        "traced_ops_per_s": traced_rate,
        "spans": str(spans.relative_to(ROOT)),
        "per_layer": layers,
    }


def layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def report(result: dict, trace: bool, conditions: dict) -> dict:
    """Print the human-readable lines; return the contract's JSON object."""
    wl = result["workload"]
    print(f"# run conditions: {json.dumps(conditions)}")
    if trace:
        units = layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in result["per_layer"].items()}
        print(f"# {wl}: traced {result['traced_ops_per_s']:.2f} ops/s, untraced "
              f"{result['untraced_ops_per_s']:.2f} ops/s; spans in {result['spans']}.*")
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in result["metrics"].items()}
        tail = result["tail"]
        print(f"# {wl}: speed probe median {result['probe_median_s'] * 1000:.3f} ms, "
              f"reference {REF_PROBE_S * 1000:g} ms; timings below are scaled to the reference")
        for name, m in metrics.items():
            extra = ""
            if name == "latency_tail_ms":
                extra = f"  (p{tail['percentile']} of {tail['samples']} samples, {tail['beyond']} beyond)"
            if name in TIMED:
                extra += f"  [unscaled {result['unscaled'][name]:.6g}]"
            print(f"# {wl} {name} = {m['value']:.6g} {m['unit']}{extra}")
        for name, value in result["ratios"].items():
            print(f"# {wl} {name} = {value:.6g} ratio")
    for note in result["notes"]:
        print(f"# {wl} {note}")
    correct = result["mismatched"] == 0 and result["failed"] == 0
    doc = {"correct": correct, "attempted": result["attempted"], "failed": result["failed"],
           "metrics": metrics}
    write_detail(result, trace, conditions, doc)
    return doc


def write_detail(result: dict, trace: bool, conditions: dict, doc: dict | None = None) -> None:
    """Keep everything a run measured in .bench_out/<workload>-seed<n>-trace<t>.json."""
    OUT.mkdir(exist_ok=True)
    detail = OUT / f"{result['workload']}-seed{conditions['seed']}-trace{int(trace)}.json"
    detail.write_text(json.dumps({"conditions": conditions, **result, "result": doc}, indent=1) + "\n")


def steadiness(names: list[str], runs: int, seconds: float) -> bool:
    """Run each workload on seeds 1..runs; print each metric's spread against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for wl in names:
        values: dict[str, list[float]] = {k: [] for k in bounds}
        raw: dict[str, list[float]] = {k: [] for k in bounds}
        for seed in range(1, runs + 1):
            res = measure(wl, seed, seconds)
            write_detail(res, False, run_conditions(seed))
            for k in bounds:
                values[k].append(res["metrics"][k])
                raw[k].append(res["unscaled"][k])
            print(f"# {wl} seed {seed}: probe {res['probe_median_s'] * 1000:.3f} ms, "
                  + ", ".join(f"{k}={res['metrics'][k]:.5g} ({res['unscaled'][k]:.5g})" for k in bounds),
                  flush=True)
        for k, vals in raw.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{wl:17s} {k:15s} unscaled median {med:10.5g}  spread {(q3 - q1) / med:6.3f}")
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = spread <= bounds[k] / 3 or k == "setup_s"
            steady &= ok
            print(f"{wl:17s} {k:15s} median {med:10.5g}  spread {spread:6.3f}  bound {bounds[k]:.2f}"
                  f"  {'ok' if ok else 'WIDE (above a third of the bound)'}")
    return steady


def record_golden() -> int:
    """Digest every json/csv command line cli-cached can issue, run without a cache."""
    sys.path.insert(0, str(ROOT / "src"))
    from knotwind import cli

    W.write_dtables(ROOT / W.DTABLE_DIR)
    os.chdir(ROOT)
    golden = {}
    for words, expr in W.cli_universe():
        for fmt in ("json", "csv"):
            key = W.golden_key(words, expr, fmt)
            status, out, err = cli.run(list(W.cli_argv(words, expr, fmt, None)))
            if status != 0:
                raise BenchError(f"{key} exited {status}: {err}")
            golden[key] = W.cli_digest(fmt, out)
    (BENCH / "golden_cli.json").write_text(json.dumps(golden, indent=0, sort_keys=True) + "\n")
    print(f"recorded {len(golden)} golden digests")
    return 0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", type=int, metavar="RUNS", default=0,
                    help="run each workload on RUNS seeds and print spreads against the bounds")
    ap.add_argument("--record-golden", action="store_true")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        print("refusing to run under python -O: __debug__ is off, which skips the route "
              "cross-check in v_sequence and the cache spot check", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "knotwind" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}: run from the root of a knotwind checkout",
              file=sys.stderr)
        return 2
    names = list(W.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if args.record_golden:
            return record_golden()
        if args.steadiness:
            return 0 if steadiness(names, args.steadiness, args.seconds) else 1
        conditions = run_conditions(args.seed)
        docs = {}
        for wl in names:
            if args.trace:
                result = measure_traced(wl, args.seed, args.seconds)
            else:
                result = measure(wl, args.seed, args.seconds)
            docs[wl] = report(result, bool(args.trace), conditions)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps(docs[names[0]] if len(names) == 1 else docs))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The repository benchmark: one command for the ``build``, ``query`` and
``serve`` workloads.

    python3 perfbench/run.py --workload {build,query,serve} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Inputs are prepared from ``--seed``
(untimed, cached under ``.perfbench/``); ``--seconds`` is the window
each workload spreads its measured operations over (the build batches,
the query workload's searches and recommendations, the serve
workload's open loop).  Human-readable figures and provenance come first; the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a separate traced run.  The exit
code is 0 only when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("build", "query", "serve")

#: Set-ups per untraced child workload; ``setup_s`` is their median.
#: The query (and serve) set-up is a full snapshot load of about ten
#: seconds, so those runs set up once and rely on the median across runs.
SETUP_REPEATS = {"build": 3, "query": 1}
#: Wall-clock limit for one child workload process.
CHILD_TIMEOUT_S = 170


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _child(spec: dict[str, Any]) -> tuple[float, dict[str, Any]]:
    """Run one workload in a fresh interpreter; returns (spawn time, result)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(BENCH)]))
    spawned = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pbench.child", json.dumps(spec)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{spec['workload']} child exited with {done.returncode}")
    return spawned, json.loads(done.stdout.strip().splitlines()[-1])


def _run_child_workload(args: argparse.Namespace, prepared: Any, out: Path) -> dict[str, Any]:
    spec = {
        "workload": args.workload,
        "corpus_dir": str(prepared.corpus_dir),
        "out_dir": str(out),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "setup_only": True,
    }
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS[args.workload] - 1):
            spawned, probe = _child(spec)
            setups.append(probe["setup_done"] - spawned)
    spawned, result = _child(dict(spec, setup_only=False))
    if "setup_done" in result:
        setups.append(result["setup_done"] - spawned)
    result["setups"] = setups
    result["setup_s"] = statistics.median(setups) if setups else 0.0
    return result


def main(argv: list[str]) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    from pbench.measure import P50, P90, Tally, percentile
    from pbench.metrics import PER_LAYER, REPORTED, UNITS, result_line
    from pbench.prepare import N_INDEXED, N_OBJECTS, STATE_DIR, prepare

    started = time.perf_counter()
    prepared = prepare(ROOT, args.seed, with_index=args.workload != "build")
    out = ROOT / STATE_DIR / "results" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    if args.workload == "serve":
        from pbench.serve import run_serve

        work = out / "work"
        work.mkdir()
        try:
            result = run_serve(ROOT, prepared, args.seed, args.seconds, bool(args.trace), work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        tally = result["tally"]
    else:
        result = _run_child_workload(args, prepared, out)
        tally = Tally(**result["tally"])
        (out / "index.bin").unlink(missing_ok=True)

    ops = result["ops_ms"]
    p50, p90 = percentile(ops, P50), percentile(ops, P90)
    values: dict[str, float] = {
        "setup_s": result["setup_s"],
        "peak_rss_mb": result["peak_rss_mb"],
        "op_p50_ms": p50.value,
        "op_p90_ms": p90.value,
        "throughput_per_s": result["throughput_per_s"],
    }
    figures = dict(result["figures"], failed_ratio=tally.failed_ratio)
    provenance = {
        "commit": _commit(),
        "source_digest": prepared.key.split("-")[0],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "host": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "corpus": f"{N_INDEXED} indexed + {N_OBJECTS - N_INDEXED} stream objects",
        "prepared": f"{prepared.cache_state} in {prepared.prepare_s:.1f}s",
        "cache_state": "op_* first-touch (distinct ids); repeat_p50_ms repeat (hot set)",
    }

    print("provenance: " + json.dumps(provenance))
    if args.trace:
        layers = {name: 0.0 for name, _, _ in PER_LAYER}
        layers.update(result.get("counts", {}))
        layers.update(result.get("layers", {}))
        layers.update(figures)
        for name, unit, _ in PER_LAYER:
            print(f"  {name:34s} {layers[name]:14.6g} {unit}")
        print(f"  (unattributed remainder of the traced wall time: {layers['trace.unattributed_s']:.3f} s)")
        print("  self time by span (span minus the time its children cover):")
        top = sorted(result["self_times"].items(), key=lambda item: -item[1])[:10]
        for name, seconds in top:
            print(f"    {name:32s} {seconds:10.3f} s")
        line = result_line(tally.failed == 0, tally.attempted, tally.failed, layers, traced=True)
    else:
        print(f"  setup_s          {values['setup_s']:.4f} s (median of {result['setups']})")
        print(f"  peak_rss_mb      {values['peak_rss_mb']:.1f} MB")
        print(f"  op_p50_ms        {p50.describe('ms')}")
        print(f"  op_p90_ms        {p90.describe('ms')}")
        print(f"  throughput_per_s {values['throughput_per_s']:.3f} 1/s")
        for name in REPORTED[args.workload] + ("failed_ratio",):
            print(f"  {name:16s} {figures[name]:.6g} {UNITS[name]}")
        line = result_line(tally.failed == 0, tally.attempted, tally.failed, values, traced=False)
    if result.get("backlogged"):
        print("  open-loop phase BACKLOGGED: its percentiles are not latency")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    print(f"  attempted={tally.attempted} failed={tally.failed} wall={time.perf_counter() - started:.1f}s")
    record = {"provenance": provenance, "result": json.loads(line), "figures": figures}
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print(line, flush=True)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

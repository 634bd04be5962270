"""The repo benchmark: one workload (or all three) in fresh interpreters.

Run from the repository root::

    python3 perfbench/run.py --workload sim_sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` prints every end-to-end metric, host-speed corrected and raw;
``--trace 1`` makes a separate traced run and prints every per-layer metric.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402

#: Fresh interpreters whose start-to-inputs-ready time gives ``setup_s``
#: (the first also runs the checks, the last goes on to the timed phase).
SETUP_SAMPLES = 5
#: Wall-clock limit on all the worker processes of one workload: a fixed
#: allowance for the set-ups, the checks and extra rounds that reach
#: ``worker.MIN_ITEMS``, plus the planned rounds at a third of the
#: reference host's speed (reference loops and traced calls included).
DEADLINE_FIXED_S = 60.0
DEADLINE_SLOWDOWN = 3.0


class WorkerError(RuntimeError):
    pass


def worker_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(common.BLAS_THREADS)
    return env


def spawn(root, workload, seed, seconds, mode, deadline):
    """Run one worker; return (seconds from start to READY, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--mode", mode]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=worker_env(root), stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if timed_out.is_set():
        raise WorkerError(f"{workload} worker ({mode}) killed at the workload's deadline "
                          f"({DEADLINE_FIXED_S:.0f} s + {DEADLINE_SLOWDOWN:g} x the planned rounds)")
    if code != 0 or first.strip() != "READY" or not lines:
        raise WorkerError(f"{workload} worker ({mode}) exited with code {code}")
    return ready_s, json.loads(lines[-1])


def run_workload(root, workload, seed, seconds, trace):
    """All worker processes of one workload; returns the printable summary."""
    planned_s = common.planned_rounds(workload, seconds, trace) * common.ROUND_S[workload]
    deadline = time.monotonic() + DEADLINE_FIXED_S + DEADLINE_SLOWDOWN * planned_s
    if trace:
        _, result = spawn(root, workload, seed, seconds, "trace", deadline)
        return result
    setups = []
    checks = []
    for sample in range(SETUP_SAMPLES - 1):
        ready_s, out = spawn(root, workload, seed, seconds, "check" if sample == 0 else "setup", deadline)
        setups.append((ready_s, out["ref_ms"]))
        checks += out["checks"]
    ready_s, result = spawn(root, workload, seed, seconds, "run", deadline)
    setups.append((ready_s, result["setup_ref_ms"]))
    result["checks"] = checks + result["checks"]
    result["end_to_end"]["setup_s"] = {
        "corrected": common.median([s * common.host_factor(ref, ref, common.REF_PARTS["setup"]) for s, ref in setups]),
        "raw": common.median([s for s, _ in setups]),
    }
    return result


def print_summary(result, seconds):
    workload = result["workload"]
    print(f"== {workload}  seed={result['seed']}  seconds={seconds}  "
          f"blas_threads={result['blas_threads']} (nproc {os.cpu_count()})  "
          f"python {platform.python_version()}")
    parts = common.REF_PARTS[workload]
    refs = [common.ref_time(r, parts) for r in result["ref_ms"]]
    factors = [seg["factor"] for seg in result["segments"]]
    print(f"host reference loop ({' + '.join(parts)}): nominal {common.ref_time(common.NOMINAL_REF_MS, parts):.1f} ms, "
          f"measured median {common.median(refs):.1f} ms (min {min(refs):.1f}, max {max(refs):.1f}) "
          f"over {len(refs)} runs; correction factors {min(factors):.3f}-{max(factors):.3f}")
    if "end_to_end" in result:
        e2e = result["end_to_end"]
        print(f"{'metric':<16}{'unit':<7}{'corrected':>14}{'raw':>14}")
        for name, unit, _ in common.END_TO_END:
            print(f"{name:<16}{unit:<7}{e2e[name]['corrected']:>14.4f}{e2e[name]['raw']:>14.4f}")
        print(f"({e2e['items']} timed items in {len(result['segments'])} segments, "
              f"{result['segments'][-1]['round'] + 1} rounds; peak RSS before the timed rounds "
              f"{result['peak_rss_mb_before_timed']:.1f} MB)")
    else:
        units = dict(common.PER_LAYER)
        print(f"{'per-layer metric':<40}{'unit':<8}{'value':>18}")
        for name, value in result["per_layer"].items():
            print(f"{name:<40}{units[name]:<8}{value:>18.4f}")
        layer = result["per_layer"]
        print(f"span coverage: {100 - layer['trace.unattributed_pct']:.2f}% of the traced rounds; "
              f"tracing overhead {layer['trace.overhead_pct']:+.2f}% against untraced rounds")
    print(f"operations: attempted {result['attempted']}, failed {len(result['failures'])}")
    for failure in sorted(set(result["failures"])):
        print(f"  FAILED x{result['failures'].count(failure)}  {failure}")
    for check in result["checks"]:
        print(f"check {'ok  ' if check['ok'] else 'FAIL'}  {check['name']} ({check['detail']})")
        for problem in check["problems"][:5]:
            print(f"      {problem}")


def final_line(results, trace):
    """The JSON summary line: one workload's metrics, or every workload's under a prefix."""
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else result["workload"] + "."
        if trace:
            units = dict(common.PER_LAYER)
            values = {n: (v, units[n]) for n, v in result["per_layer"].items()}
        else:
            values = {n: (result["end_to_end"][n]["corrected"], u) for n, u, _ in common.END_TO_END}
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return {
        "correct": all(c["ok"] for r in results for c in r["checks"]),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(len(r["failures"]) for r in results),
        "metrics": metrics,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {root} holds no src/repro; run from the repository root", file=sys.stderr)
        return 2
    workloads = common.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for workload in workloads:
        try:
            result = run_workload(root, workload, args.seed, args.seconds, args.trace)
        except (WorkerError, json.JSONDecodeError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        print_summary(result, args.seconds)
        results.append(result)
    print(json.dumps(final_line(results, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

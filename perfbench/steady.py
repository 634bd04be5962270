"""Steadiness of the benchmark: N runs per workload, quartiles, agreement.

Run from the repository root::

    python3 perfbench/steady.py --runs 10 --out .perfbench_runs/a.json
    python3 perfbench/steady.py --runs 10 --out .perfbench_runs/b.json --against .perfbench_runs/a.json

Every workload runs at BENCHMARK.json's ``run_seconds``, each run with its
own seed (``--first-seed`` onwards); the workloads take turns within a
seed so that slow spells of the host fall on all of them. For every
end-to-end metric it prints the median, the quartiles and the spread
(q3 - q1) / median, corrected and raw, against the bound in
BENCHMARK.json; a spread over its bound fails. Given an earlier set it
also says whether the two agree: each median within the bound of the
first set's, in either direction, since both sets run the same code, and
the same share of failed operations. Exit code 0 means every check held.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import run  # noqa: E402


def collect(root, seeds, seconds):
    runs = []
    for seed in seeds:
        for workload in common.WORKLOADS:
            result = run.run_workload(root, workload, seed, seconds, 0)
            line = run.final_line([result], 0)
            runs.append({
                "workload": workload,
                "seed": seed,
                "correct": line["correct"],
                "attempted": line["attempted"],
                "failed": line["failed"],
                "metrics": {n: result["end_to_end"][n] for n, _, _ in common.END_TO_END},
                "segments": result["segments"],
                "ref_ms": result["ref_ms"],
                "items": result["items"],
            })
            m = runs[-1]["metrics"]
            print(f"seed {seed:3d} {workload:<12} correct={line['correct']} failed={line['failed']}/"
                  f"{line['attempted']}  " + "  ".join(f"{n}={m[n]['corrected']:.4g}" for n, _, _ in common.END_TO_END),
                  flush=True)
    return runs


def by_workload(runs):
    grouped = {}
    for r in runs:
        grouped.setdefault(r["workload"], []).append(r)
    return grouped


def summarize(runs, bounds):
    """Print quartiles and spreads; return True if every spread is within its bound."""
    ok = True
    for workload, group in by_workload(runs).items():
        failed_share = {r["failed"] / r["attempted"] for r in group}
        print(f"== {workload}: {len(group)} runs, seeds {[r['seed'] for r in group]}, "
              f"all correct: {all(r['correct'] for r in group)}, failed share {sorted(failed_share)}")
        print(f"  {'metric':<14}{'q1':>12}{'median':>12}{'q3':>12}{'spread':>9}{'raw spread':>12}{'bound':>8}")
        for name, _, _ in common.END_TO_END:
            q1, q2, q3 = common.quartiles([r["metrics"][name]["corrected"] for r in group])
            r1, r2, r3 = common.quartiles([r["metrics"][name]["raw"] for r in group])
            spread, raw_spread = (q3 - q1) / q2, (r3 - r1) / r2
            verdict = ""
            if spread > bounds[name]:
                verdict, ok = "OVER BOUND", False
            elif spread > bounds[name] / 3:
                verdict = "above bound/3"
            print(f"  {name:<14}{q1:>12.4f}{q2:>12.4f}{q3:>12.4f}{spread:>9.3f}{raw_spread:>12.3f}"
                  f"{bounds[name]:>8.2f}  {verdict}")
        ok = ok and all(r["correct"] for r in group) and len(failed_share) == 1
    return ok


def agree(first, second, bounds):
    """Print, per workload and metric, the second set's median against the first's."""
    ok = True
    a, b = by_workload(first), by_workload(second)
    for workload in (w for w in a if w in b):
        share_a = {r["failed"] / r["attempted"] for r in a[workload]}
        share_b = {r["failed"] / r["attempted"] for r in b[workload]}
        same = share_a == share_b and len(share_a) == 1
        ok = ok and same
        print(f"== {workload}: failed share {sorted(share_a)} vs {sorted(share_b)}: {'same' if same else 'DIFFERENT'}")
        for name, _, _ in common.END_TO_END:
            m1 = common.median([r["metrics"][name]["corrected"] for r in a[workload]])
            m2 = common.median([r["metrics"][name]["corrected"] for r in b[workload]])
            change = (m2 - m1) / m1
            fine = abs(change) <= bounds[name]
            ok = ok and fine
            print(f"  {name:<14}{m1:>12.4f}{m2:>12.4f}  change {100 * change:+6.2f}% "
                  f"(bound {100 * bounds[name]:.0f}%)  {'ok' if fine else 'DISAGREE'}")
    return ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write the runs of this set here")
    parser.add_argument("--against", type=Path, help="an earlier set to compare this one with")
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = common.load_benchmark(root)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + args.runs)
    sets = [collect(root, seeds, bench["run_seconds"])]
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"seconds": bench["run_seconds"], "runs": sets[0]}, indent=1))
    if args.against:
        sets.insert(0, json.loads(args.against.read_text())["runs"])
    ok = all([summarize(s, bounds) for s in sets])
    if len(sets) == 2:
        ok = agree(sets[0], sets[1], bounds) and ok
    print("steady: every check held" if ok else "steady: NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark on several seeds and report each metric's spread.

Usage, from the root of a source checkout::

    python3 perfbench/prove.py --runs 10 [--workload NAME ...] [--out FILE]

For each workload it runs ``perfbench/run.py`` once per seed, sequentially,
and prints for every end-to-end metric the median, the quartiles and the
spread, the distance between the quartiles as a share of the median
(``statistics.quantiles(values, n=4)``). A spread at or above a third of the
metric's bound in BENCHMARK.json is flagged. It also checks that the
deterministic counts repeat exactly when a seed is run twice.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload, seed, seconds, trace=0):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--out", help="also write the summary as JSON to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seeds = range(args.first_seed, args.first_seed + args.runs)
    values = {w: {name: [] for name in bounds} for w in workloads}
    counts = {}
    for seed in seeds:  # seed-major, so slow drift of the machine hits every workload alike
        for w in workloads:
            report, final = run_once(w, seed, args.seconds)
            if not final["correct"]:
                raise SystemExit(f"{w} seed {seed}: {final['failed']} failed answers: {report['failures']}")
            for name in bounds:
                values[w][name].append(final["metrics"][name]["value"])
            counts.setdefault(seed, report["counts"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in final["metrics"].items()), flush=True)

    repeat, _ = run_once(workloads[0], args.first_seed, 1)
    counts_repeat = repeat["counts"] == counts[args.first_seed]
    print(f"deterministic counts repeat at seed {args.first_seed}: {counts_repeat}")

    summary = {"seconds": args.seconds, "seeds": list(seeds), "counts_repeat": counts_repeat,
               "counts": counts[args.first_seed], "workloads": {}}
    steady = counts_repeat
    for w in workloads:
        summary["workloads"][w] = {}
        for name, bound in bounds.items():
            s = spread(values[w][name])
            summary["workloads"][w][name] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            steady &= not flag
            print(f"{w:13s} {name:24s} median={s['median']:.6g} spread={s['spread']:.4f} "
                  f"bound={bound}{flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

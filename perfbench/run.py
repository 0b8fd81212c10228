"""Run one workload of the urania benchmark and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload table-sweep --seed 1 --seconds 10 --trace 0

Workloads (closed loop, one caller, one query at a time):

- ``table-sweep``: in-process table-mode queries on a seeded stream, each
  timed as plain ``evaluate.geocentric_at_table`` and as
  ``evaluate.counted_query("table", ...)``. Set-up is ``load_tables``.
- ``direct-sweep``: the same stream through ``geocentric.geocentric_at`` and
  ``counted_query("direct", ...)``. Set-up is ``dataset.load_elements``.
- ``cli-oneshot``: fresh ``python -m urania query`` processes, alternating
  ``--mode table`` and ``--mode direct``. Set-up is ``urania gen --all
  --double 64x64`` run in-process.

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run. Metric names,
units and bounds are listed in BENCHMARK.json at the root of the checkout.
The line before the last is a report with the deterministic counts, the
failure reasons and the sample counts. The exit code is 1 when any answer
failed its check, and 2 when the checkout has no urania sources.
"""

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description="urania benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "urania" / "__init__.py").is_file():
        print(f"error: no urania sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness

    final, report = harness.run(args.workload, args.seed, args.seconds, args.trace, ROOT)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

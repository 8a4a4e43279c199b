"""nshard benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload certify --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src`` directory.  Prints one line per metric with its unit, then one JSON
object (correct, attempted, failed, metrics) as the last line, and writes the
full record, with machine facts and per-job digests, to ``bench/out/``.
With ``--trace 1`` the metrics are per-layer, and the spans go to an .npz
file beside the record.
"""

import argparse
import json
import os
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from nbench import THREAD_ENV  # noqa: E402  (imports nothing heavy)

# BLAS and OpenMP pools: one thread, pinned before numpy is first imported.
os.environ.update({var: "1" for var in THREAD_ENV})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["certify", "montecarlo", "invariants"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "nshard" / "__init__.py").is_file():
        print(f"error: no nshard sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import nshard

    if Path(nshard.__file__).resolve().parent != src / "nshard":
        print(f"error: imported nshard from {nshard.__file__}, not from {src}", file=sys.stderr)
        return 2
    from nbench import harness

    os.chdir(ROOT)  # job output paths are relative, so recorded configs match across checkouts
    out_dir = Path("bench") / "out"
    record = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir, src)
    record["facts"] = harness.machine_facts(ROOT)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {record['attempted']} jobs, "
          f"{record['failed']} failed (failed_frac {record['failed_frac']:.4g}); work unit {record['work_unit']}")
    for key, val in record["info"].items():
        print(f"  {key}: {val}")
    for problem in record["problems"] + record["trace_problems"]:
        print(f"  problem: {problem}")
    for key, m in record["metrics"].items():
        print(f"{key} = {m['value']!r} {m['unit']}")
    print(harness.summary_line(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Print the ROADMAP baseline table (memoryless dilation, seconds per call,
layer x K) from two traced benchmark runs: K = 2 and 3 from mixed-small and
K = 4 from memoryless-k4-full, the memoryless K = 4 pipeline with every
analysis. Run from the repository root:

    python3 perfbench/baseline.py [--seed N]

It takes about three minutes on a 2-core box.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def traced_rows(workload: str, seed: int, seconds: int) -> dict:
    subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    path = os.path.join(ROOT, ".perfbench",
                        f"{workload}-seed{seed}-trace1.json")
    with open(path, encoding="utf-8") as fh:
        return {int(k): row for k, row in json.load(fh)["baseline"].items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    rows = traced_rows("mixed-small", args.seed, 30)
    rows.update(traced_rows("memoryless-k4-full", args.seed, 0))
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from tracing import format_baseline
    print(format_baseline(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())

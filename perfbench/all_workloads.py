"""Run every workload once, each in a fresh interpreter, and print the
results one after another.

Usage (from the repository root)::

    python3 perfbench/all_workloads.py --seed 1 --seconds 45 [--trace 1]

Each workload prints its metrics with units, the failure and inconclusive
counts, the oracle verdicts and the environment; see ``run.py``.  The exit
code is nonzero when any workload's run failed or reported a wrong answer.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import corpus

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ok = True
    for workload in corpus.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(out.stdout)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        ok = ok and out.returncode == 0 and bool(lines) \
            and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

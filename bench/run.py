"""Benchmark entry point.

    python3 bench/run.py --workload {probe,diffuse,sections,verify} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The workload runs in a fresh interpreter
(``worker.py``) with ``src`` on its path, so the package need not be
installed. With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics ``setup_s``, ``wall_s``, ``cpu_s`` and
``peak_rss_mb``; with ``--trace 1`` it holds the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("probe", "diffuse", "sections", "verify")
DEADLINE_S = 170.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="spd-sheaf benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spdsheaf" / "__init__.py").is_file():
        print(f"error: no spdsheaf package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        print("error: the workload overran the time limit", file=sys.stderr)
        return 3
    if done.returncode != 0:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 3
    print(done.stdout.strip().splitlines()[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())

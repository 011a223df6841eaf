"""Paired in-process CPU timing of two source trees on a benchmark workload.

Usage (from the repository root):

    python3 tools/inprocess_ab.py PARENT CHANGE [--workload W] [--seed S] [--rounds N]

PARENT and CHANGE are checkouts, each holding ``src/ekslab``.  The steps of
the workload's pass come from ``WORKLOADS`` in this repository's
perfbench/run.py, read by path as tools/compare_outputs.py reads them.  Its
gen steps run once, with PARENT, and both trees then read those artifacts.
Each round starts one fresh interpreter per tree, alternating which tree
goes first, with that tree's ``src`` on PYTHONPATH and
PYTHONDONTWRITEBYTECODE=1.  The interpreter runs every verify and derive
step through ``ekslab.cli.main`` and times each with
``time.process_time``, so interpreter start-up and imports are left out.
A round's time for a tree is the sum over its steps.

Printed: each tree's median and quartiles over the rounds, the median of
the paired ratios CHANGE/PARENT, and the number of rounds in which CHANGE
took less CPU time.  Defaults: chain-ladder, seed 0, 10 rounds.  The exit
status is 0, or 2 for bad arguments or a step that exits other than 0 or 1.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import load_workloads, run_steps  # noqa: E402

# Run in each fresh interpreter: argv[1] is the JSON list of step argvs.
CHILD = """
import json, sys, time
from ekslab import cli
times = []
for argv in json.loads(sys.argv[1]):
    start = time.process_time()
    code = cli.main(argv)
    times.append(time.process_time() - start)
    if code not in (0, 1):
        sys.exit(3)
print(json.dumps(times))
"""


def timed_round(tree: Path, argvs, directory: Path) -> float:
    """CPU seconds of one fresh interpreter of ``tree`` running every
    step in ``argvs``, summed over the steps."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          cwd=directory, env=env, capture_output=True,
                          text=True)
    if proc.returncode:
        raise RuntimeError(f"{tree}: a step failed (exit {proc.returncode})"
                           f"\n{proc.stderr}")
    return sum(json.loads(proc.stdout.splitlines()[-1]))


def spread(values) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=sorted(workloads),
                        default="chain-ladder")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    for tree in (args.parent, args.change):
        if not (tree / "src" / "ekslab" / "cli.py").is_file():
            parser.error(f"no ekslab sources under {tree / 'src'}")
    steps = workloads[args.workload](args.seed)
    trees = {"parent": args.parent, "change": args.change}
    times = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as work:
        directory = Path(work)
        gens = [s for s in steps if s.argv[0] == "gen"]
        run_steps(args.parent, gens, directory)
        argvs = [[a.replace("{dir}", str(directory)) for a in s.argv]
                 for s in steps if s.argv[0] != "gen"]
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name in order:
                try:
                    times[name].append(
                        timed_round(trees[name], argvs, directory))
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
    print(f"{args.workload} seed {args.seed}, {args.rounds} round(s), "
          f"in-process CPU seconds per round")
    for name in ("parent", "change"):
        q1, q2, q3 = spread(times[name])
        print(f"{name}: median {q2:.4f} (quartiles {q1:.4f}-{q3:.4f})")
    ratios = [c / p for p, c in zip(times["parent"], times["change"])]
    wins = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(f"median paired ratio change/parent: "
          f"{statistics.median(ratios):.4f}; change faster in {wins} of "
          f"{args.rounds} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main())

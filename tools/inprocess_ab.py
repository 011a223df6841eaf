"""Paired in-process CPU timing of two source trees on a benchmark workload.

Usage (from the repository root):

    python3 tools/inprocess_ab.py PARENT CHANGE [--workload W] [--seed S] [--rounds N]

PARENT and CHANGE are checkouts, each holding ``src/ekslab``.  The steps of
the workload's pass come from ``WORKLOADS`` in this repository's
perfbench/run.py, read by path as tools/compare_outputs.py reads them.
Each round starts one fresh interpreter per tree, alternating which tree
goes first, with that tree's ``src`` on PYTHONPATH and
PYTHONDONTWRITEBYTECODE=1.  The interpreter runs every step of the pass in
order, its gen steps first, through ``ekslab.cli.main``, in a directory of
that tree's own, so each tree's verify and derive steps read the artifacts
its own gen steps wrote.  It times each step with ``time.process_time``,
so interpreter start-up and imports are left out.

Printed, for the gen steps and then for the verify and derive steps: each
tree's median and quartiles over the rounds of its summed step times, the
median of the paired ratios CHANGE/PARENT, and the number of rounds in
which CHANGE took less CPU time.  Last, every output of the pass whose
bytes differ between the two trees in some round, or none.  Defaults:
chain-ladder, seed 0, 10 rounds.  The exit status is 0, or 2 for bad
arguments or a step that exits other than 0 or 1.
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
from compare_outputs import load_workloads  # noqa: E402

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


def timed_round(tree: Path, argvs, directory: Path) -> list:
    """CPU seconds of each step in ``argvs``, run in order by one fresh
    interpreter of ``tree`` in ``directory``."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          cwd=directory, env=env, capture_output=True,
                          text=True)
    if proc.returncode:
        raise RuntimeError(f"{tree}: a step failed (exit {proc.returncode})"
                           f"\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def spread(values) -> tuple:
    """(first quartile, median, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _read(path: Path):
    return path.read_bytes() if path.is_file() else None


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
    steps = ([s for s in steps if s.argv[0] == "gen"]
             + [s for s in steps if s.argv[0] != "gen"])
    is_gen = [s.argv[0] == "gen" for s in steps]
    trees = {"parent": args.parent, "change": args.change}
    groups = {"gen": True, "verify and derive": False}
    # Per tree and group of steps, the summed step times of every round.
    times = {name: {label: [] for label in groups} for name in trees}
    differing = set()
    with tempfile.TemporaryDirectory() as work:
        dirs = {name: Path(work) / name for name in trees}
        for directory in dirs.values():
            directory.mkdir()
        for r in range(args.rounds):
            order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
            for name in order:
                argvs = [[a.replace("{dir}", str(dirs[name])) for a in s.argv]
                         for s in steps]
                try:
                    step_times = timed_round(trees[name], argvs, dirs[name])
                except RuntimeError as exc:
                    print(exc, file=sys.stderr)
                    return 2
                for label, gen in groups.items():
                    times[name][label].append(sum(
                        t for t, g in zip(step_times, is_gen) if g == gen))
            differing.update(s.output for s in steps
                             if _read(dirs["parent"] / s.output)
                             != _read(dirs["change"] / s.output))
    print(f"{args.workload} seed {args.seed}, {args.rounds} round(s), "
          f"in-process CPU seconds per round")
    for label, gen in groups.items():
        if gen not in is_gen:
            continue
        for name in trees:
            q1, q2, q3 = spread(times[name][label])
            print(f"{label}: {name} median {q2:.4f} "
                  f"(quartiles {q1:.4f}-{q3:.4f})")
        pairs = list(zip(times["parent"][label], times["change"][label]))
        ratios = [c / p for p, c in pairs]
        wins = sum(c < p for p, c in pairs)
        print(f"{label}: median paired ratio change/parent "
              f"{statistics.median(ratios):.4f}; change faster in {wins} of "
              f"{args.rounds} rounds")
    print(f"outputs whose bytes differ: "
          f"{', '.join(sorted(differing)) or 'none'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Compare the CLI outputs of two source trees on the benchmark workloads.

Usage (from the repository root):

    python3 tools/compare_outputs.py PARENT CHANGE [--workload W] [--seeds A-B]

PARENT and CHANGE are checkouts, each holding ``src/ekslab``.  The steps of
a workload's pass (its gen, verify and derive invocations) come from
``WORKLOADS`` in this repository's perfbench/run.py, which is read by path
and not edited.  For every workload and seed, each tree runs the steps in
order in a directory of its own, each step a fresh ``python3 -m
ekslab.cli`` process with that tree's ``src`` on PYTHONPATH and
PYTHONDONTWRITEBYTECODE=1, so no run leaves bytecode behind in either
tree.  Every output file and exit code that differs between the two trees
is printed; for a JSON output, with the ``checks`` keys added, removed and
changed, and the other top-level keys whose values differ.  The exit status
is 0 when nothing differs, 1 otherwise and 2 for bad arguments.
Without options every workload runs for seeds 0-9.
"""

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_PY = ROOT / "perfbench" / "run.py"


def load_workloads(path: Path = RUN_PY) -> dict:
    """``WORKLOADS`` of the benchmark runner at ``path``: name -> a function
    of the seed giving the pass's steps (``output`` and ``argv`` each)."""
    spec = importlib.util.spec_from_file_location("perfbench_run", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their defining module up by name.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def run_steps(tree: Path, steps, directory: Path) -> dict:
    """Run the steps in ``tree``, with "{dir}" in their argv read as
    ``directory``: output name -> (exit code, output bytes or None)."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    results = {}
    for step in steps:
        argv = [a.replace("{dir}", str(directory)) for a in step.argv]
        proc = subprocess.run([sys.executable, "-m", "ekslab.cli", *argv],
                              cwd=directory, env=env,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL)
        out = directory / step.output
        results[step.output] = (proc.returncode,
                                out.read_bytes() if out.is_file() else None)
    return results


def json_differences(data_a, data_b) -> list:
    """What differs between two outputs that are JSON objects, one phrase
    each: the ``checks`` keys added, removed and changed, then the other
    top-level keys whose values differ.  Empty when either is not one."""
    try:
        a, b = json.loads(data_a), json.loads(data_b)
    except (TypeError, ValueError):
        return []
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return []
    out = []
    checks_a, checks_b = a.get("checks"), b.get("checks")
    if isinstance(checks_a, dict) and isinstance(checks_b, dict):
        both = checks_a.keys() & checks_b.keys()
        for label, keys in (
                ("checks added", checks_b.keys() - checks_a.keys()),
                ("checks removed", checks_a.keys() - checks_b.keys()),
                ("checks changed",
                 {k for k in both if checks_a[k] != checks_b[k]})):
            if keys:
                out.append(f"{label}: {', '.join(sorted(keys))}")
    missing = object()
    other = sorted(k for k in a.keys() | b.keys() if k != "checks"
                   and a.get(k, missing) != b.get(k, missing))
    if other:
        out.append(f"other keys differ: {', '.join(other)}")
    return out


def compare(parent: Path, change: Path, steps) -> list:
    """The differences between the two trees' runs of ``steps``, one line
    each: an exit code or an output that is not the same."""
    with tempfile.TemporaryDirectory() as work:
        runs = []
        for name, tree in (("parent", parent), ("change", change)):
            directory = Path(work) / name
            directory.mkdir()
            runs.append(run_steps(tree, steps, directory))
    diffs = []
    for step in steps:
        (code_a, data_a), (code_b, data_b) = (run[step.output] for run in runs)
        if code_a != code_b:
            diffs.append(f"{step.output}: exit code {code_a} -> {code_b}")
        if data_a != data_b:
            diffs.append("; ".join([f"{step.output}: output differs",
                                    *json_differences(data_a, data_b)]))
    return diffs


def _seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        lo, hi = int(first), int(last or first)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seeds {text!r} are not A-B")
    if lo > hi:
        raise argparse.ArgumentTypeError(f"seeds {text!r} run backwards")
    return range(lo, hi + 1)


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=sorted(workloads),
                        help="the workload to compare (default: all)")
    parser.add_argument("--seeds", type=_seed_range, default=range(10),
                        help="inclusive seed range A-B (default 0-9)")
    args = parser.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "ekslab" / "cli.py").is_file():
            parser.error(f"no ekslab sources under {tree / 'src'}")
    compared = differing = 0
    for name in [args.workload] if args.workload else sorted(workloads):
        for seed in args.seeds:
            steps = workloads[name](seed)
            diffs = compare(args.parent, args.change, steps)
            for line in diffs:
                print(f"{name} seed {seed} {line}")
            compared += len(steps)
            differing += len(diffs)
    print(f"outputs compared: {compared}; differences: {differing}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

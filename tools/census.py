"""Run a named grid of CLI runs on one source tree and print each run's
verdicts, then how often each check failed.

Usage (from the repository root):

    python3 tools/census.py TREE GRID

TREE is a checkout holding ``src/ekslab``; GRID names one of ``GRIDS``:

* ``gate``: generic Z/9 r1 s2..s4, (Z/9)[C9] r1 s1, (Z/8)[C4] r1 s2 and
  consistent Z/9 r1 s3, seeds 0-9 (the gate of the verdict items in
  ROADMAP.md);
* ``bundles``: the 44 consistent bundles Z/9 r1 s3, Z/9 r2 s2, Z/5 r1 s2
  and Z/25 r1 s2, seeds 0-9, and Z/9 r1 s5, seeds 0-3.

Every run is ``gen``, then ``verify`` of the artifact and, for a bundle,
``derive``, each a fresh ``python3 -m ekslab.cli`` process with TREE's
``src`` on PYTHONPATH and PYTHONDONTWRITEBYTECODE=1, in a temporary
directory.  One line per run gives each command's exit code, the failing
checks with their witnesses (or "no witness") and ``derive``'s verdicts.
A summary follows, one line per check key that failed: in how many runs,
and how many of those failures had no witness.  The exit status is 0
whatever the verdicts, and 2 for bad arguments.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Grid entries: (profile, ring spec, r, s, seeds).
GRIDS = {
    "gate": [
        *(("generic", "3,2", 1, s, range(10)) for s in (2, 3, 4)),
        ("generic", "3,2,9", 1, 1, range(10)),
        ("generic", "2,3,4", 1, 2, range(10)),
        ("consistent", "3,2", 1, 3, range(10)),
    ],
    "bundles": [
        ("consistent", "3,2", 1, 3, range(10)),
        ("consistent", "3,2", 2, 2, range(10)),
        ("consistent", "5,1", 1, 2, range(10)),
        ("consistent", "5,2", 1, 2, range(10)),
        ("consistent", "3,2", 1, 5, range(4)),
    ],
}


def _cli(tree: Path, directory: Path, argv) -> int:
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, "-m", "ekslab.cli", *argv],
                          cwd=directory, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def _failures(path: Path, prefix: str = "") -> list:
    """(check key, witness or None) for each failing check of a report or
    derive output; empty when the file is missing or not JSON."""
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    witnesses = doc.get("witnesses", {})
    return [(prefix + key, witnesses.get(key) or None)
            for key, ok in sorted(doc.get("checks", {}).items()) if not ok]


def _phrase(command: str, code: int, failures) -> str:
    text = f"{command} {code}"
    if failures:
        text += " failed " + ", ".join(
            f"{key} ({'no witness' if w is None else json.dumps(w)})"
            for key, w in failures)
    return text


def one_run(tree: Path, profile: str, ring: str, r: int, s: int,
            seed: int):
    """Run one grid point: its line, and its failures (key, witness)."""
    name = f"{profile} {ring} r{r} s{s} seed {seed}"
    with tempfile.TemporaryDirectory() as work:
        work = Path(work)
        artifact = work / "artifact.json"
        code = _cli(tree, work, [
            "gen", "--ring", ring, "--r", str(r), "--s", str(s),
            "--profile", profile, "--seed", str(seed),
            "--out", str(artifact)])
        parts = [f"gen {code}"]
        failures = []
        if code == 0:
            report = work / "report.json"
            code = _cli(tree, work, ["verify", str(artifact), "--seed", "0",
                                     "--out", str(report)])
            failures = _failures(report)
            parts.append(_phrase("verify", code, failures))
            if profile == "consistent":
                derived = work / "derive.json"
                code = _cli(tree, work, ["derive", str(artifact),
                                         "--out", str(derived)])
                derive_failures = _failures(derived, "derive/")
                failures += derive_failures
                parts.append(_phrase("derive", code, derive_failures))
                try:
                    verdicts = json.loads(derived.read_text()).get(
                        "verdicts", {})
                except (OSError, ValueError):
                    verdicts = {}
                parts.append("verdicts " + (", ".join(
                    f"{k}={json.dumps(v)}" for k, v in sorted(
                        verdicts.items())) or "none"))
    return f"{name}: " + "; ".join(parts), failures


def census(tree: Path, grid) -> list:
    """The per-run lines of the grid, then the summary lines."""
    lines, failed, unwitnessed = [], {}, {}
    for profile, ring, r, s, seeds in grid:
        for seed in seeds:
            line, failures = one_run(tree, profile, ring, r, s, seed)
            lines.append(line)
            for key, witness in failures:
                failed[key] = failed.get(key, 0) + 1
                unwitnessed[key] = unwitnessed.get(key, 0) + (witness is None)
    lines.append(f"runs: {sum(len(entry[4]) for entry in grid)}; "
                 f"failing check keys: {len(failed)}")
    lines.extend(f"{key}: failed in {failed[key]} run(s), "
                 f"{unwitnessed[key]} with no witness"
                 for key in sorted(failed))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", type=Path)
    parser.add_argument("grid", choices=sorted(GRIDS))
    args = parser.parse_args(argv)
    if not (args.tree / "src" / "ekslab" / "cli.py").is_file():
        parser.error(f"no ekslab sources under {args.tree / 'src'}")
    for line in census(args.tree, GRIDS[args.grid]):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

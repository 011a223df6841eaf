"""End-to-end and per-layer benchmark of the ekslab CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain-ladder --seed 0 --seconds 30 --trace 0

The runner drives ``python3 -m ekslab.cli`` as a closed loop with one client:
one invocation at a time, each a fresh process, ``EKS_THREADS`` unset.  A run
repeats the workload's pass (every gen/verify/derive invocation in order)
while the next pass fits in ``--seconds``, then times the set-up probe on the
last pass's artifacts, and reports medians.  With
``--trace 1`` it alternates untraced and traced passes instead and reports the
per-layer metrics of the traced ones (see perfbench/README.md).

Every output is checked: exit code 0/1 as documented, no traceback, canonical
JSON of the expected schema, a ``passed`` flag and exit code that agree with
the checks, and bytes identical to every other repetition in the run
(traced ones included).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"

INVOCATION_TIMEOUT_S = 90.0
RUN_DEADLINE_S = 170.0
SETUP_PROBES = 9

END_TO_END = (
    ("setup_s", "s"),
    ("gen_s", "s"),
    ("verify_s", "s"),
    ("verify_cpu_s", "s"),
    ("pass_s", "s"),
    ("peak_rss_mb", "MB"),
)

LAYERS = ("rings", "modules", "biduals", "selmer", "stark", "kolyvagin",
          "euler", "cli")

# Span name -> the per-layer metrics taken from it.
SPAN_METRICS = {
    "rings.howell_int": ("calls", "s"),
    "rings.smith_int": ("calls", "s"),
    "rings.kernel_int": ("calls", "s"),
    "rings.solve_int": ("calls", "s"),
    "rings.det_int": ("calls", "s"),
    "rings.det_ring": ("calls", "s"),
    "rings.Matrix.to_base": ("calls", "s"),
    "rings.Matrix": ("calls",),
    "rings.GroupRing.mul": ("calls", "s"),
    "modules.kernel": ("calls", "s"),
    "modules.dual_module": ("calls", "s"),
    "modules.syzygies": ("calls", "s"),
    "modules.fitting_ideal": ("calls", "s"),
    "modules.solve_map": ("calls", "s"),
    "biduals.ExteriorBidual": ("calls", "s"),
    "biduals.bidual_contraction": ("calls", "s"),
    "biduals.bidual_functor_map": ("calls", "s"),
    "selmer.five_term_exact": ("calls", "s"),
    "selmer.fitt_recursion_holds": ("calls", "s"),
    "selmer.generate_instance": ("s",),
    "stark.StarkData": ("calls",),
    "stark.canonical_basis_system": ("calls", "s"),
    "stark.verify_cocycle": ("s",),
    "kolyvagin.KolyvaginData": ("calls",),
    "kolyvagin.regulator": ("calls", "s"),
    "kolyvagin.verify_fs": ("s",),
    "kolyvagin.system_from_ambient_tables": ("s",),
    "euler.derived_tables": ("calls", "s"),
    "euler.derivative_report": ("s",),
    "euler.consistent_instance": ("s",),
    "cli.suite_bidual": ("s",),
    "cli.suite_selmer": ("s",),
    "cli.suite_stark": ("s",),
    "cli.suite_kolyvagin": ("s",),
    "cli.suite_euler": ("s",),
}

# Timers of code that only some workloads reach.  They read exactly 0 on the
# others, so they are printed in the per-layer table but left out of the
# result line, which carries only metrics every workload measures.
WORKLOAD_SPECIFIC = frozenset({
    "rings.det_int.s",
    "rings.GroupRing.mul.s",
    "selmer.generate_instance.s",
    "kolyvagin.system_from_ambient_tables.s",
    "euler.derived_tables.s",
    "euler.derivative_report.s",
    "euler.consistent_instance.s",
    "euler.self_s",
    "cli.suite_euler.s",
})

GEN_SCHEMAS = ("selmer-instance/1", "euler-system/1", "eks-bundle/1")


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a pass; "{dir}" in argv is the pass directory."""

    kind: str
    output: str
    argv: tuple


def ring_label(spec: str) -> str:
    p, m, *orders = (int(x) for x in spec.split(","))
    return f"Z{p ** m}" + "".join(f"C{order}" for order in orders)


def _gen(name, ring, r, s, profile, seed):
    return Step("gen", f"{name}.json", (
        "gen", "--ring", ring, "--r", str(r), "--s", str(s),
        "--profile", profile, "--seed", str(seed),
        "--out", f"{{dir}}/{name}.json"))


def _verify(artifact, seed):
    return Step("verify", f"{artifact}.report.json", (
        "verify", f"{{dir}}/{artifact}.json", "--suite", "all",
        "--seed", str(seed), "--out", f"{{dir}}/{artifact}.report.json"))


def generic_ladder(instances, seed):
    """gen then verify of each (ring, r, s) with the generic profile."""
    names = [f"{ring_label(ring)}-r{r}-s{s}" for ring, r, s in instances]
    steps = [_gen(name, ring, r, s, "generic", seed)
             for name, (ring, r, s) in zip(names, instances)]
    steps += [_verify(name, seed) for name in names]
    return steps


def tower_derive(seed):
    return [
        _gen("tower", "3,2", 1, 3, "tower", seed),
        _gen("bundle", "3,2", 1, 3, "consistent", seed),
        _verify("bundle", seed),
        Step("derive", "bundle.derive.json", (
            "derive", "{dir}/bundle.json", "--out", "{dir}/bundle.derive.json")),
    ]


WORKLOADS = {
    "chain-ladder": lambda seed: generic_ladder(
        (("3,2", 1, 6), ("5,2", 2, 3), ("3,3", 1, 5)), seed),
    "group-ring": lambda seed: generic_ladder(
        (("3,2,3", 2, 1), ("3,2,3", 1, 2), ("3,3,3", 2, 1), ("5,2,5", 1, 1),
         ("2,3,4", 1, 1)), seed),
    "tower-derive": tower_derive,
}


# ---------------------------------------------------------------------------
# Invocations.
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    label: str
    kind: str
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    code: int = None
    reason: str = None
    digest: str = None
    checks_failed: int = 0
    trace: dict = None


class _Timeout:
    """Kills a child that outlives its timeout, never after it is reaped."""

    def __init__(self, pid: int, seconds: float):
        self._pid = pid
        self._lock = threading.Lock()
        self._reaped = False
        self.fired = False
        self._timer = threading.Timer(seconds, self._fire)
        self._timer.start()

    def _fire(self):
        with self._lock:
            if not self._reaped:
                self.fired = True
                os.kill(self._pid, signal.SIGKILL)

    def exited(self) -> bool:
        """Call once the child has exited but before it is reaped."""
        with self._lock:
            self._reaped = True
        self._timer.cancel()
        self._timer.join()
        return self.fired


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "EKS_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(argv, timeout: float, stderr_path: Path, outcome: Outcome) -> bytes:
    """Run argv to completion; fill wall/cpu/rss/code; return its stderr."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err,
                                env=child_env(), cwd=ROOT)
        guard = _Timeout(proc.pid, timeout)
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            # Interrupted: never leave the child running behind the runner.
            guard.exited()
            proc.kill()
            proc.wait()
            raise
        timed_out = guard.exited()
        _, status, usage = os.wait4(proc.pid, 0)
        outcome.wall_s = time.perf_counter() - start
    proc.returncode = outcome.code = os.waitstatus_to_exitcode(status)
    outcome.cpu_s = usage.ru_utime + usage.ru_stime
    outcome.rss_mb = usage.ru_maxrss / 1024.0
    if timed_out:
        outcome.reason = f"timed out after {timeout:.0f} s"
    return stderr_path.read_bytes()


def canonical(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


def check_output(kind: str, code: int, data: bytes):
    """(reason or None, FAIL-verdict count) for one CLI output."""
    try:
        doc = json.loads(data)
    except ValueError:
        return "output is not JSON", 0
    if canonical(doc) != data:
        return "output is not canonical JSON", 0
    if kind == "gen":
        if code != 0:
            return f"gen exited {code}", 0
        if doc.get("schema") not in GEN_SCHEMAS:
            return f"unexpected artifact schema {doc.get('schema')!r}", 0
        return None, 0
    expected = "eks-report/1" if kind == "verify" else "eks-derive/1"
    if doc.get("schema") != expected:
        return f"unexpected {kind} schema {doc.get('schema')!r}", 0
    checks = doc.get("checks", {})
    failed = sum(1 for ok in checks.values() if not ok)
    if doc.get("passed") is not (failed == 0):
        return "passed flag disagrees with the checks", failed
    if code != (1 if failed else 0):
        return f"exit code {code} disagrees with {failed} failed checks", failed
    if kind == "verify":
        suites = doc.get("config", {}).get("suites") or []
        counts = {s: sum(1 for k in checks if k.startswith(f"{s}/"))
                  for s in suites}
        if not suites or doc.get("timings") != counts:
            return "suite check counts disagree with the checks", failed
    return None, failed


# ---------------------------------------------------------------------------
# Runs.
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    traced: bool
    wall_s: float = 0.0
    outcomes: list = field(default_factory=list)

    def total(self, kind: str, attr: str = "wall_s") -> float:
        return sum(getattr(o, attr) for o in self.outcomes if o.kind == kind)

    def trace(self) -> dict:
        """The pass's traces summed over its invocations."""
        total = {"calls": {}, "seconds": {}, "self_seconds": {},
                 "counters": {}}
        for outcome in self.outcomes:
            for part, values in (outcome.trace or {}).items():
                for key, value in values.items():
                    total[part][key] = total[part].get(key, 0) + value
        return total


class Runner:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.steps = WORKLOADS[workload](seed)
        self.work = work
        self.started = time.perf_counter()
        self.invocations = []
        self.digests = {}
        self.problems = []
        self.n_dirs = 0
        self.last_dir = None

    def remaining(self) -> float:
        return self.started + RUN_DEADLINE_S - time.perf_counter()

    def invoke(self, step: Step, directory: Path, traced: bool) -> Outcome:
        outcome = Outcome(step.output, step.kind)
        self.invocations.append(outcome)
        timeout = min(INVOCATION_TIMEOUT_S, self.remaining())
        if timeout < 1.0:
            outcome.reason = "run deadline reached before the invocation"
            return outcome
        args = [a.replace("{dir}", str(directory)) for a in step.argv]
        trace_path = directory / f"{step.output}.trace"
        if traced:
            argv = [sys.executable, str(HERE / "traced_cli.py"),
                    str(trace_path), *args]
        else:
            argv = [sys.executable, "-m", "ekslab.cli", *args]
        stderr = spawn(argv, timeout, directory / f"{step.output}.err",
                       outcome)
        if outcome.reason:
            return outcome
        if outcome.code not in (0, 1):
            outcome.reason = f"exit code {outcome.code}"
        elif b"Traceback" in stderr:
            outcome.reason = "traceback on stderr"
        elif not (directory / step.output).is_file():
            outcome.reason = "no output written"
        if outcome.reason:
            return outcome
        data = (directory / step.output).read_bytes()
        outcome.reason, outcome.checks_failed = check_output(
            step.kind, outcome.code, data)
        outcome.digest = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(step.output, outcome.digest)
        if outcome.reason is None and outcome.digest != first:
            outcome.reason = ("output bytes differ from an earlier "
                              "repetition" + (" (traced)" if traced else ""))
        if traced:
            try:
                outcome.trace = json.loads(trace_path.read_text())
            except (OSError, ValueError):
                outcome.reason = outcome.reason or "no trace written"
        return outcome

    def setup_probes(self) -> list:
        """Wall times of fresh processes that parse the last pass's
        artifacts; a probe that cannot start reads as the run deadline."""
        artifacts = [str(self.last_dir / s.output) for s in self.steps
                     if s.kind == "gen"]
        times = []
        for i in range(SETUP_PROBES):
            outcome = Outcome(f"setup{i}", "setup")
            self.invocations.append(outcome)
            timeout = min(INVOCATION_TIMEOUT_S, self.remaining())
            if timeout < 1.0:
                outcome.reason = "run deadline reached before the invocation"
                continue
            argv = [sys.executable, str(HERE / "setup_probe.py"), *artifacts]
            spawn(argv, timeout, self.last_dir / "setup.err", outcome)
            if outcome.reason is None and outcome.code != 0:
                outcome.reason = f"setup probe exited {outcome.code}"
            times.append(outcome.wall_s)
        return times

    def run_pass(self, traced: bool) -> Pass:
        """One pass in a fresh directory, which is kept until the next."""
        if self.last_dir is not None:
            shutil.rmtree(self.last_dir, ignore_errors=True)
        self.n_dirs += 1
        self.last_dir = directory = self.work / f"pass{self.n_dirs}"
        directory.mkdir(parents=True)
        result = Pass(traced)
        start = time.perf_counter()
        for step in self.steps:
            result.outcomes.append(self.invoke(step, directory, traced))
        result.wall_s = time.perf_counter() - start
        return result

    def measure(self, seconds: float, traced_pairs: bool) -> list:
        """Repeat passes (or untraced/traced pairs) while the next one fits
        in ``seconds``; always at least one."""
        end = time.perf_counter() + seconds
        passes = []
        while True:
            start = time.perf_counter()
            passes.append(self.run_pass(traced=False))
            if traced_pairs:
                passes.append(self.run_pass(traced=True))
            took = time.perf_counter() - start
            now = time.perf_counter()
            if now + took > end or now + took > self.started + RUN_DEADLINE_S:
                return passes

    @property
    def failures(self) -> list:
        return [o for o in self.invocations if o.reason]


# ---------------------------------------------------------------------------
# Metrics.
# ---------------------------------------------------------------------------


def median_of(passes, fn) -> float:
    return statistics.median(fn(p) for p in passes)


def end_to_end(passes, setup_times) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    return {
        # No probe ran only when the run deadline passed; the run then
        # already reports failures.
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "gen_s": median_of(passes, lambda p: p.total("gen")),
        "verify_s": median_of(passes, lambda p: p.total("verify")),
        "verify_cpu_s": median_of(passes,
                                  lambda p: p.total("verify", "cpu_s")),
        "pass_s": median_of(passes, lambda p: p.wall_s),
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
    }


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(trace: dict) -> dict:
    """Every per-layer metric of one traced pass, keyed by name."""
    calls, seconds = trace["calls"], trace["seconds"]
    counters = trace["counters"]
    out = {}
    for name, parts in SPAN_METRICS.items():
        if "calls" in parts:
            out[f"{name}.calls"] = calls.get(name, 0)
        if "s" in parts:
            out[f"{name}.s"] = seconds.get(name, 0.0)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = trace["self_seconds"].get(layer, 0.0)
    for name in ("modules.kernel", "modules.dual_module"):
        out[f"{name}.gens_ratio"] = _ratio(
            counters.get(f"{name}.ngens", 0),
            counters.get(f"{name}.min_generators", 0))
    out["biduals.ExteriorBidual.width"] = counters.get(
        "biduals.ExteriorBidual.width", 0)
    out["stark.transitions_built"] = calls.get(
        "stark.StarkData._build_transition", 0)
    out["euler.consistent_instance.attempts"] = _ratio(
        counters.get("euler.consistent_instance.draws", 0),
        calls.get("euler.consistent_instance", 0))
    out["cli.load_s"] = sum(seconds.get(name, 0.0) for name in (
        "cli._load_json", "selmer.instance_from_json",
        "euler.system_from_json"))
    out["cli.write_s"] = sum(seconds.get(name, 0.0) for name in (
        "cli.canonical_json", "cli._write_text"))
    return out


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name in ("biduals.ExteriorBidual.width",
                                           "stark.transitions_built",
                                           "cli.checks_failed"):
        return "count"
    if name.endswith("gens_ratio"):
        return "ratio"
    if name.endswith(".attempts"):
        return "draws/artifact"
    return "s"


def is_time(name: str) -> bool:
    return unit_of(name) == "s"


def per_layer(passes, problems) -> dict:
    """Per-layer metrics: counts from the traced passes (which must agree),
    times as medians over them, and the tracing overhead."""
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    samples = [layer_metrics(p.trace()) for p in traced]
    out = {}
    for name in samples[0]:
        values = [s[name] for s in samples]
        if is_time(name):
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: "
                                f"{values}")
            out[name] = values[0]
    out["cli.checks_failed"] = checks_failed(traced[0])
    out["trace.overhead_s"] = (median_of(traced, lambda p: p.wall_s)
                               - median_of(plain, lambda p: p.wall_s))
    return out


def per_layer_reported() -> list:
    """Names of the per-layer metrics on the result line, in order."""
    names = list(layer_metrics({"calls": {}, "seconds": {},
                                "self_seconds": {}, "counters": {}}))
    names += ["cli.checks_failed", "trace.overhead_s"]
    return [n for n in names if n not in WORKLOAD_SPECIFIC]


def checks_failed(one_pass: Pass) -> int:
    return sum(o.checks_failed for o in one_pass.outcomes)


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------


def report(runner: Runner, passes, trace: bool, setup_times) -> dict:
    failures = runner.failures
    attempted = len(runner.invocations)
    summary = {
        "workload": runner.workload,
        "seed": runner.seed,
        "passes": len(passes),
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / attempted,
        "failures": [f"{o.label}: {o.reason}" for o in failures],
        "problems": runner.problems,
        "sha256": dict(sorted(runner.digests.items())),
        "per_pass": [{"traced": p.traced, "gen_s": p.total("gen"),
                      "verify_s": p.total("verify"), "pass_s": p.wall_s}
                     for p in passes],
    }
    measured = [p for p in passes if not p.traced]
    summary["checks_failed"] = checks_failed(measured[0])
    if trace:
        values = per_layer(passes, runner.problems)
        names = [(n, unit_of(n)) for n in per_layer_reported()]
        print(f"{runner.workload} seed {runner.seed}: per-layer metrics of "
              f"{sum(p.traced for p in passes)} traced pass(es)")
        for name, value in values.items():
            tag = "  (table only)" if name in WORKLOAD_SPECIFIC else ""
            print(f"  {name:42s} {value:>14.6g} {unit_of(name)}{tag}")
    else:
        values = end_to_end(passes, setup_times)
        derive = [p.total("derive") for p in measured]
        has_derive = any(o.kind == "derive" for o in measured[0].outcomes)
        summary["derive_s"] = statistics.median(derive) if has_derive else None
        names = END_TO_END
        print(f"{runner.workload} seed {runner.seed}: {len(passes)} "
              f"pass(es), medians")
        for name, unit in END_TO_END:
            print(f"  {name:14s} {values[name]:>12.4f} {unit}")
        print("  derive_s       " + (f"{summary['derive_s']:>12.4f} s"
                                     if has_derive else "         n/a "
                                     "(no derive step in this workload)"))
        print(f"  checks_failed  {summary['checks_failed']:>12d} count")
        print(f"  error_rate     {summary['error_rate']:>12.4f} "
              f"({len(failures)}/{attempted})")
    for line in summary["failures"] + runner.problems:
        print(f"  FAILED {line}")
    print(json.dumps(summary, sort_keys=True))
    return {
        "correct": not failures and not runner.problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in names},
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "ekslab" / "cli.py").is_file():
        print(f"perfbench: no ekslab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    work = WORK_DIR / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        runner = Runner(args.workload, args.seed, work)
        passes = runner.measure(args.seconds, traced_pairs=bool(args.trace))
        setup_times = [] if args.trace else runner.setup_probes()
        result = report(runner, passes, bool(args.trace), setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_DIR.rmdir()
        except OSError:
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    # A terminated run still stops its child and removes its work directory.
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())

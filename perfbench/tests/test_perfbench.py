"""Tests of the benchmark runner and its tracer.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer as tracing  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_of_nested_spans():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def leaf():
        clock.advance(1.0)

    def middle():
        clock.advance(2.0)
        t.span("b.leaf", "b", leaf, (), {})
        t.span("b.leaf", "b", leaf, (), {})

    def outer():
        clock.advance(4.0)
        t.span("b.middle", "b", middle, (), {})
        with t.bookkeeping():
            clock.advance(8.0)

    t.span("a.outer", "a", outer, (), {})
    assert t.calls == {"a.outer": 1, "b.middle": 1, "b.leaf": 2}
    assert t.seconds == {"a.outer": 8.0, "b.middle": 4.0, "b.leaf": 2.0}
    # a: 8 inside outer minus 4 in middle; b: middle's own 2 plus 2 in leaves.
    assert t.self_seconds == {"a": 4.0, "b": 4.0}


def test_recursive_span_counts_its_time_once():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)

    def rec(depth):
        clock.advance(1.0)
        if depth:
            t.span("a.rec", "a", rec, (depth - 1,), {})

    t.span("a.rec", "a", rec, (2,), {})
    assert t.calls["a.rec"] == 3
    assert t.seconds["a.rec"] == 3.0
    assert t.self_seconds["a"] == 3.0


def _bindings():
    """Every ekslab binding of a traced target: (owner, key) -> object."""
    out = {}
    for module in tracing._ekslab_modules():
        for key, value in vars(module).items():
            out[(module.__name__, key)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    out[(f"{module.__name__}.{key}", attr)] = member
    return out


def test_uninstall_restores_original_objects():
    import ekslab.cli  # noqa: F401  (loads every ekslab module)
    from ekslab import biduals, euler, kolyvagin, modules, rings

    before = _bindings()
    with tracing.installed(tracing.Tracer()):
        # Name bindings made by "from .rings import kernel_int" are wrapped
        # in every importing module, and methods on their class.
        for namespace in (rings, modules, biduals, kolyvagin, euler):
            assert namespace.kernel_int.__wrapped__ is before[
                ("ekslab.rings", "kernel_int")]
        assert rings.GroupRing.mul.__wrapped__ is before[
            ("ekslab.rings.GroupRing", "mul")]
        assert _bindings() != before
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_traced_command_counts_calls():
    from ekslab.rings import make_ring
    from ekslab.selmer import generate_instance
    from ekslab import cli

    instance = generate_instance(make_ring(3, 2), 1, 2, seed=0)
    t = tracing.Tracer()
    with tracing.installed(t):
        cli.suite_selmer(instance)
    assert t.calls["cli.suite_selmer"] == 1
    assert t.calls["selmer.five_term_exact"] == 8
    assert t.calls["rings.howell_int"] > 0
    assert t.self_seconds["cli"] <= t.seconds["cli.suite_selmer"]


TINY = "tiny"


@pytest.fixture
def tiny_workload(monkeypatch, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, TINY, lambda seed: run.generic_ladder(
        (("3,2", 1, 2), ("2,2,2", 1, 1)), seed))
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    return tmp_path


def _traced_run(work, seed=1):
    runner = run.Runner(TINY, seed, work)
    passes = runner.measure(0, traced_pairs=True)
    values = run.per_layer(passes, runner.problems)
    assert not runner.failures and not runner.problems
    return values, runner.digests


def test_traced_counts_repeat_and_bytes_match(tiny_workload):
    first, digests_a = _traced_run(tiny_workload / "a")
    second, digests_b = _traced_run(tiny_workload / "b")
    counts = [n for n in first if not run.is_time(n)]
    assert counts
    assert {n: first[n] for n in counts} == {n: second[n] for n in counts}
    assert first["rings.Matrix.calls"] > 0
    assert first["rings.GroupRing.mul.calls"] > 0
    # Traced outputs are compared with the untraced ones inside each run;
    # two runs of one seed also agree with each other.
    assert digests_a == digests_b


def test_untraced_run_reports_every_end_to_end_metric(tiny_workload):
    runner = run.Runner(TINY, 0, tiny_workload / "c")
    passes = runner.measure(0, traced_pairs=False)
    setup = runner.setup_probes()
    result = run.report(runner, passes, False, setup)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 4 + run.SETUP_PROBES
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_check_output_rejects_bad_reports():
    good = {"schema": "eks-report/1", "checks": {"a/x": True, "a/y": False},
            "config": {"suites": ["a"]}, "timings": {"a": 2},
            "passed": False}
    data = run.canonical(good)
    assert run.check_output("verify", 1, data) == (None, 1)
    assert run.check_output("verify", 0, data)[0].startswith("exit code")
    assert run.check_output("verify", 1, data.replace(b",", b", "))[0] == (
        "output is not canonical JSON")
    lying = dict(good, passed=True)
    assert run.check_output("verify", 1, run.canonical(lying))[0] == (
        "passed flag disagrees with the checks")


def test_missing_sources_fail_without_a_result(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "ROOT", tmp_path)
    code = run.main(["--workload", "chain-ladder", "--seed", "0",
                     "--seconds", "1"])
    assert code != 0
    assert capsys.readouterr().out == ""


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [
        n for n, _ in run.END_TO_END]
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_reported()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.unit_of(n) for n in run.per_layer_reported()}
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(
        run.WORKLOADS)

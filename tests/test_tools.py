"""tools/compare_outputs.py: the byte comparison of the CLI outputs of two
source trees."""

import importlib.util
import json
import shutil
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    path = ROOT / "tools" / "compare_outputs.py"
    spec = importlib.util.spec_from_file_location("compare_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _one_gen(seed):
    return [SimpleNamespace(output="z9.json", argv=(
        "gen", "--ring", "3,2", "--r", "1", "--s", "1", "--profile",
        "generic", "--seed", str(seed), "--out", "{dir}/z9.json"))]


def test_reads_the_benchmark_workloads():
    workloads = _tool().load_workloads()
    assert sorted(workloads) == ["chain-ladder", "group-ring", "tower-derive"]
    assert [s.output for s in workloads["tower-derive"](0)] == [
        "tower.json", "bundle.json", "bundle.report.json",
        "bundle.derive.json"]


def test_one_changed_byte_is_reported(tmp_path, monkeypatch, capsys):
    tool = _tool()
    monkeypatch.setattr(tool, "load_workloads", lambda: {"one-gen": _one_gen})
    argv = ["--workload", "one-gen", "--seeds", "0-0"]
    assert tool.main([str(ROOT), str(ROOT), *argv]) == 0
    assert capsys.readouterr().out == "outputs compared: 1; differences: 0\n"

    # The same tree with the newline canonical_json ends on made a space.
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli_py = copy / "src" / "ekslab" / "cli.py"
    text = cli_py.read_text()
    old = 'separators=(",", ":")) + "\\n"'
    assert text.count(old) == 1
    cli_py.write_text(text.replace(old, 'separators=(",", ":")) + " "'))
    assert tool.main([str(ROOT), str(copy), *argv]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["one-gen seed 0 z9.json: output differs",
                   "outputs compared: 1; differences: 1"]
    assert not list((copy / "src").rglob("__pycache__"))


def test_a_differing_report_names_its_keys(tmp_path):
    parent = {"schema": "eks-report/1", "passed": True, "witnesses": {},
              "checks": {"a/kept": True, "a/old": True, "a/flipped": True},
              "timings": {"a": 3}}
    change = {"schema": "eks-report/1", "passed": False, "witnesses": {},
              "checks": {"a/kept": True, "a/new": True, "a/flipped": False},
              "timings": {"a": 3}, "data": {}}
    paths = []
    for name, doc in (("parent", parent), ("change", change)):
        paths.append(tmp_path / f"{name}.report.json")
        paths[-1].write_text(json.dumps(doc))
    assert _tool().json_differences(*(p.read_bytes() for p in paths)) == [
        "checks added: a/new", "checks removed: a/old",
        "checks changed: a/flipped", "other keys differ: data, passed"]

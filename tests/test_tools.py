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


def _ab_tool():
    path = ROOT / "tools" / "inprocess_ab.py"
    spec = importlib.util.spec_from_file_location("inprocess_ab", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_inprocess_ab_of_a_tree_against_itself(capsys):
    # One tower-derive round: one fresh interpreter per tree runs the gen
    # steps, then the verify and derive steps on its own artifacts.
    argv = [str(ROOT), str(ROOT), "--workload", "tower-derive",
            "--rounds", "1"]
    assert _ab_tool().main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == ("tower-derive seed 0, 1 round(s), in-process CPU "
                      "seconds per round")
    for first, label in ((1, "gen"), (4, "verify and derive")):
        assert [line.split(" median")[0] for line in out[first:first + 2]] \
            == [f"{label}: parent", f"{label}: change"]
        ratio = out[first + 2]
        assert ratio.startswith(f"{label}: median paired ratio change/parent ")
        assert ratio.endswith(" of 1 rounds")
    assert out[7] == "outputs whose bytes differ: none"
    assert len(out) == 8


def _gen_verify(seed):
    return _one_gen(seed) + [SimpleNamespace(output="z9.report.json", argv=(
        "verify", "{dir}/z9.json", "--suite", "bidual", "--seed", "0",
        "--out", "{dir}/z9.report.json"))]


def test_inprocess_ab_names_the_outputs_that_differ(tmp_path, monkeypatch,
                                                    capsys):
    tool = _ab_tool()
    monkeypatch.setattr(tool, "load_workloads",
                        lambda: {"gen-verify": _gen_verify})
    argv = ["--workload", "gen-verify", "--rounds", "2"]
    # Two copies of one tree: no output differs.
    copy = tmp_path / "copy"
    shutil.copytree(ROOT / "src", copy / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    assert tool.main([str(ROOT), str(copy), *argv]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "outputs whose bytes differ: none"
    assert len(out) == 8

    # The copy ends its JSON with a space: both outputs differ.
    cli_py = copy / "src" / "ekslab" / "cli.py"
    text = cli_py.read_text()
    old = 'separators=(",", ":")) + "\\n"'
    assert text.count(old) == 1
    cli_py.write_text(text.replace(old, 'separators=(",", ":")) + " "'))
    assert tool.main([str(ROOT), str(copy), *argv]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "outputs whose bytes differ: z9.json, z9.report.json"


def _census_tool():
    path = ROOT / "tools" / "census.py"
    spec = importlib.util.spec_from_file_location("census", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_census_of_a_failing_and_a_passing_run():
    # Z/9 r1 s2 seed 1 is one of the false FAILs of the verdict items: it
    # fails two kolyvagin checks.  The level equality names its failing
    # level and the two ideals; the verdict has no witness of its own.
    # When the false FAIL is mended, its line and the summary here change.
    grid = [("generic", "3,2", 1, 2, range(2))]
    assert _census_tool().census(ROOT, grid) == [
        "generic 3,2 r1 s2 seed 0: gen 0; verify 0",
        "generic 3,2 r1 s2 seed 1: gen 0; verify 1 failed "
        "kolyvagin/theorem-verdict (no witness), "
        "kolyvagin/theorem/levels-equal-fitt "
        '([{"fitting": {"exponent": 0, "generators": [[1]]}, "level": 2, '
        '"level-ideal": {"exponent": 1, "generators": [[3]]}}])',
        "runs: 2; failing check keys: 2",
        "kolyvagin/theorem-verdict: failed in 1 run(s), 1 with no witness",
        "kolyvagin/theorem/levels-equal-fitt: failed in 1 run(s), "
        "0 with no witness",
    ]


def test_census_grids():
    grids = _census_tool().GRIDS
    assert sorted(grids) == ["bundles", "gate"]
    assert sum(len(seeds) for *_, seeds in grids["gate"]) == 60
    bundles = grids["bundles"]
    assert {profile for profile, *_ in bundles} == {"consistent"}
    assert sum(len(seeds) for *_, seeds in bundles) == 44

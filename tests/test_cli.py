"""Command-line contract: golden output bytes and parameter rejection.

The golden digests were recorded from the CLI before the elimination layer
was reworked to factor each matrix once (the tower-derive pass's before the
group multiplication tables were shared, the (Z/9)[C3] r1 s2, (Z/8)[C4] r1 s1
and graph ones before the ring arithmetic was fused into ``ring.dot``, the
Z/9 r1 s4 ones before the Selmer modules were memoized and the stark and
kolyvagin suites shared one ``StarkData``, the Z/25 r2 s3 and Z/27 r1 s4
ones before chain rings skipped restriction of scalars and each map kept its
factorization); any change to the bytes of an
artifact, a report, a graph or a derivation shows up here as a digest
mismatch.
"""

import hashlib
import json

import pytest

from ekslab import cli
from ekslab.rings import _group_table

GOLDEN = {
    "z9-r1-s3.json":
        "c29c7c4362e6fc0e55486f57db1c939d09666a6120c5981c429e13214ff6706e",
    "z9-r1-s3.report.json":
        "13a8bbc29972b7fd44dd6166db9ca8ac1c8d0f36b9ff179b64be3632d5255c6a",
    "z9c3-r1-s1.json":
        "360f5d2cac341e011fee3705c4ba2e7410d664680822b36d159cfe954be414b0",
    "z9c3-r1-s1.report.json":
        "188cc4c59bc6b06bdc4c1c033df147c80a3d1391dce2a58b5082ef24a539a7a8",
    # Two more group-ring shapes, recorded before the ring arithmetic was
    # fused into ring.dot: two primes over (Z/9)[C3], and p = 2.
    "z9c3-r1-s2.json":
        "79f8080b4ac9ac55ce4ba8889ddf4bae03746ff03b34d7955c1100015fb3f67d",
    "z9c3-r1-s2.report.json":
        "0e9f59cda91b7e4894b1604a8fabe5cd7674bff2f5fea5d33e07eb0e0209f36a",
    "z8c4-r1-s1.json":
        "3430b509a2759ee01c7f71deb077be22ae410091e9a3f2888e6ba92f5d3f3821",
    "z8c4-r1-s1.report.json":
        "42f7ad8f9e81b2126cfac15d7dde5590475daf7fa6b329d04e14a39b6134fbf7",
    # The first golden with 16 divisors, recorded before the Selmer modules
    # were memoized and the stark and kolyvagin suites shared a StarkData.
    "z9-r1-s4.json":
        "5a3476fdc6e23b62970fbe2aa6fe41f90e5a8dc628572a871738d1c74f9c45d1",
    "z9-r1-s4.report.json":
        "80bc809d310c31102246dc020534d9c45e6c2adc7cb9d3d725434f312ddae8ba",
    # The other chain-ladder moduli, recorded before chain rings skipped
    # restriction of scalars and each map kept its factorization.  Their
    # reports equal the Z/9 ones of the same shape byte for byte: a report
    # holds check names and verdicts, and the instances pass every check.
    "z25-r2-s3.json":
        "0a679fcfa016298920d3144d24b0b5601773c0834cb9f7ab95b17ddc100b9d56",
    "z25-r2-s3.report.json":
        "13a8bbc29972b7fd44dd6166db9ca8ac1c8d0f36b9ff179b64be3632d5255c6a",
    "z27-r1-s4.json":
        "95daa945c9a145711c87833379c286fe21230279bdd30ccc6578d33bbc4a64b2",
    "z27-r1-s4.report.json":
        "80bc809d310c31102246dc020534d9c45e6c2adc7cb9d3d725434f312ddae8ba",
    "z9-r1-s3.dot":
        "69fa59ed03d42f0b341ea1a82a099ad7cc9fa0183a684cf6c1d7c0d192e0c518",
    "bundle-z9-r2-s2.json":
        "ef5d118303492764a3a84af0e991bfecb66b647409fa02a9a015e317468cd673",
    "bundle-z9-r2-s2.derive.json":
        "755d44aaaa6a1ef6abb438db2581db781aac1871f51384bb4696add7b233fa56",
    # The tower-derive pass: tower and consistent Z/9 r1 s3, the bundle's
    # five-suite report, and its derivation (level rings (Z/81)[C9^k]).
    # The report was re-recorded when the euler suite of a bundle took on
    # derive's checks and dropped the telescoping and permutation checks.
    "tower-z9-r1-s3.json":
        "0012ecd68f15974a3490be3bdb589f876481958439479af31df8bba89c864e8c",
    "bundle-z9-r1-s3.json":
        "da073baedcd13ba87e57d72509e03c5292dd7b1e529cb94b5deab8bbc2088645",
    "bundle-z9-r1-s3.report.json":
        "86fd323f91fab238f74427e8679f13432f1dea359b81c4694f2dfa5e4b706db4",
    "bundle-z9-r1-s3.derive.json":
        "292847014a241e5aa603579c27c5128d33c810cd1081dcb350a74a94e3275a6c",
    # A tower whose top level ring is (Z/81)[C9^4], recorded while each
    # group's multiplication table was still built whole (|G|^2 entries).
    "tower-z9-r1-s4.json":
        "6459ca9cdd2e7d7e6b1ba805c0d485c9bd381f51bc9f5bee67914cb665a361d3",
    # Two reports that fail the structure theorem's level equality, recorded
    # before its facts were gathered into one table: over Z/9 the verdict
    # fails with it, over (Z/9)[C9] (not a chain ring) the verdict passes.
    "z9-r1-s2-seed1.json":
        "04aaf0948e190c4d7cec89d887324d694bae9f01439c98b8289aa0734b403596",
    "z9-r1-s2-seed1.report.json":
        "3f35fc09f76873061dc791ba0c078ee83c700ef302a081490e17385658d25b25",
    "z9c9-r1-s1.json":
        "c1350525f8178102b75fde89c0719fc9946e5829e841a8be9558ce4b08a76679",
    "z9c9-r1-s1.report.json":
        "a842b54c66643a5f77398eee5123c974aeb7f782ee58cf34b29fa324da5b3268",
    # Two group-ring sizes that pass every check, recorded while kernels
    # and duals still presented every lifted generator.
    "z9c3-r1-s3-seed2.json":
        "7cf4eed8a720af612dbb3b59505b0fd3a0f07db2381ef87f08e9cf90aa018f7d",
    "z9c3-r1-s3-seed2.report.json":
        "ad5970c1a108f08de44ebaa30fe8b8ad27fa88f899d8d2af1d619b9680e93ee6",
    "z9c9-r1-s1-seed1.json":
        "f1d08fe1276b0ca745c29db9643d8ec71f4392369b48493aacf4625afa9552fb",
    "z9c9-r1-s1-seed1.report.json":
        "9e34e249280778e4867ad0f2872711d70ba5257ef2d564be1f091743f4003867",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _gen(tmp_path, name, ring, r, s, profile="generic", seed=0):
    out = tmp_path / name
    code = cli.main(["gen", "--ring", ring, "--r", str(r), "--s", str(s),
                     "--profile", profile, "--seed", str(seed),
                     "--out", str(out)])
    assert code == 0
    return out


class TestGoldenBytes:
    @pytest.mark.parametrize("stem, ring, s", [
        ("z9-r1-s3", "3,2", 3),
        ("z9-r1-s4", "3,2", 4),
        ("z9c3-r1-s1", "3,2,3", 1),
        ("z9c3-r1-s2", "3,2,3", 2),
        ("z8c4-r1-s1", "2,3,4", 1),
        ("z25-r2-s3", "5,2", 3),
        ("z27-r1-s4", "3,3", 4),
    ])
    def test_gen_then_verify_all(self, tmp_path, stem, ring, s):
        r = int(stem.split("-")[1][1:])  # the stem names the core rank
        artifact = _gen(tmp_path, f"{stem}.json", ring, r, s)
        assert _digest(artifact) == GOLDEN[f"{stem}.json"]
        report = tmp_path / f"{stem}.report.json"
        code = cli.main(["verify", str(artifact), "--suite", "all",
                         "--seed", "0", "--out", str(report)])
        assert code == 0
        assert _digest(report) == GOLDEN[f"{stem}.report.json"]

    @pytest.mark.parametrize("stem, ring, s, seed", [
        ("z9c3-r1-s3-seed2", "3,2,3", 3, 2),
        ("z9c9-r1-s1-seed1", "3,2,9", 1, 1),
    ])
    def test_group_ring_seeds(self, tmp_path, stem, ring, s, seed):
        artifact = _gen(tmp_path, f"{stem}.json", ring, 1, s, seed=seed)
        assert _digest(artifact) == GOLDEN[f"{stem}.json"]
        report = tmp_path / f"{stem}.report.json"
        code = cli.main(["verify", str(artifact), "--suite", "all",
                         "--seed", "0", "--out", str(report)])
        assert code == 0
        assert _digest(report) == GOLDEN[f"{stem}.report.json"]

    @pytest.mark.parametrize("stem, ring, s, seed, verdict", [
        ("z9-r1-s2-seed1", "3,2", 2, 1, False),
        ("z9c9-r1-s1", "3,2,9", 1, 0, True),
    ])
    def test_failing_level_equality(self, tmp_path, stem, ring, s, seed,
                                    verdict):
        artifact = _gen(tmp_path, f"{stem}.json", ring, 1, s, seed=seed)
        assert _digest(artifact) == GOLDEN[f"{stem}.json"]
        report = tmp_path / f"{stem}.report.json"
        code = cli.main(["verify", str(artifact), "--suite", "all",
                         "--seed", "0", "--out", str(report)])
        assert code == 1
        assert _digest(report) == GOLDEN[f"{stem}.report.json"]
        checks = json.loads(report.read_text())["checks"]
        assert not checks["kolyvagin/theorem/levels-equal-fitt"]
        assert checks["kolyvagin/theorem-verdict"] is verdict

    def test_graph(self, tmp_path):
        artifact = _gen(tmp_path, "z9-r1-s3.json", "3,2", 1, 3)
        out = tmp_path / "z9-r1-s3.dot"
        assert cli.main(["graph", str(artifact), "--out", str(out)]) == 0
        assert _digest(out) == GOLDEN["z9-r1-s3.dot"]

    def test_consistent_bundle_derive(self, tmp_path):
        bundle = _gen(tmp_path, "bundle-z9-r2-s2.json", "3,2", 2, 2,
                      profile="consistent")
        assert _digest(bundle) == GOLDEN["bundle-z9-r2-s2.json"]
        out = tmp_path / "bundle-z9-r2-s2.derive.json"
        assert cli.main(["derive", str(bundle), "--out", str(out)]) == 0
        assert _digest(out) == GOLDEN["bundle-z9-r2-s2.derive.json"]


    def test_tower_derive_pass(self, tmp_path):
        tower = _gen(tmp_path, "tower-z9-r1-s3.json", "3,2", 1, 3,
                     profile="tower")
        assert _digest(tower) == GOLDEN["tower-z9-r1-s3.json"]
        bundle = _gen(tmp_path, "bundle-z9-r1-s3.json", "3,2", 1, 3,
                      profile="consistent")
        assert _digest(bundle) == GOLDEN["bundle-z9-r1-s3.json"]
        report = tmp_path / "bundle-z9-r1-s3.report.json"
        assert cli.main(["verify", str(bundle), "--suite", "all",
                         "--seed", "0", "--out", str(report)]) == 0
        assert _digest(report) == GOLDEN["bundle-z9-r1-s3.report.json"]
        out = tmp_path / "bundle-z9-r1-s3.derive.json"
        assert cli.main(["derive", str(bundle), "--out", str(out)]) == 0
        assert _digest(out) == GOLDEN["bundle-z9-r1-s3.derive.json"]

    def test_tower_s4(self, tmp_path):
        tower = _gen(tmp_path, "tower-z9-r1-s4.json", "3,2", 1, 4,
                     profile="tower")
        assert _digest(tower) == GOLDEN["tower-z9-r1-s4.json"]


class TestGroupRows:
    def test_derive_reads_few_rows_of_the_top_level(self, tmp_path):
        # The top level ring of a Z/9 r1 s3 derivation is (Z/9)[C9^3]: its
        # operators are products of sparse factors, so only the rows of
        # their support are built, not all 729.
        bundle = _gen(tmp_path, "bundle-z9-r1-s3.json", "3,2", 1, 3,
                      profile="consistent")
        _group_table.cache_clear()
        out = tmp_path / "bundle-z9-r1-s3.derive.json"
        assert cli.main(["derive", str(bundle), "--out", str(out)]) == 0
        assert 0 < len(_group_table((9, 9, 9))) < 100


def _verify(tmp_path, artifact, suite, name):
    out = tmp_path / name
    code = cli.main(["verify", str(artifact), "--suite", suite,
                     "--seed", "0", "--out", str(out)])
    return code, json.loads(out.read_text())


def _suite_part(report, suite):
    """One suite's checks, witnesses and data from a report."""
    prefix = f"{suite}/"
    return (
        {k: v for k, v in report["checks"].items() if k.startswith(prefix)},
        {k: v for k, v in report["witnesses"].items()
         if k.startswith(prefix)},
        report["data"].get(suite),
    )


class TestSuiteOrder:
    """Suites run in one fixed order and share the instance's modules and
    one StarkData, so the order and the subset requested change nothing
    in any suite's results."""

    def test_subsets_and_orders_match_all(self, tmp_path):
        artifact = _gen(tmp_path, "z9-r1-s3.json", "3,2", 1, 3)
        _code, full = _verify(tmp_path, artifact, "all", "all.json")
        for i, suite in enumerate(["kolyvagin,stark", "stark,kolyvagin",
                                   "kolyvagin", "stark"]):
            code, report = _verify(tmp_path, artifact, suite, f"{i}.json")
            assert code == 0
            assert report["config"]["suites"] == suite.split(",")
            for name in suite.split(","):
                assert _suite_part(report, name) == _suite_part(full, name)
                assert report["timings"][name] == full["timings"][name]


class TestFactTable:
    """The kolyvagin and stark suites read every structure-theorem fact
    from one computation: each content ideal, each Fitting ideal of the
    unmodified dual Selmer module and the basis verdict once."""

    def test_each_fact_computed_once(self, tmp_path, monkeypatch):
        from ekslab import biduals, kolyvagin, modules, selmer, stark

        calls = {}
        for owner, name in ((kolyvagin, "verify_main_theorem"),
                            (biduals, "content_ideal"),
                            (stark, "system_is_basis"),
                            (modules, "fitting_ideal")):
            original = getattr(owner, name)
            log = calls[name] = []

            def wrapper(*args, _log=log, _original=original):
                _log.append(args)
                return _original(*args)

            # every module that imported the function holds it by name
            for namespace in (biduals, modules, selmer, stark, kolyvagin, cli):
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        monkeypatch.setattr(namespace, key, wrapper)

        artifact = _gen(tmp_path, "z9-r1-s4.json", "3,2", 1, 4)
        instance = selmer.instance_from_json(json.loads(artifact.read_text()))
        sdata = stark.StarkData(instance)
        assert all(cli.suite_kolyvagin(sdata)["checks"].values())
        assert all(cli.suite_stark(sdata)["checks"].values())

        assert len(calls["verify_main_theorem"]) == 1
        # one content ideal per Kolyvagin and per Stark component
        assert len(calls["content_ideal"]) == 2 * len(instance.divisors())
        assert len(calls["system_is_basis"]) == 1
        dual = instance.dual_selmer(())
        degrees = [args[1] for args in calls["fitting_ideal"]
                   if args[0] is dual]
        assert sorted(degrees) == list(range(instance.n_primes + 1))


@pytest.fixture(scope="module")
def passing_report(tmp_path_factory):
    root = tmp_path_factory.mktemp("report")
    artifact = _gen(root, "z9-r1-s3.json", "3,2", 1, 3)
    code, doc = _verify(root, artifact, "all", "report.json")
    assert code == 0
    return doc


class TestReportContract:
    def _report(self, tmp_path, doc, capsys):
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out.txt"
        code = cli.main(["report", str(path), "--out", str(out)])
        text = out.read_text() if out.exists() else None
        return code, text, capsys.readouterr().err

    def test_passing_report_exits_0(self, tmp_path, capsys, passing_report):
        code, text, _err = self._report(tmp_path, passing_report, capsys)
        n = len(passing_report["checks"])
        assert code == 0
        assert text.splitlines()[-1] == f"{n}/{n} checks passed"
        assert text.count("PASS ") == n

    def test_failed_check_exits_1_with_witness(self, tmp_path, capsys,
                                               passing_report):
        doc = json.loads(json.dumps(passing_report))
        doc["checks"]["kolyvagin/comparison-relation"] = False
        doc["witnesses"]["kolyvagin/comparison-relation"] = ["q1.q2@q2"]
        doc["passed"] = False
        code, text, _err = self._report(tmp_path, doc, capsys)
        n = len(doc["checks"])
        assert code == 1
        lines = text.splitlines()
        assert ("FAIL kolyvagin/comparison-relation  witness: ['q1.q2@q2']"
                in lines)
        assert lines[-1] == f"{n - 1}/{n} checks passed"

    def test_not_a_report_exits_2(self, tmp_path, capsys):
        artifact = _gen(tmp_path, "z9-r1-s3.json", "3,2", 1, 3)
        out = tmp_path / "out.txt"
        assert cli.main(["report", str(artifact), "--out", str(out)]) == 2
        assert "eks-report/1" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_path_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out.txt"
        missing = tmp_path / "missing.json"
        assert cli.main(["report", str(missing), "--out", str(out)]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [
        {"schema": "eks-report/1", "checks": ["a"]},
        {"schema": "eks-report/1", "checks": 5},
        {"schema": "eks-report/1", "checks": {"a": "yes"}},
        {"schema": "eks-report/1", "checks": {"a": False}, "witnesses": []},
        # The exit code comes from the checks: a ``passed`` flag that
        # disagrees with them (or is missing) is malformed.
        {"schema": "eks-report/1", "checks": {"a": False}, "passed": True},
        {"schema": "eks-report/1", "checks": {"a": True}, "passed": False},
        {"schema": "eks-report/1", "checks": {"a": True}},
        {"schema": "eks-report/1", "checks": {}, "passed": 1},
    ])
    def test_malformed_report_exits_2(self, tmp_path, capsys, doc):
        code, text, err = self._report(tmp_path, doc, capsys)
        assert code == 2
        assert "malformed report" in err
        assert "Traceback" not in err
        assert text is None


class TestOutputAndSuiteErrors:
    @pytest.mark.parametrize("suite", [",", "", ",,"])
    def test_empty_suite_list_exits_2(self, tmp_path, capsys, suite):
        artifact = _gen(tmp_path, "z9-r1-s2.json", "3,2", 1, 2)
        out = tmp_path / "report.json"
        code = cli.main(["verify", str(artifact), "--suite", suite,
                         "--out", str(out)])
        assert code == 2
        assert "no suite selected" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "a.json"
        code = cli.main(["gen", "--ring", "3,2", "--r", "1", "--s", "2",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err
        assert "Traceback" not in err
        artifact = _gen(tmp_path, "z9-r1-s2.json", "3,2", 1, 2)
        code = cli.main(["verify", str(artifact), "--suite", "selmer",
                         "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot write {out}" in err
        assert "Traceback" not in err
        assert not out.parent.exists()


class TestConsistentProfile:
    @pytest.mark.parametrize("r, s", [(1, 2), (2, 1), (2, 3)])
    def test_p3_odd_width_rejected_up_front(self, tmp_path, capsys, r, s):
        out = tmp_path / "a.json"
        code = cli.main(["gen", "--ring", "3,2", "--r", str(r), "--s", str(s),
                         "--profile", "consistent", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "p = 3 needs r + s even" in capsys.readouterr().err


def _drop_core_rank(doc):
    del doc["core_rank"]


def _composite_p(doc):
    doc["ring"]["p"] = 4


def _ragged_rows(doc):
    doc["finite"][0].pop()


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    """A generic instance, a group-ring instance and a consistent bundle,
    as parsed JSON."""
    root = tmp_path_factory.mktemp("artifacts")
    instance = _gen(root, "instance.json", "3,2", 1, 2)
    group = _gen(root, "group.json", "3,2,3", 1, 2)
    bundle = _gen(root, "bundle.json", "3,2", 2, 2, profile="consistent")
    return {"instance": json.loads(instance.read_text()),
            "group": json.loads(group.read_text()),
            "bundle": json.loads(bundle.read_text())}


def _set(*path):
    """A mutation that sets the entry at ``path[:-1]`` to ``path[-1]``."""
    def mutate(doc):
        for key in path[:-2]:
            doc = doc[key]
        doc[path[-2]] = path[-1]
    return mutate


class TestMalformedArtifacts:
    @pytest.mark.parametrize("mutate", [
        _drop_core_rank, _composite_p, _ragged_rows,
    ])
    @pytest.mark.parametrize("command", ["verify", "graph", "derive"])
    def test_exit_2_without_traceback(self, tmp_path, capsys, artifacts,
                                      command, mutate):
        if command == "derive":
            doc = json.loads(json.dumps(artifacts["bundle"]))
            mutate(doc["instance"])
        else:
            doc = json.loads(json.dumps(artifacts["instance"]))
            mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "malformed artifact" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("order", [5, 0, 1, -9, "9"])
    @pytest.mark.parametrize("command", ["verify", "graph", "derive"])
    def test_group_order_not_a_power_of_p(self, tmp_path, capsys, artifacts,
                                          command, order):
        # Z/9 artifacts: a symbol-group order must be an int 3^k, k >= 1.
        if command == "derive":
            doc = json.loads(json.dumps(artifacts["bundle"]))
            doc["instance"]["primes"][0]["group_order"] = order
        else:
            doc = json.loads(json.dumps(artifacts["instance"]))
            doc["primes"][0]["group_order"] = order
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "group_order" in err
        assert "Traceback" not in err
        assert not out.exists()

    @staticmethod
    def _rejected(tmp_path, capsys, artifacts, command, mutate, needle,
                  kind="instance"):
        """``command`` on a mutated copy of an artifact (the instance part
        of the bundle for derive) exits 2 and names ``needle``."""
        doc = json.loads(json.dumps(
            artifacts["bundle" if command == "derive" else kind]))
        mutate(doc["instance"] if command == "derive" else doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "malformed artifact" in err and needle in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("labels", [
        [5, "q2"], ["q1", "q1"], ["", "q2"], ["q.1", "q2"], ["q@1", "q2"],
    ], ids=["int", "duplicate", "empty", "dot", "at"])
    @pytest.mark.parametrize("command", ["verify", "graph", "derive"])
    def test_prime_labels_distinct_strings_without_separators(
            self, tmp_path, capsys, artifacts, command, labels):
        # '.' joins the labels of a divisor name and '@' joins a divisor
        # to a prime in check keys, so such labels could merge two checks.
        def mutate(doc):
            for pd, label in zip(doc["primes"], labels):
                pd["label"] = label

        self._rejected(tmp_path, capsys, artifacts, command, mutate, "label")

    @pytest.mark.parametrize("core_rank", ["1", True, 1.5],
                             ids=["string", "bool", "float"])
    @pytest.mark.parametrize("command", ["verify", "graph", "derive"])
    def test_core_rank_must_be_an_int(self, tmp_path, capsys, artifacts,
                                      command, core_rank):
        def mutate(doc):
            doc["core_rank"] = core_rank

        self._rejected(tmp_path, capsys, artifacts, command, mutate,
                       "core_rank")

    @pytest.mark.parametrize("width", [2, 4], ids=["short", "long"])
    @pytest.mark.parametrize("command", ["verify", "graph"])
    def test_group_ring_element_of_the_wrong_length(
            self, tmp_path, capsys, artifacts, command, width):
        # (Z/9)[C3] elements have exactly 3 coordinates
        def mutate(doc):
            doc["finite"][0][0] = (doc["finite"][0][0] + [0])[:width]

        self._rejected(tmp_path, capsys, artifacts, command, mutate,
                       f"{width} coordinates, not 3", kind="group")

    @pytest.mark.parametrize("kind, mutate", [
        ("instance", _set("finite", 0, 0, 1.5)),
        ("instance", _set("finite", 0, 0, "1")),
        ("instance", _set("finite", 0, 0, True)),
        ("instance", _set("ring", "p", "3")),
        ("instance", _set("ring", "m", 2.0)),
        ("group", _set("ring", "orders", [3.0])),
        ("group", _set("transverse", 0, 0, [1, 0, 0.5])),
        ("bundle", _set("euler", "classes", "", 0, 1.5)),
        ("bundle", _set("euler", "classes", "0", 0, 0, 5.0)),
        ("bundle", _set("euler", "degree", "2")),
        ("bundle", _set("euler", "tower", "p", 3.0)),
        ("bundle", _set("euler", "tower", "orders", [9, 9.0])),
        ("bundle", _set("euler", "tower", "frobenius", 0, 0, 0, True)),
    ], ids=["float", "string", "bool", "p-string", "m-float",
            "order-float", "coordinate-float", "class-float",
            "class-coordinate-float", "degree-string", "tower-p-float",
            "tower-order-float", "tower-frobenius-bool"])
    def test_numbers_must_be_ints(self, tmp_path, capsys, artifacts, kind,
                                  mutate):
        # int() would read 1.5, "1" and True as 1: only JSON ints are read
        doc = json.loads(json.dumps(artifacts[kind]))
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main(["verify", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "malformed artifact" in err and "is not an int" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("mutate", [
        _set("instance", 5), _set("euler", []), _set("euler", "tower", []),
    ], ids=["instance-int", "euler-list", "tower-list"])
    @pytest.mark.parametrize("command", ["verify", "derive"])
    def test_bundle_part_that_is_not_an_object(self, tmp_path, capsys,
                                               artifacts, command, mutate):
        doc = json.loads(json.dumps(artifacts["bundle"]))
        mutate(doc)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "malformed artifact" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_bundle_without_euler_part(self, tmp_path, capsys, artifacts):
        doc = json.loads(json.dumps(artifacts["bundle"]))
        del doc["euler"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["verify", str(path), "--out", "-"]) == 2
        assert "part 'euler'" in capsys.readouterr().err

    def test_json_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert cli.main(["verify", str(path), "--out", "-"]) == 2
        assert "not a JSON object" in capsys.readouterr().err


@pytest.fixture(scope="module")
def consistent_z9_r1_s3(tmp_path_factory):
    """The consistent Z/9 r1 s3 bundle of seed 0, as parsed JSON."""
    root = tmp_path_factory.mktemp("consistent")
    bundle = _gen(root, "bundle.json", "3,2", 1, 3, profile="consistent")
    return json.loads(bundle.read_text())


@pytest.fixture(scope="module")
def non_euler_bundle(tmp_path_factory, consistent_z9_r1_s3):
    """The consistent Z/9 r1 s3 bundle with one coordinate of its class at
    level 0 moved, so that level's derivative element is not invariant."""
    root = tmp_path_factory.mktemp("non-euler")
    doc = json.loads(json.dumps(consistent_z9_r1_s3))
    doc["euler"]["classes"]["0"][0][1] += 1
    path = root / "non-euler.json"
    path.write_text(json.dumps(doc))
    return path


def _drop_level_0(euler):
    del euler["classes"]["0"]


def _shorten_level_0(euler):
    euler["classes"]["0"].pop()


class TestMalformedEulerPart:
    """An euler part must fit its tower: a degree between 1 and the rank
    (here 1), a class at every divisor, each with C(n, degree) coordinates
    (here C(4, 1) = 4).  Each edit is rejected as malformed, exit 2."""

    @pytest.mark.parametrize("mutate, needle", [
        (_set("degree", 2), "degree 2"),
        (_drop_level_0, "divisors"),
        (_shorten_level_0, "3 coordinates, not C(4, 1) = 4"),
    ], ids=["degree-2", "level-0-missing", "level-0-short"])
    @pytest.mark.parametrize("command", ["verify", "derive"])
    def test_exit_2_naming_the_fault(self, tmp_path, capsys,
                                     consistent_z9_r1_s3, command, mutate,
                                     needle):
        doc = json.loads(json.dumps(consistent_z9_r1_s3))
        mutate(doc["euler"])
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert cli.main([command, str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "malformed artifact (part 'euler')" in err and needle in err
        assert "Traceback" not in err
        assert not out.exists()


class TestNonEulerFamily:
    def test_verify_fails_invariance_and_relations(self, tmp_path, capsys,
                                                    non_euler_bundle):
        out = tmp_path / "report.json"
        assert cli.main(["verify", str(non_euler_bundle),
                         "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        report = json.loads(out.read_text())
        failed = sorted(k for k, ok in report["checks"].items() if not ok)
        assert failed == ["euler/invariance/0", "euler/relations"]
        assert report["witnesses"]["euler/relations"] == [
            "0,1,2>0", "0,1>0", "0,2>0", "0>"]
        # Only the divisors without level 0 inside have a derived vector.
        assert sorted(report["data"]["euler"]["derived-vectors"]) == [
            "", "1", "1,2", "2"]

    def test_derive_exits_2_naming_the_level(self, tmp_path, capsys,
                                             non_euler_bundle):
        out = tmp_path / "derive.json"
        assert cli.main(["derive", str(non_euler_bundle),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "derivative element at level 0 is not invariant" in err
        assert "Traceback" not in err
        assert not out.exists()


@pytest.fixture
def moved_unit_bundle(tmp_path, consistent_z9_r1_s3):
    """The consistent Z/9 r1 s3 bundle with the last diagonal Frobenius
    entry of its prime 1 moved from 5 to 2: the comparison unit at that
    prime changes, and the quotient by Frobenius - 1 stays free of rank
    one."""
    doc = json.loads(json.dumps(consistent_z9_r1_s3))
    frobenius = doc["instance"]["primes"][1]["frobenius"]
    assert frobenius[-1][-1] == 5
    frobenius[-1][-1] = 2
    path = tmp_path / "moved-unit.json"
    path.write_text(json.dumps(doc))
    return path


class TestRelationFailure:
    """A negative control for the comparison relation through ``derive``."""

    def test_derive_fails_the_relation_with_witnesses(self, tmp_path, capsys,
                                                      moved_unit_bundle):
        out = tmp_path / "derive.json"
        assert cli.main(["derive", str(moved_unit_bundle),
                         "--out", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads(out.read_text())
        # The derived classes still lie in every Selmer bidual.
        assert doc["checks"]["membership"] is True
        assert doc["checks"]["comparison-relation"] is False
        assert doc["witnesses"] == {
            "comparison-relation": ["1@1", "0.1@1", "1.2@1"]}

    def test_verify_fails_the_relation_with_witnesses(self, tmp_path,
                                                      moved_unit_bundle):
        # The regulator image of the canonical basis satisfies the relation
        # on every instance, so only the euler suite's derivative check sees
        # the moved unit, with derive's witnesses.
        out = tmp_path / "report.json"
        assert cli.main(["verify", str(moved_unit_bundle),
                         "--out", str(out)]) == 1
        report = json.loads(out.read_text())
        failed = sorted(k for k, ok in report["checks"].items() if not ok)
        assert failed == ["euler/comparison-relation"]
        assert report["witnesses"] == {
            "euler/comparison-relation": ["1@1", "0.1@1", "1.2@1"]}


def _bundle(root, name, euler, instance):
    path = root / name
    path.write_text(json.dumps({"schema": "eks-bundle/1", "euler": euler,
                                "instance": instance}))
    return path


def _derivative_part(report):
    """The euler suite's checks and witnesses other than the tower's own
    relations and invariance, with the suite prefix dropped."""
    def part(entries):
        return {k[len("euler/"):]: v for k, v in entries.items()
                if k.startswith("euler/") and k != "euler/relations"
                and not k.startswith("euler/invariance/")}
    return part(report["checks"]), part(report["witnesses"])


@pytest.fixture(scope="module")
def bundle_parts(tmp_path_factory):
    """Parts to pair into bundles: the euler and instance parts of the
    consistent Z/9 r1 s3 and r2 s2 bundles (both of ambient rank 4), a
    Z/9 tower family of degree 1 that is not the consistent one, and Z/25
    and (Z/9)[C3] instances."""
    root = tmp_path_factory.mktemp("parts")
    r1 = json.loads(_gen(root, "r1.json", "3,2", 1, 3,
                         profile="consistent").read_text())
    r2 = json.loads(_gen(root, "r2.json", "3,2", 2, 2,
                         profile="consistent").read_text())
    return {
        "euler-r1": r1["euler"], "instance-r1": r1["instance"],
        "euler-r2": r2["euler"],
        "tower": json.loads(_gen(root, "tower.json", "3,2", 1, 3,
                                 profile="tower").read_text()),
        "z25": json.loads(_gen(root, "z25.json", "5,2", 1, 3).read_text()),
        "group": json.loads(_gen(root, "group.json", "3,2,3", 1,
                                 3).read_text()),
    }


class TestBundleContract:
    """``verify`` of a bundle runs derive's checks in its euler suite, and
    rejects a bundle whose parts do not fit as ``derive`` does."""

    def test_tower_family_fails_membership(self, tmp_path, bundle_parts):
        bundle = _bundle(tmp_path, "bundle.json", bundle_parts["tower"],
                         bundle_parts["instance-r1"])
        derive = tmp_path / "derive.json"
        assert cli.main(["derive", str(bundle), "--out", str(derive)]) == 1
        derived = json.loads(derive.read_text())
        assert len(derived["witnesses"]["membership"]) == 8
        code, report = _verify(tmp_path, bundle, "all", "report.json")
        assert code == 1
        assert report["checks"]["euler/membership"] is False
        assert report["witnesses"]["euler/membership"] == \
            derived["witnesses"]["membership"]

    @pytest.mark.parametrize("euler, instance, needle", [
        ("euler-r1", "z25", "mismatched target modulus"),
        ("euler-r2", "instance-r1", "mismatched degree"),
        ("euler-r1", "group", "derive needs chain-ring coefficients"),
    ], ids=["z25-instance", "degree", "group-ring-instance"])
    @pytest.mark.parametrize("command", ["verify", "derive"])
    def test_mismatched_parts_exit_2(self, tmp_path, capsys, bundle_parts,
                                     command, euler, instance, needle):
        bundle = _bundle(tmp_path, "bundle.json", bundle_parts[euler],
                         bundle_parts[instance])
        out = tmp_path / "out"
        assert cli.main([command, str(bundle), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("r, s, seed", [
        (1, 3, 0), (1, 3, 1), (1, 3, 2), (1, 3, 3), (2, 2, 0), (2, 2, 1),
    ])
    def test_verify_runs_derives_checks(self, tmp_path, r, s, seed):
        bundle = _gen(tmp_path, "bundle.json", "3,2", r, s,
                      profile="consistent", seed=seed)
        derive = tmp_path / "derive.json"
        cli.main(["derive", str(bundle), "--out", str(derive)])
        derived = json.loads(derive.read_text())
        _code, report = _verify(tmp_path, bundle, "all", "report.json")
        assert _derivative_part(report) == (derived["checks"],
                                            derived["witnesses"])


class TestDeriveNeedsChainRing:
    def test_group_ring_instance_exits_2(self, tmp_path, capsys):
        tower = _gen(tmp_path, "tower.json", "3,2", 1, 3, profile="tower")
        group = _gen(tmp_path, "group.json", "3,2,3", 1, 3)
        out = tmp_path / "derive.json"
        assert cli.main(["derive", str(tower), str(group),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "derive needs chain-ring coefficients" in err
        assert "Traceback" not in err
        assert not out.exists()


class TestGenRejectsNoPrimes:
    @pytest.mark.parametrize("profile", [
        "generic", "class-trivial", "pir-basis", "degenerate", "tower",
        "consistent",
    ])
    @pytest.mark.parametrize("s", [0, -1])
    def test_exit_2_and_no_artifact(self, tmp_path, capsys, profile, s):
        out = tmp_path / "a.json"
        code = cli.main(["gen", "--ring", "3,2", "--r", "1", "--s", str(s),
                         "--profile", profile, "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "--s must be at least 1" in capsys.readouterr().err


class TestTracerTargets:
    """``perfbench/tracer.py`` wraps ekslab functions by name; every name it
    lists must still resolve, or the traced benchmark run breaks."""

    def test_every_target_resolves(self):
        import importlib
        import importlib.util
        from pathlib import Path

        path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert tracer.TARGETS
        for _layer, module, attribute, _mode, _hook in tracer.TARGETS:
            owner = importlib.import_module(f"ekslab.{module}")
            for part in attribute.split("."):
                owner = getattr(owner, part)
            assert callable(owner), f"ekslab.{module}.{attribute}"

"""Command-line contract: golden output bytes and parameter rejection.

The golden digests were recorded from the CLI before the elimination layer
was reworked to factor each matrix once; any change to the bytes of an
artifact, a report or a derivation shows up here as a digest mismatch.
"""

import hashlib

import pytest

from ekslab import cli

GOLDEN = {
    "z9-r1-s3.json":
        "c29c7c4362e6fc0e55486f57db1c939d09666a6120c5981c429e13214ff6706e",
    "z9-r1-s3.report.json":
        "13a8bbc29972b7fd44dd6166db9ca8ac1c8d0f36b9ff179b64be3632d5255c6a",
    "z9c3-r1-s1.json":
        "360f5d2cac341e011fee3705c4ba2e7410d664680822b36d159cfe954be414b0",
    "z9c3-r1-s1.report.json":
        "188cc4c59bc6b06bdc4c1c033df147c80a3d1391dce2a58b5082ef24a539a7a8",
    "bundle-z9-r2-s2.json":
        "ef5d118303492764a3a84af0e991bfecb66b647409fa02a9a015e317468cd673",
    "bundle-z9-r2-s2.derive.json":
        "755d44aaaa6a1ef6abb438db2581db781aac1871f51384bb4696add7b233fa56",
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _gen(tmp_path, name, ring, r, s, profile="generic"):
    out = tmp_path / name
    code = cli.main(["gen", "--ring", ring, "--r", str(r), "--s", str(s),
                     "--profile", profile, "--seed", "0", "--out", str(out)])
    assert code == 0
    return out


class TestGoldenBytes:
    @pytest.mark.parametrize("stem, ring, s", [
        ("z9-r1-s3", "3,2", 3),
        ("z9c3-r1-s1", "3,2,3", 1),
    ])
    def test_gen_then_verify_all(self, tmp_path, stem, ring, s):
        artifact = _gen(tmp_path, f"{stem}.json", ring, 1, s)
        assert _digest(artifact) == GOLDEN[f"{stem}.json"]
        report = tmp_path / f"{stem}.report.json"
        code = cli.main(["verify", str(artifact), "--suite", "all",
                         "--seed", "0", "--out", str(report)])
        assert code == 0
        assert _digest(report) == GOLDEN[f"{stem}.report.json"]

    def test_consistent_bundle_derive(self, tmp_path):
        bundle = _gen(tmp_path, "bundle-z9-r2-s2.json", "3,2", 2, 2,
                      profile="consistent")
        assert _digest(bundle) == GOLDEN["bundle-z9-r2-s2.json"]
        out = tmp_path / "bundle-z9-r2-s2.derive.json"
        assert cli.main(["derive", str(bundle), "--out", str(out)]) == 0
        assert _digest(out) == GOLDEN["bundle-z9-r2-s2.derive.json"]


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

"""Byte-level pins of the CLI outputs.

The digests were recorded with the dict-based layer storage that preceded
the array-native pair codes; every output must stay byte-identical.  The
``metrics.json`` report, the ``synth score`` Pearson and the raw ConNet
coefficients of ``baseline con`` pass through BLAS/LAPACK, so on another
BLAS build or CPU kernel their last digits, and so these digests, may
differ.
"""

import hashlib

import pytest

from conftest import expression_csv
from mapnet.cli import main

EXPECTED = {
    "net.txt": "bf83d3f10652dada364349db2f1b835a79029ce9c7c989d51d83708752d5337b",
    "truth.csv": "6ef2719412b762ab12e988c318d38ead6b5be552891195a808a5e178d458c419",
    "truth.json": "7f9da25bdf44184f189f5bfa8ae28016adb6e9cc6560a5338b8c6055f1e08414",
    "agg.csv": "7882070c4cee9203bc17409136e67e7ff0c1554f4db87daba6fcde4474e6a109",
    "agg.json": "6811f34386583cd9b0046115dbb857e9d3b723b66ba817855a7491abccf1f461",
    "unweighted.csv": "937ea8360e000f4f8c82590c088c5d410703c5b1fce9ed180a0734ea36536eed",
    "unweighted.json": "f5c407280b35b7c99dfa7a922a323d35a199aaa64eb2e6d84d554b969c1c932a",
    "ave.csv": "e2a2fed362cc5976c1bb4f9724a0fe830d40da2f8e4fce6bdb70e7c788792d3e",
    "metrics.json": "5a7e892f5822b914b15c6fb67d0a62758fc548770dfd9dd63c84e85c1ddae1c7",
    "cdf.csv": "c61fa825a947d95f226117f3923e839b4cb6491a082ae9b95d61908664ff3729",
    "score.json": "5e9dc2a084f0551348c5104832cd02ae1fbcefcb42b8877589943fc71a223c1d",
    "layers.txt": "3039198bfabe13677abd309cb738b5bf8fd5401f348ec90dbfaeaa84f985782e",
    "con.csv": "71a8bcee70b8f4429de5f96e372cb4035c2d99c9d7d5f142f5d49dfe188d4a69",
}


def _digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def synth_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_synth")
    runs = [
        ["synth", "gen", "--nodes", "40", "--layers", "5", "--coverage", "0.8", "--seed", "3",
         "-o", d / "net.txt", "--truth", d / "truth.csv"],
        ["aggregate", d / "net.txt", "-o", d / "agg.csv"],
        ["aggregate", d / "net.txt", "--unweighted", "-o", d / "unweighted.csv"],
        ["baseline", "ave", d / "net.txt", "-o", d / "ave.csv"],
        ["metrics", d / "agg.csv", "-o", d / "metrics.json", "--cdf", d / "cdf.csv"],
        ["synth", "score", "--est", d / "agg.csv", "--est-meta", d / "agg.json",
         "--truth", d / "truth.csv", "--truth-meta", d / "truth.json", "-o", d / "score.json"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
    return d


@pytest.fixture(scope="module")
def expression_outputs(tmp_path_factory, expression_collection):
    d = tmp_path_factory.mktemp("golden_expr")
    paths = []
    for ds in expression_collection:
        path = d / f"{ds.name}.csv"
        path.write_text(expression_csv(ds), encoding="utf-8")
        paths.append(str(path))
    assert main(["build-layers", *paths, "-o", str(d / "layers.txt")]) == 0
    assert main(["baseline", "con", *paths, "-o", str(d / "con.csv")]) == 0
    return d


SYNTH_FILES = [
    "net.txt", "truth.csv", "truth.json", "agg.csv", "agg.json", "unweighted.csv",
    "unweighted.json", "ave.csv", "metrics.json", "cdf.csv", "score.json",
]


@pytest.mark.parametrize("name", SYNTH_FILES)
def test_synth_pipeline_bytes(synth_outputs, name):
    assert _digest(synth_outputs / name) == EXPECTED[name]


@pytest.mark.parametrize("name", ["layers.txt", "con.csv"])
def test_expression_pipeline_bytes(expression_outputs, name):
    assert _digest(expression_outputs / name) == EXPECTED[name]

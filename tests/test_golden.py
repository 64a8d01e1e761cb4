"""Byte-level pins of the CLI outputs.

The digests were recorded with the dict-based layer storage that preceded
the array-native pair codes; every output must stay byte-identical.  The
``compare``/``experiment`` digests and the ``aggregate`` flag variants were
recorded before the solver and correlation settings were reduced to one
setting per choice.  The ``metrics.json`` report, the ``compare`` reports,
the ``synth score`` Pearson and the raw ConNet coefficients of ``baseline
con`` pass through BLAS/LAPACK, so on another BLAS build or CPU kernel
their last digits, and so these digests, may differ.
"""

import contextlib
import hashlib
import io

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


@pytest.fixture(scope="module")
def analysis_outputs(expression_outputs):
    d = expression_outputs
    paths = sorted(str(p) for p in d.glob("exp*.csv"))
    runs = [
        ["aggregate", d / "layers.txt", "-o", d / "map.csv"],
        ["baseline", "ave", d / "layers.txt", "-o", d / "layers_ave.csv"],
        ["compare", "--map-csv", d / "map.csv", "--map-meta", d / "map.json", "--con", d / "con.csv",
         "--ave", d / "layers_ave.csv", "--out-dir", d / "cmp"],
        ["experiment", "subsets", *paths, "-o", d / "table.csv", "--sizes", "1,2,8",
         "--reps", "3", "--seed", "11"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
    return d


ANALYSIS_EXPECTED = {
    "map.csv": "120bad551124118877306b20320bcb45f8d0aa9e7aa32d8e7b03810fb93f0bf0",
    "map.json": "5f7e494ff31cfe020143cfdd3e2d165dbec41309fb045d64b932e63e7a31653c",
    "layers_ave.csv": "2a325afd0289cf26786ed5cefb9c834d4988f90e6ff3871ccec6fdf2563369c4",
    "table.csv": "10c2bb01d1fc449d5fb0e1429e433b615c74fe8a9d466a0ccca9d54d011b1434",
    "cmp/reports.json": "e9b8f134a2abd0ae296f262fd1b135c0c4ff6910207eb820eb0c81cf77983be8",
    "cmp/scatter_map_vs_ave.csv": "01f0f457a2eceec89a516e85fe8c35b9cabaf21ed25cc6a6e9044d8f2b7b1a89",
    "cmp/scatter_map_vs_con.csv": "0e02773b1180b06b4a73ee1da7a7a386d6af30625a039bad9688cd7eb344d7d6",
    "cmp/strength_cdf_ave.csv": "76f0f225608d06a0350f0744dd3f444f9261e81374f2234225bbd375ba001897",
    "cmp/strength_cdf_con.csv": "cbaa6df3e962c27ff38e681e5c0fd7feae70a87d79d358b2660c4437be5754db",
    "cmp/strength_cdf_map.csv": "84d801149208a0be0c97a9d28c65c6c513768fc92037cd6f32359fbcde4da678",
}


@pytest.mark.parametrize("name", sorted(ANALYSIS_EXPECTED))
def test_compare_and_experiment_bytes(analysis_outputs, name):
    assert _digest(analysis_outputs / name) == ANALYSIS_EXPECTED[name]


# name -> (aggregate flags, csv digest, sidecar digest, stderr)
AGGREGATE_VARIANTS = {
    "seed_5": (
        ["--seed", "5"],
        "7db871997840fb290b349b6401c4dcc764153af91365d48eef7e3bf9e4e5ed6c",
        "c3acc9283b8fd25f0437280a85f8ba99baa38bd6b9ccfd42d675dd6a60af4f72",
        "",
    ),
    "count_nonzero": (
        ["--count-mode", "nonzero"],
        "88fe46383241b98e19571ed20de7ee4226ec6e2efac59a2103a2f5ea88431ea2",
        "39fc9a08d2ca22a84e2ea30884f7bec16a01b6423252319e1fffdb432e0abe1b",
        "",
    ),
    "pair_paper": (
        ["--pair-count", "paper"],
        "77a03f3715047fcbfadd868a89a798c80f2d2e1c56b751afe91609a790c6c37a",
        "2ab4c5c118a021567e61c03c572fa3c2073d7b3d4e6aca889e7272c171a1086b",
        "",
    ),
    "unweighted": (
        ["--unweighted"],
        "937ea8360e000f4f8c82590c088c5d410703c5b1fce9ed180a0734ea36536eed",
        "f5c407280b35b7c99dfa7a922a323d35a199aaa64eb2e6d84d554b969c1c932a",
        "",
    ),
    "unweighted_nonzero_seed_2": (
        ["--unweighted", "--count-mode", "nonzero", "--seed", "2"],
        "5b3b76d3905c50f9f8ac23c3fb1cffd225d13f2d09722867dd28c6d092ce8e6b",
        "9c9a899b45710139d5f0561dfddfc41089a9e7172851ca6e2f6239a09e0033bb",
        "",
    ),
    "max_iter_1": (
        ["--max-iter", "1"],
        "22ec6644a69bfa48415eae341332d1ed3acd75842e0fc2510be540f633f4ac07",
        "9dac08c49aa96f26ea36ab58650ea98d1e62aa57c04f15f82aef29b0707e7cd8",
        '{"warning": "NotConverged", "iterations": 1, "theta": 1.3386120595790618}\n',
    ),
}


@pytest.fixture(scope="module")
def variant_outputs(synth_outputs):
    d = synth_outputs
    stderr = {}
    for name, (flags, *_) in AGGREGATE_VARIANTS.items():
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            code = main(["aggregate", str(d / "net.txt"), "-o", str(d / f"variant_{name}.csv"), *flags])
        assert code == 0
        stderr[name] = buf.getvalue()
    return d, stderr


@pytest.mark.parametrize("name", sorted(AGGREGATE_VARIANTS))
def test_aggregate_flag_variant_bytes(variant_outputs, name):
    d, stderr = variant_outputs
    _, csv_digest, json_digest, err = AGGREGATE_VARIANTS[name]
    assert _digest(d / f"variant_{name}.csv") == csv_digest
    assert _digest(d / f"variant_{name}.json") == json_digest
    assert stderr[name] == err

"""Byte-level pins of the CLI outputs.

The digests were recorded with the dict-based layer storage that preceded
the array-native pair codes; every output must stay byte-identical.  The
``compare``/``experiment`` digests and the ``aggregate`` flag variants were
recorded before the solver and correlation settings were reduced to one
setting per choice.  The digests of every file that depends on the
solver's theta (the aggregates and what is computed from them) were
re-recorded when Newton steps replaced the alternating updates, once theta
agreed with ``theta_fixed_point_oracle`` within 1.1e-15 relative (the old
theta was up to 1.2e-10 off).  The sidecars of ``--unweighted`` runs were
re-recorded when their ``count_mode`` field began to read ``presence``, the
mode that ran, instead of the ``--count-mode`` value; their CSVs did not
change.  ``metrics.json`` and ``cmp/reports.json`` were re-recorded when
one ``eigh`` call replaced the power iteration behind the eigenvector
centrality: each ``eigencentrality_mean`` moved by 1.8e-12 to 3.1e-11 and
now agrees with networkx's ``eigenvector_centrality_numpy`` within 1.2e-16.
Six ``aggregate`` sidecars (``agg.json``, ``map.json`` and the
``count_nonzero``, ``pair_paper``, ``unweighted_seed_2`` and ``max_iter_1``
variants) were re-recorded when ``final_objective`` came to be summed over
the k-strata instead of over every pair: each moved in its last digits, by
1.1e-16 to 1.2e-15 relative, and agrees with the per-pair log-posterior
(``conftest.log_posterior``) within 1e-12 relative.
The ``metrics.json`` report, the ``compare`` reports, the
``synth score`` Pearson and the raw ConNet coefficients of ``baseline
con`` pass through BLAS/LAPACK, so on another BLAS build or CPU kernel
their last digits, and so these digests, may differ.
"""

import contextlib
import hashlib
import io
import re

import pytest

from conftest import expression_csv
from mapnet.cli import main

EXPECTED = {
    "net.txt": "bf83d3f10652dada364349db2f1b835a79029ce9c7c989d51d83708752d5337b",
    "truth.csv": "6ef2719412b762ab12e988c318d38ead6b5be552891195a808a5e178d458c419",
    "truth.json": "7f9da25bdf44184f189f5bfa8ae28016adb6e9cc6560a5338b8c6055f1e08414",
    "agg.csv": "fa9d4b264fc66578ef0f79fca960804b968622197ba2c032316504f48f251d1a",
    "agg.json": "12ffe50becdc4ce46f4a328e1bddde1f37b32ca0c4acc929fb6046fb40f7f7ed",
    "unweighted.csv": "e569bb0f75f476beb4105003bc9228ebd13185cbafd6428b3ad570d86fe91f0c",
    "unweighted.json": "f8d4dfa01712d2362d9f65b04d3646aebdc2f3d286fda25dbc52c0839490c885",
    "ave.csv": "e2a2fed362cc5976c1bb4f9724a0fe830d40da2f8e4fce6bdb70e7c788792d3e",
    "metrics.json": "4864ffa0dd6071047f4d0f2db648266ce7449505aa50849dd5cd541ffb8a34c8",
    "cdf.csv": "751592931e19ef501b72d90796d10c6c2dc8971d0a1d9609f52fc38fe81e12fb",
    "score.json": "0f5b70ddf9f3b1e66e91e8a285d7d311b18ab29913a72af9bbd7afac5a4c8e40",
    "layers.txt": "3039198bfabe13677abd309cb738b5bf8fd5401f348ec90dbfaeaa84f985782e",
    "zlayers.txt": "9d95b4e65551c57cffc290e84fda0b1ef164448fce0e9ab4b4d1da665180f31b",
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
    assert main(["build-layers", *paths, "--zscore", "-o", str(d / "zlayers.txt")]) == 0
    assert main(["baseline", "con", *paths, "-o", str(d / "con.csv")]) == 0
    return d


SYNTH_FILES = [
    "net.txt", "truth.csv", "truth.json", "agg.csv", "agg.json", "unweighted.csv",
    "unweighted.json", "ave.csv", "metrics.json", "cdf.csv", "score.json",
]


@pytest.mark.parametrize("name", SYNTH_FILES)
def test_synth_pipeline_bytes(synth_outputs, name):
    assert _digest(synth_outputs / name) == EXPECTED[name]


@pytest.mark.parametrize("name", ["layers.txt", "zlayers.txt", "con.csv"])
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
    "map.csv": "a92099638fdb30a4755dce8096282a06228dd7b415802e267da9ccfd7baa301f",
    "map.json": "2869272dd224b4ff14566ae17cb1398bba3259a83d45e62bb647c6f2e38ad6fa",
    "layers_ave.csv": "2a325afd0289cf26786ed5cefb9c834d4988f90e6ff3871ccec6fdf2563369c4",
    "table.csv": "ab77b1f6c76d3f9526262f5a7a4a975b5e21cdcc5714ad84fde9f78d70b5d07e",
    "cmp/reports.json": "7bc0ec300d352085f5f5c0364b97e619a133f216f8392e94c3973abb88e640fd",
    "cmp/scatter_map_vs_ave.csv": "9f870bff1fba64ee3026ea89a1e75b151f1b71b36a0386eed8ee89e3e3204573",
    "cmp/scatter_map_vs_con.csv": "dd49c0145b26be9cd04ec1f02788f6a274bee0aa8a2a4d772e8772929dd87a26",
    "cmp/strength_cdf_ave.csv": "76f0f225608d06a0350f0744dd3f444f9261e81374f2234225bbd375ba001897",
    "cmp/strength_cdf_con.csv": "cbaa6df3e962c27ff38e681e5c0fd7feae70a87d79d358b2660c4437be5754db",
    "cmp/strength_cdf_map.csv": "a991b2c85f9c365b4f5bae5e70825081dc5882f2780a7f4a3b97f7b8aee8b70a",
}


@pytest.mark.parametrize("name", sorted(ANALYSIS_EXPECTED))
def test_compare_and_experiment_bytes(analysis_outputs, name):
    assert _digest(analysis_outputs / name) == ANALYSIS_EXPECTED[name]


# name -> (aggregate flags, csv digest, sidecar digest, stderr)
AGGREGATE_VARIANTS = {
    "seed_5": (
        ["--seed", "5"],
        "da75a474dabc0c50e99630a1f8dbe6de0afef4be506211b28c8c753ba83ec951",
        "6823bab1a55c9d03b432c5396e47e4b1d2323856e04e5b03c5cc03eca716f27b",
        "",
    ),
    "count_nonzero": (
        ["--count-mode", "nonzero"],
        "1920d0d34c56575f4f606666de80f5854120fdd570645b18daf6863dd90fd725",
        "9bf919485e6404214ce9b6e707068b192fb342ea90fe0e420309c2a446990f61",
        "",
    ),
    "pair_paper": (
        ["--pair-count", "paper"],
        "11dfa703bfdde5c5a314f4df88581caa05036241707b95421e1225c38a188713",
        "5f43b4af2a41de4e1f957c2cddf9e6214d2fe12890cc30582e446fc9c8cb6811",
        "",
    ),
    "unweighted": (
        ["--unweighted"],
        "e569bb0f75f476beb4105003bc9228ebd13185cbafd6428b3ad570d86fe91f0c",
        "f8d4dfa01712d2362d9f65b04d3646aebdc2f3d286fda25dbc52c0839490c885",
        "",
    ),
    "unweighted_seed_2": (
        ["--unweighted", "--seed", "2"],
        "a9a381a911b2cb4320ef645fa3dbfa21732ced3e7676a9e73f6235a93ea6a4e8",
        "8fef7f5dbb9308766000b375b9f38ab2ed0368e955000b7dda0b6740af809ba1",
        "",
    ),
    "max_iter_1": (
        ["--max-iter", "1"],
        "135980f1b03a6f554710d285a9987ac8c2d0582c30b7d06057fbaff70e4d3775",
        "32f311da01fbddede9c8e45343c46078dd26e59c7304edf4b9b6089ebf4ff0d2",
        '{"warning": "NotConverged", "iterations": 1, "theta": 1.4400941479722573}\n',
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


# name -> digest of the synth pipeline's outputs over its network relabelled
# to 15-byte Ensembl-style gene ids and 16-byte layer names.  Recorded when
# a label longer than 8 bytes sent the whole file to the per-line reader,
# so they pin the chunk reader's long keys to that reader's bytes.
ENSEMBL_EXPECTED = {
    "agg.csv": "40669f4ba4e3cf682e50246117d2670473a78760d43fcf6411637cfb024e02fc",
    "agg.json": "12ffe50becdc4ce46f4a328e1bddde1f37b32ca0c4acc929fb6046fb40f7f7ed",
    "ave.csv": "e98ce0fd1d6446849e2926632a8eff65a75e907709ad3967275a54897eae4d58",
    "metrics.json": "42311aa79aa2e3852f334eaf8f7b54daa43cc2195b8e557af63ae460d3ee7d65",
    "cdf.csv": "751592931e19ef501b72d90796d10c6c2dc8971d0a1d9609f52fc38fe81e12fb",
}


def _ensembl(text):
    """``text`` with each ``nXX`` label an Ensembl-style id (in another sort
    order) and each ``layerX`` name a 16-byte tissue name."""
    text = re.sub(r"\bn(\d+)\b", lambda m: f"ENSG{int(m[1]) * 7919 % 10007:011d}", text)
    return re.sub(r"^layer(\d+)", lambda m: f"GTEx_tissue_{int(m[1]):04d}", text, flags=re.M)


@pytest.fixture(scope="module")
def ensembl_outputs(synth_outputs, tmp_path_factory):
    d = tmp_path_factory.mktemp("golden_ensembl")
    (d / "net.txt").write_text(_ensembl((synth_outputs / "net.txt").read_text()))
    runs = [
        ["aggregate", d / "net.txt", "-o", d / "agg.csv"],
        ["baseline", "ave", d / "net.txt", "-o", d / "ave.csv"],
        ["metrics", d / "agg.csv", "-o", d / "metrics.json", "--cdf", d / "cdf.csv"],
    ]
    for argv in runs:
        assert main([str(a) for a in argv]) == 0
    return d


@pytest.mark.parametrize("name", sorted(ENSEMBL_EXPECTED))
def test_long_label_pipeline_bytes(ensembl_outputs, name):
    assert _digest(ensembl_outputs / name) == ENSEMBL_EXPECTED[name]

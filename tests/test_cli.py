import errno
import gc
import itertools
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import mapnet
from mapnet import (
    AggregatedNetwork,
    CorrelationConfig,
    EmConfig,
    ExpressionDataset,
    LayerGraph,
    NodeUniverse,
    aggregate_network,
    build_avenet,
    build_correlation_layer,
    build_correlation_network,
    compare_networks,
    exponential_fit_r2,
    parse_aggregated_csv,
    parse_expression_csv,
    parse_layer_csv,
    parse_multiplex_edgelist,
    recovery_metrics,
    run_subset_experiment,
    serialize_multiplex_edgelist,
    weight_cdf,
)
from mapnet.cli import main
from mapnet.synth import truth_from_csv
from mapnet.errors import BracketingFailure, DegenerateAllZero, NotConverged, UniverseMismatch
from conftest import coded, expression_csv, layer_csv, make_expression_dataset, pair_dict


@pytest.fixture()
def dataset_files(tmp_path):
    rng = np.random.default_rng(71)
    genes = [f"g{i:02d}" for i in range(12)]
    paths = []
    for d in range(3):
        ds = make_expression_dataset(rng, genes, 10, name=f"set{d + 1}")
        path = tmp_path / f"set{d + 1}.csv"
        path.write_text(expression_csv(ds), encoding="utf-8")
        paths.append(str(path))
    return paths


@pytest.fixture()
def multiplex_file(tmp_path):
    path = tmp_path / "net.txt"
    assert main(
        [
            "synth",
            "gen",
            "--nodes",
            "15",
            "--layers",
            "4",
            "--theta",
            "1.0",
            "--coverage",
            "0.8",
            "--seed",
            "3",
            "-o",
            str(path),
            "--truth",
            str(tmp_path / "truth.csv"),
        ]
    ) == 0
    return str(path)


class TestBuildLayers:
    def test_output_parses_and_is_deterministic(self, dataset_files, tmp_path):
        out = tmp_path / "layers.txt"
        argv = ["build-layers", *dataset_files, "-o", str(out), "--min-pairs", "5"]
        assert main(argv) == 0
        first = out.read_bytes()
        net = parse_multiplex_edgelist(out.read_text(encoding="utf-8"))
        assert net.depth == 3
        assert net.layer_names == ("set1", "set2", "set3")
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_quantize_zero_keeps_raw_coefficients(self, dataset_files, tmp_path):
        out, quantized = tmp_path / "layers.txt", tmp_path / "quantized.txt"
        assert main(["build-layers", *dataset_files, "-o", str(out), "--quantize", "0"]) == 0
        assert main(["build-layers", *dataset_files, "-o", str(quantized)]) == 0
        datasets = [parse_expression_csv(Path(p).read_text(encoding="utf-8"), name=Path(p).stem)
                    for p in dataset_files]
        net = build_correlation_network(datasets, CorrelationConfig(quantize_levels=None))
        assert out.read_text(encoding="utf-8") == serialize_multiplex_edgelist(net)
        assert out.read_bytes() != quantized.read_bytes()


class TestAggregate:
    def test_csv_and_sidecar(self, multiplex_file, tmp_path):
        out = tmp_path / "agg.csv"
        assert main(["aggregate", multiplex_file, "-o", str(out)]) == 0
        sidecar = json.loads((tmp_path / "agg.json").read_text(encoding="utf-8"))
        assert sidecar["converged"] is True
        assert sidecar["count_mode"] == "measurable"
        assert sidecar["pair_count_mode"] == "unordered"
        agg = parse_aggregated_csv(out.read_text(encoding="utf-8"), sidecar)
        assert agg.theta == sidecar["theta"]
        assert all(v >= 0 for v in agg.values.tolist())

    def test_converged_run_prints_nothing(self, multiplex_file, tmp_path, capsys):
        assert main(["aggregate", multiplex_file, "-o", str(tmp_path / "agg.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_not_converged_warns_on_stderr(self, multiplex_file, tmp_path, capsys):
        out = tmp_path / "agg.csv"
        assert main(["aggregate", multiplex_file, "-o", str(out), "--max-iter", "1"]) == 0
        sidecar = json.loads((tmp_path / "agg.json").read_text(encoding="utf-8"))
        assert sidecar["converged"] is False
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "warning": "NotConverged",
            "iterations": sidecar["iterations"],
            "theta": sidecar["theta"],
        }
        # the outputs do not depend on whether the warning was printed
        first = out.read_bytes()
        assert main(["aggregate", multiplex_file, "-o", str(out), "--max-iter", "1"]) == 0
        assert out.read_bytes() == first

    def test_flag_variants(self, multiplex_file, tmp_path):
        out = tmp_path / "agg2.csv"
        argv = [
            "aggregate",
            multiplex_file,
            "-o",
            str(out),
            "--count-mode",
            "nonzero",
            "--pair-count",
            "paper",
            "--seed",
            "5",
            "--tol",
            "1e-12",
        ]
        assert main(argv) == 0
        sidecar = json.loads((tmp_path / "agg2.json").read_text(encoding="utf-8"))
        assert sidecar["pair_count_mode"] == "paper_n_squared"
        assert sidecar["count_mode"] == "nonzero_only"

    def test_unweighted_flag(self, tmp_path, aarhus_style_text):
        net_path = tmp_path / "friend.txt"
        net_path.write_text(aarhus_style_text, encoding="utf-8")
        out = tmp_path / "agg3.csv"
        assert main(["aggregate", str(net_path), "-o", str(out), "--unweighted"]) == 0
        agg = parse_aggregated_csv(
            out.read_text(encoding="utf-8"),
            json.loads((tmp_path / "agg3.json").read_text(encoding="utf-8")),
        )
        assert len({round(v, 12) for v in agg.values.tolist() if v > 0}) == 5

    def test_count_mode_presence_is_unweighted(self, tmp_path, aarhus_style_text):
        net_path = tmp_path / "friend.txt"
        net_path.write_text(aarhus_style_text, encoding="utf-8")
        for name, flags in (("u", ["--unweighted"]), ("p", ["--count-mode", "presence"])):
            assert main(["aggregate", str(net_path), "-o", str(tmp_path / f"{name}.csv"), *flags]) == 0
        for ext in ("csv", "json"):
            assert (tmp_path / f"u.{ext}").read_bytes() == (tmp_path / f"p.{ext}").read_bytes()
        assert json.loads((tmp_path / "u.json").read_text(encoding="utf-8"))["count_mode"] == "presence"

    @pytest.mark.parametrize("unweighted_first", [True, False])
    @pytest.mark.parametrize("mode", ["measurable", "nonzero", "presence"])
    def test_unweighted_with_count_mode_is_a_usage_error(self, multiplex_file, tmp_path, capsys,
                                                         mode, unweighted_first):
        out = tmp_path / "agg.csv"
        flags = ["--count-mode", mode]
        flags = ["--unweighted", *flags] if unweighted_first else [*flags, "--unweighted"]
        with pytest.raises(SystemExit) as exc:
            main(["aggregate", multiplex_file, "-o", str(out), *flags])
        assert exc.value.code == 2
        assert "not allowed with argument" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "agg.json").exists()


class TestBaseline:
    def test_connet(self, dataset_files, tmp_path):
        out = tmp_path / "connet.csv"
        assert main(["baseline", "con", *dataset_files, "-o", str(out)]) == 0
        layer = parse_layer_csv(out.read_text(encoding="utf-8"))
        assert layer.measurable

    def test_avenet(self, multiplex_file, tmp_path):
        out = tmp_path / "avenet.csv"
        assert main(["baseline", "ave", multiplex_file, "-o", str(out)]) == 0
        layer = parse_layer_csv(out.read_text(encoding="utf-8"))
        assert layer.measurable

    def test_avenet_over_all_layers(self, multiplex_file, tmp_path):
        out, measurable = tmp_path / "avenet.csv", tmp_path / "measurable.csv"
        assert main(["baseline", "ave", multiplex_file, "-o", str(out), "--denominator", "all"]) == 0
        assert main(["baseline", "ave", multiplex_file, "-o", str(measurable)]) == 0
        net = parse_multiplex_edgelist(Path(multiplex_file).read_text(encoding="utf-8"))
        assert out.read_text(encoding="utf-8") == layer_csv(build_avenet(net, "all_layers"))
        assert out.read_bytes() != measurable.read_bytes()

    def test_avenet_takes_one_edge_list(self, multiplex_file, tmp_path, capsys):
        out = tmp_path / "avenet.csv"
        assert main(["baseline", "ave", multiplex_file, multiplex_file, "-o", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "MapnetError", "message": "baseline ave takes exactly one multiplex edge list"}
        assert not out.exists()


class TestMetricsCommand:
    def test_report_and_cdf(self, multiplex_file, tmp_path):
        agg_csv = tmp_path / "agg.csv"
        assert main(["aggregate", multiplex_file, "-o", str(agg_csv)]) == 0
        report_path = tmp_path / "report.json"
        cdf_path = tmp_path / "cdf.csv"
        assert main(
            ["metrics", str(agg_csv), "-o", str(report_path), "--cdf", str(cdf_path)]
        ) == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["log_base"] == "natural"
        assert 0 <= report["entropy"] <= np.log(report["n_nodes"])
        lines = cdf_path.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "value,fraction"
        assert float(lines[-1].split(",")[1]) == 1.0

    def test_one_edge_entropy_is_written_as_zero(self, tmp_path):
        # the entropy of a pure state is a negated sum of zeros, once written as -0.0
        net = tmp_path / "one.txt"
        net.write_text("L1 a b 5\n", encoding="utf-8")
        assert main(["aggregate", str(net), "-o", str(tmp_path / "agg.csv")]) == 0
        assert main(["metrics", str(tmp_path / "agg.csv"), "-o", str(tmp_path / "m.json")]) == 0
        assert '"entropy": 0.0,' in (tmp_path / "m.json").read_text(encoding="utf-8")

    def test_log_base_flag(self, multiplex_file, tmp_path):
        agg_csv = tmp_path / "agg.csv"
        assert main(["aggregate", multiplex_file, "-o", str(agg_csv)]) == 0
        out = tmp_path / "report2.json"
        assert main(["metrics", str(agg_csv), "-o", str(out), "--log-base", "2"]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["log_base"] == "base2"


class TestCompareCommand:
    def test_identity_networks_lie_on_diagonal(self, tmp_path):
        uni = NodeUniverse(("a", "b", "c"))
        layer = LayerGraph(uni, *coded(uni, {(0, 1): 1.0, (0, 2): 3.0, (1, 2): 2.0}))
        csv_text = "node_u,node_v,weight\na,b,1.0\na,c,3.0\nb,c,2.0\n"
        for name in ("map.csv", "con.csv", "ave.csv"):
            (tmp_path / name).write_text(csv_text, encoding="utf-8")
        (tmp_path / "map.json").write_text(
            json.dumps({"theta": 0.5, "iterations": 3, "converged": True}), encoding="utf-8"
        )
        out_dir = tmp_path / "cmp"
        assert main(
            [
                "compare",
                "--map-csv",
                str(tmp_path / "map.csv"),
                "--map-meta",
                str(tmp_path / "map.json"),
                "--con",
                str(tmp_path / "con.csv"),
                "--ave",
                str(tmp_path / "ave.csv"),
                "--out-dir",
                str(out_dir),
            ]
        ) == 0
        for scatter in ("scatter_map_vs_con.csv", "scatter_map_vs_ave.csv"):
            rows = (out_dir / scatter).read_text(encoding="utf-8").strip().splitlines()[1:]
            for row in rows:
                _, _, x, y = row.split(",")
                assert float(x) == float(y)
        reports = json.loads((out_dir / "reports.json").read_text(encoding="utf-8"))
        assert set(reports) == {"map", "con", "ave"}
        assert (out_dir / "strength_cdf_map.csv").exists()

    def test_scatter_columns_match_pair_oracle(self):
        rng = np.random.default_rng(5)
        uni = NodeUniverse(tuple(f"n{i}" for i in range(9)))
        pairs = [(i, j) for i in range(9) for j in range(i + 1, 9)]

        def draw():
            # about half of the pairs, a quarter of them measured zeros
            return {p: float(rng.integers(0, 4)) * rng.uniform(0.5, 2.0)
                    for p in pairs if rng.uniform() < 0.5}

        agg = AggregatedNetwork(uni, *coded(uni, draw()), 0.7, 5, True, 0.0)
        con, ave = LayerGraph(uni, *coded(uni, draw())), LayerGraph(uni, *coded(uni, draw()))
        bundle = compare_networks(agg, con, ave)
        mine = pair_dict(agg)
        for other, (i, j, x, y) in ((con, bundle.scatter_con), (ave, bundle.scatter_ave)):
            theirs = pair_dict(other)
            union = sorted(mine.keys() | theirs.keys())
            assert len(union) > max(len(mine), len(theirs))
            assert (i.dtype, j.dtype) == (np.int64, np.int64)
            assert list(zip(i.tolist(), j.tolist())) == union
            assert x.tolist() == [mine.get(p, 0.0) / max(mine.values()) for p in union]
            assert y.tolist() == [theirs.get(p, 0.0) / max(theirs.values()) for p in union]
        for name, g in (("map", agg), ("con", con), ("ave", ave)):
            strengths = np.zeros(9)
            for (u, v), w in pair_dict(g).items():
                strengths[[u, v]] += w
            np.testing.assert_allclose(bundle.strength_cdfs[name], weight_cdf(strengths), rtol=1e-15)

    def test_universe_mismatch_in_library(self):
        uni1 = NodeUniverse(("a", "b"))
        uni2 = NodeUniverse(("a", "c"))
        agg = AggregatedNetwork(uni1, *coded(uni1, {(0, 1): 1.0}), 1.0, 1, True, 0.0)
        layer1 = LayerGraph(uni1, *coded(uni1, {(0, 1): 1.0}))
        layer2 = LayerGraph(uni2, *coded(uni2, {(0, 1): 1.0}))
        with pytest.raises(UniverseMismatch):
            compare_networks(agg, layer1, layer2)


def _drawn_subsets(n, sizes, reps, seed):
    """The subsets of each size that the experiment draws, in the order of its draws."""
    rng = np.random.default_rng(seed)
    drawn = []
    for size in sizes:
        if math.comb(n, size) <= reps:
            drawn.append(list(itertools.combinations(range(n), size)))
            continue
        subsets = []
        while len(subsets) < reps:
            pick = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
            if pick not in subsets:
                subsets.append(pick)
        drawn.append(subsets)
    return drawn


def _experiment_oracle(datasets, sizes, reps, seed, cfg):
    """The experiment's rows, each float as its hex, with each drawn subset's network
    built whole by build_correlation_network."""
    rows = []
    for size, subsets in zip(sizes, _drawn_subsets(len(datasets), sizes, reps, seed)):
        thetas, r2s = [], []
        for subset in subsets:
            try:
                agg = aggregate_network(build_correlation_network([datasets[i] for i in subset], cfg))
            except BracketingFailure:
                thetas.append(math.inf)
                r2s.append(math.nan)
                continue
            thetas.append(agg.theta)
            positive = agg.values[agg.values > 0]
            fits = positive.size > 0 and positive.min() < positive.max()
            r2s.append(exponential_fit_r2(positive, agg.theta) if fits else math.nan)
        rows.append((size, float(np.mean(thetas)).hex(), float(np.mean(r2s)).hex()))
    return rows


def _reshuffled(datasets, seed):
    """The datasets with their genes in a random order, and every other one unnamed."""
    rng = np.random.default_rng(seed)
    out = []
    for k, ds in enumerate(datasets):
        order = rng.permutation(ds.n_genes)
        out.append(ExpressionDataset(tuple(ds.genes[i] for i in order), ds.conditions,
                                     ds.values[order], ds.name if k % 2 else ""))
    return out


class TestExperimentCommand:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_equal_building_each_subset_whole(self, expression_collection, seed):
        # genes that only partly overlap, so that the unions of subsets differ
        assert len({ds.genes for ds in expression_collection}) == len(expression_collection)
        datasets = _reshuffled(expression_collection, seed)
        # datasets 4, 5 and 7 hold no finite prior rate together
        collections = [(datasets, [1, 2, 3, 7, 8]), ([datasets[i] for i in (4, 5, 7)], [1, 2, 3])]
        for cfg in (CorrelationConfig(), CorrelationConfig(min_pairs=4, quantize_levels=None)):
            for chosen, sizes in collections:
                rows = run_subset_experiment(chosen, sizes, 3, seed, cfg)
                got = [(r.size, r.mean_theta.hex(), r.mean_r2.hex()) for r in rows]
                assert got == _experiment_oracle(chosen, sizes, 3, seed, cfg)
        assert math.isinf(rows[-1].mean_theta)

    @pytest.mark.parametrize("seed", range(3))
    def test_each_drawn_dataset_is_built_once(self, expression_collection, monkeypatch, seed):
        built = []

        def build(ds, cfg):
            built.append(ds.name)
            return build_correlation_layer(ds, cfg)

        monkeypatch.setattr("mapnet.analysis.build_correlation_layer", build)
        sizes = [1, 2, 3]
        run_subset_experiment(expression_collection, sizes, 2, seed)
        drawn = [i for subsets in _drawn_subsets(8, sizes, 2, seed) for s in subsets for i in s]
        first = list(dict.fromkeys(drawn))
        # some dataset is drawn twice, and some never
        assert len(first) < len(drawn) and len(first) < 8
        assert built == [expression_collection[i].name for i in first]

    def test_subsets_table(self, dataset_files, tmp_path):
        out = tmp_path / "table.csv"
        argv = [
            "experiment",
            "subsets",
            *dataset_files,
            "-o",
            str(out),
            "--sizes",
            "1,2,3",
            "--reps",
            "2",
            "--seed",
            "7",
        ]
        assert main(argv) == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "size,mean_theta,mean_r2"
        assert len(lines) == 4
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first

    def test_unconverged_solves_warn_one_line_each(self, dataset_files, tmp_path, capsys):
        argv = ["experiment", "subsets", *dataset_files, "--sizes", "1,3", "--reps", "2",
                "--seed", "4", "-o"]
        assert main([*argv, str(tmp_path / "full.csv")]) == 0
        assert capsys.readouterr().err == ""
        assert main([*argv, str(tmp_path / "short.csv"), "--max-iter", "1"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().err.splitlines()]
        assert [(w["warning"], w["size"], w["iterations"]) for w in lines] == [
            ("NotConverged", 1, 1), ("NotConverged", 1, 1), ("NotConverged", 3, 1)]
        assert lines[2]["datasets"] == ["set1", "set2", "set3"]
        short = (tmp_path / "short.csv").read_text(encoding="utf-8").splitlines()
        assert float(short[2].split(",")[1]) == lines[2]["theta"]
        # two copies of one dataset: two solves that read the same, and two lines
        copies = [tmp_path / name / "set1.csv" for name in ("a", "b")]
        for copy in copies:
            copy.parent.mkdir()
            copy.write_bytes(Path(dataset_files[0]).read_bytes())
        assert main(["experiment", "subsets", *map(str, copies), "--sizes", "1", "--reps", "2",
                     "--max-iter", "1", "-o", str(tmp_path / "copies.csv")]) == 0
        first, second = capsys.readouterr().err.splitlines()
        assert first == second and json.loads(first)["datasets"] == ["set1"]

    def test_full_size_is_single_deterministic_combination(self, dataset_files):
        datasets = [
            parse_expression_csv(Path(p).read_text(encoding="utf-8"), name=f"d{i}")
            for i, p in enumerate(dataset_files)
        ]
        few = run_subset_experiment(datasets, [3], reps=2, seed=1)
        many = run_subset_experiment(datasets, [3], reps=9, seed=99)
        assert few[0] == many[0]

    @pytest.mark.parametrize("sizes, reps, message", [
        ([1], 0, "reps must be at least 1"),
        ([0], 1, r"subset size 0 out of range 1\.\.3"),
        ([1, 4], 1, r"subset size 4 out of range 1\.\.3"),
    ])
    def test_sizes_and_reps_checked(self, dataset_files, sizes, reps, message):
        datasets = [parse_expression_csv(Path(p).read_text(encoding="utf-8")) for p in dataset_files]
        with pytest.raises(ValueError, match=message):
            run_subset_experiment(datasets, sizes, reps, seed=0)

    def test_seed_determinism_in_library(self, dataset_files):
        datasets = [
            parse_expression_csv(Path(p).read_text(encoding="utf-8"), name=f"d{i}")
            for i, p in enumerate(dataset_files)
        ]
        cfg = CorrelationConfig(min_pairs=4)
        em = EmConfig()
        a = run_subset_experiment(datasets, [1, 2], reps=2, seed=5, cfg=cfg, em=em)
        b = run_subset_experiment(datasets, [1, 2], reps=2, seed=5, cfg=cfg, em=em)
        assert a == b

    def test_unconverged_solve_warns_in_library(self, dataset_files):
        datasets = [parse_expression_csv(Path(p).read_text(encoding="utf-8"), name=f"d{i}")
                    for i, p in enumerate(dataset_files)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a converged run warns nothing
            converged = run_subset_experiment(datasets, [3], reps=1, seed=0)
        with pytest.warns(NotConverged) as records:
            (row,) = run_subset_experiment(datasets, [3], reps=1, seed=0, em=EmConfig(max_iter=1))
        (record,) = records
        assert record.filename == __file__
        agg = aggregate_network(build_correlation_network(datasets, CorrelationConfig()),
                                EmConfig(max_iter=1))
        assert not agg.converged and row.mean_theta == agg.theta != converged[0].mean_theta
        warning = record.message
        assert (warning.size, warning.datasets) == (3, ("d0", "d1", "d2"))
        assert (warning.iterations, warning.theta) == (agg.iterations, agg.theta)


    def test_subset_without_optimum_reads_inf_and_nan(self, expression_collection):
        # datasets 4, 5 and 7 hold total weight 0.58 P: no finite prior rate
        subset = [expression_collection[i] for i in (4, 5, 7)]
        with pytest.raises(BracketingFailure):
            aggregate_network(build_correlation_network(subset, CorrelationConfig()))
        (row,) = run_subset_experiment(subset, [3], reps=1, seed=0)
        assert row.size == 3 and math.isinf(row.mean_theta) and math.isnan(row.mean_r2)
        # one such subset makes its row inf and nan; the full collection has a rate
        single, full = run_subset_experiment(expression_collection, [1, 8], reps=3, seed=11)
        assert math.isinf(single.mean_theta) and math.isnan(single.mean_r2)
        net = build_correlation_network(expression_collection, CorrelationConfig())
        assert full.mean_theta == aggregate_network(net).theta

    def test_all_zero_subset_reads_inf_and_nan(self, tmp_path):
        # two genes exactly anti-correlated in every dataset: r = -1 clamps to
        # weight 0, so every subset has sum(S) = 0, a no-finite-rate case
        x = np.arange(8.0)
        paths = []
        for name, scale in (("a", 1.0), ("b", 3.0)):
            ds = ExpressionDataset(("g1", "g2"), tuple(f"c{i}" for i in range(8)),
                                   np.stack([scale * x, -x]), name)
            paths.append(tmp_path / f"{name}.csv")
            paths[-1].write_text(expression_csv(ds), encoding="utf-8")
        with pytest.raises(DegenerateAllZero):
            aggregate_network(build_correlation_network(
                [parse_expression_csv(p.read_text(encoding="utf-8")) for p in paths],
                CorrelationConfig()))
        out = tmp_path / "table.csv"
        argv = ["experiment", "subsets", *map(str, paths), "-o", str(out), "--sizes", "1,2",
                "--reps", "2"]
        assert main(argv) == 0
        assert out.read_text(encoding="utf-8") == "size,mean_theta,mean_r2\n1,inf,nan\n2,inf,nan\n"


class TestSynthCommands:
    def test_gen_then_score(self, tmp_path):
        net_path = tmp_path / "net.txt"
        truth_path = tmp_path / "truth.csv"
        assert main(
            [
                "synth",
                "gen",
                "--nodes",
                "30",
                "--layers",
                "12",
                "--seed",
                "13",
                "-o",
                str(net_path),
                "--truth",
                str(truth_path),
            ]
        ) == 0
        agg_path = tmp_path / "agg.csv"
        assert main(["aggregate", str(net_path), "-o", str(agg_path)]) == 0
        score_path = tmp_path / "score.json"
        assert main(
            [
                "synth",
                "score",
                "--est",
                str(agg_path),
                "--est-meta",
                str(tmp_path / "agg.json"),
                "--truth",
                str(truth_path),
                "--truth-meta",
                str(tmp_path / "truth.json"),
                "-o",
                str(score_path),
            ]
        ) == 0
        score = json.loads(score_path.read_text(encoding="utf-8"))
        assert score["pearson_lambda"] > 0.85
        assert score["theta_rel_err"] < 0.5

    def test_estimate_node_missing_from_truth(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "est.csv").write_text("node_u,node_v,lambda\na,b,1.0\na,z,3.0\n", encoding="utf-8")
        (tmp_path / "truth.csv").write_text("node_u,node_v,lambda_star\na,b,1.0\n", encoding="utf-8")
        (tmp_path / "est.json").write_text(json.dumps(MAP_META), encoding="utf-8")
        (tmp_path / "truth.json").write_text(json.dumps(TRUTH_META), encoding="utf-8")
        argv = ["synth", "score", "--est", "est.csv", "--est-meta", "est.json", "--truth",
                "truth.csv", "--truth-meta", "truth.json", "-o", "score.json"]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "UniverseMismatch", "message": "estimate node 'z' missing from truth"}
        assert not (tmp_path / "score.json").exists()

    def test_gen_with_a_tiny_theta_runs(self, tmp_path, capsys, monkeypatch):
        # rates of about 1e19, past the int64 range, are drawn and aggregated
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "gen", "--nodes", "4", "--layers", "2", "--theta", "1e-19",
                     "-o", "s.txt", "--truth", "s.csv"]) == 0
        assert main(["aggregate", "s.txt", "-o", "a.csv"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("theta", ["nan", "inf", "0", "-1"])
    def test_gen_takes_only_a_finite_positive_theta(self, tmp_path, capsys, monkeypatch, theta):
        monkeypatch.chdir(tmp_path)
        argv = ["synth", "gen", "--nodes", "5", "--layers", "2", "--theta", theta,
                "-o", "net.txt", "--truth", "truth.csv"]
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "theta_star must be positive and finite"}
        assert not any(tmp_path.iterdir())


class TestErrorHandling:
    def test_missing_file_machine_readable(self, capsys, tmp_path):
        code = main(["aggregate", str(tmp_path / "nope.txt"), "-o", str(tmp_path / "x.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "FileNotFoundError"

    def test_parse_error_machine_readable(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 u\n", encoding="utf-8")
        code = main(["aggregate", str(bad), "-o", str(tmp_path / "x.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParseError"

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_weight_is_parse_error(self, capsys, tmp_path, token):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"L1 a c 1\nL1 a b {token}\n", encoding="utf-8")
        code = main(["aggregate", str(bad), "-o", str(tmp_path / "x.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err["error"] == "ParseError"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("text, total", [("L1 a b 1\nL1 b c 2\n", "3.0"),
                                             ("L1 a b 1\nL1 b c 1\n", "2.0")])
    def test_no_finite_prior_rate_writes_nothing(self, capsys, tmp_path, text, total):
        # total weight equal to, then 1 below, the 3 pairs of a, b and c
        net = tmp_path / "net.txt"
        net.write_text(text, encoding="utf-8")
        code = main(["aggregate", str(net), "-o", str(tmp_path / "x.csv")])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "BracketingFailure", "message": "no finite prior rate: total "
                       f"observed weight {total} does not exceed the pair count 3"}
        assert not (tmp_path / "x.csv").exists()
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize("command, text, message", [
        (["aggregate"], "L1 a b 1e308\nL1 b c 1e308\n",
         "total observed weight overflows the float range"),
        (["aggregate"], "L1 a b 1e308\nL1 b c 1\n", "the log-posterior overflows the float range"),
        (["aggregate"], "L1 a b 1.3e305\nL2 a b 1.3e305\n",
         "the log-posterior overflows the float range"),
        (["aggregate"], "L1 a b 1e308\nL2 a b 1e308\nL1 b c 1\n",
         "the weight sum of pair 'a' 'b' overflows the float range"),
        (["baseline", "ave"], "L1 a b 1e308\nL2 a b 1e308\nL1 b c 1\n",
         "the weight sum of pair 'a' 'b' overflows the float range"),
        (["metrics"], "node_u,node_v,weight\na,b,6e307\na,c,6e307\nb,c,6e307\n",
         "node strengths overflow the float range"),
        (["metrics"], "node_u,node_v,weight\na,b,1e308\na,c,1e308\nb,c,1e308\n",
         "node strengths overflow the float range"),
    ], ids=["aggregate total", "aggregate objective", "aggregate objective 1.3e305",
            "aggregate pair", "baseline ave",
            "metrics 6e307", "metrics 1e308"])
    def test_weights_past_the_float_range_are_one_domain_error(self, capsys, tmp_path, monkeypatch,
                                                               command, text, message):
        monkeypatch.chdir(tmp_path)
        Path("in.txt").write_text(text, encoding="utf-8")
        assert main([*command, "in.txt", "-o", "out.csv"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [json.loads(line) for line in err] == [{"error": "DomainError", "message": message}]
        assert [path.name for path in tmp_path.iterdir()] == ["in.txt"]

    def test_objective_just_inside_the_float_range_is_written(self, capsys, tmp_path):
        # S*log(S) of the pair's sum, 2.557e305, overflows; the objective, 1.79e308, does not
        net = tmp_path / "net.txt"
        net.write_text("L1 a b 1.2785e305\nL2 a b 1.2785e305\n", encoding="utf-8")
        assert main(["aggregate", str(net), "-o", str(tmp_path / "x.csv")]) == 0
        assert capsys.readouterr().err == ""
        meta = json.loads((tmp_path / "x.json").read_text(encoding="utf-8"))
        assert meta["final_objective"] == 1.793822798227432e308

    @pytest.mark.parametrize("text, message", [
        ("gene,c1,c2\ng1,1,2\ng1,3,4\n", "duplicate gene label 'g1'"),
        ("gene,c1,c1\ng1,1,x\n", "duplicate condition label in header"),
    ])
    def test_repeated_expression_label_is_one_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "e.csv"
        path.write_text(text, encoding="utf-8")
        assert main(["build-layers", str(path), "-o", str(tmp_path / "layers.txt")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "DuplicateLabel", "message": message}
        assert not (tmp_path / "layers.txt").exists()

    def test_infinite_tolerance_is_rejected(self, multiplex_file, capsys, tmp_path):
        code = main(["aggregate", multiplex_file, "-o", str(tmp_path / "x.csv"), "--tol", "inf"])
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "tol must be positive and finite"}
        assert not (tmp_path / "x.csv").exists()

    def test_layer_name_read_as_a_comment_is_rejected(self, dataset_files, tmp_path, capsys):
        # build-layers names layers by file stem; a '#A' layer would be read back as a comment
        hashed = tmp_path / "#A.csv"
        Path(dataset_files[0]).rename(hashed)
        out = tmp_path / "layers.txt"
        assert main(["build-layers", str(hashed), dataset_files[1], "-o", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError",
                       "message": "layer name '#A' is empty or starts with '#'"}
        assert not out.exists()

    def test_synth_gen_with_an_empty_layer_writes_nothing(self, tmp_path, capsys):
        # at coverage 0.2, layer3 of the six pairs of four nodes observes none
        argv = ["synth", "gen", "--nodes", "4", "--layers", "4", "--coverage", "0.2", "--seed", "1",
                "-o", str(tmp_path / "net.txt"), "--truth", str(tmp_path / "truth.csv")]
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ValueError", "message": "layer 'layer3' has no pair; "
                                    "an edge list cannot hold an empty layer"}
        assert list(tmp_path.iterdir()) == []

    def test_build_layers_with_an_empty_layer_writes_nothing(self, tmp_path, capsys):
        # three conditions are fewer than --min-pairs 5, so no pair of 'short' is measured
        rng = np.random.default_rng(9)
        genes = [f"g{i}" for i in range(6)]
        for name, conditions in (("long", 10), ("short", 3)):
            ds = make_expression_dataset(rng, genes, conditions, name)
            (tmp_path / f"{name}.csv").write_text(expression_csv(ds), encoding="utf-8")
        out = tmp_path / "layers.txt"
        assert main(["build-layers", str(tmp_path / "long.csv"), str(tmp_path / "short.csv"),
                     "-o", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ValueError", "message": "layer 'short' has no pair; "
                                    "an edge list cannot hold an empty layer"}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["long.csv", "short.csv"]

    def test_repeated_layer_name_is_rejected(self, dataset_files, tmp_path, capsys):
        # build-layers names layers by file stem; two x.csv files would merge into one layer
        paths = []
        for folder, source in zip("ab", dataset_files):
            (tmp_path / folder).mkdir()
            paths.append(str(Path(source).rename(tmp_path / folder / "x.csv")))
        out = tmp_path / "layers.txt"
        assert main(["build-layers", *paths, "-o", str(out)]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ValueError", "message": "layer name 'x' is repeated"}
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("metrics", 'node_u,node_v,weight\n"' + "x" * 200_000 + '",b,1\n'),
        ("build-layers", "gene,c1,c2\n" + "g" * 200_000 + ",1,2\n"),
    ], ids=["metrics", "build_layers"])
    def test_field_over_the_csv_limit(self, tmp_path, capsys, command, text):
        path = tmp_path / "in.csv"
        path.write_text(text, encoding="utf-8")
        assert main([command, str(path), "-o", str(tmp_path / "out")]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "ParseError",
                                    "message": "field larger than field limit (131072) (line 2)"}

    def test_writer_error_leaves_the_output_untouched(self, tmp_path, capsys):
        # the writer raises before it opens the file: gene 'g 1' would be read back as two fields
        rng = np.random.default_rng(5)
        genes = ["g 1", *(f"g{i}" for i in range(2, 9))]
        paths = []
        for name in ("one", "two"):
            paths.append(tmp_path / f"{name}.csv")
            paths[-1].write_text(expression_csv(make_expression_dataset(rng, genes, 10, name)),
                                 encoding="utf-8")
        out = tmp_path / "layers.txt"
        out.write_bytes(b"earlier bytes\n")
        assert main(["build-layers", *map(str, paths), "-o", str(out)]) == 1
        err = json.loads(capsys.readouterr().err.strip())
        assert err == {"error": "ValueError", "message": "node labels must not contain whitespace"}
        assert out.read_bytes() == b"earlier bytes\n"

    def test_module_entry_point(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "mapnet", "metrics", str(tmp_path / "nope.csv"), "-o", "x"],
            capture_output=True,
            text=True,
            env=_child_env(),
        )
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert json.loads(line)["error"] == "FileNotFoundError"
        assert proc.stdout == ""


def _child_env() -> dict:
    """The environment of a child that imports the same mapnet as this process."""
    src = str(Path(mapnet.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


class TestProcessEntry:
    """``run`` is the one process entry: ``main``, then the heap frozen for exit."""

    def test_main_in_process_freezes_nothing(self, multiplex_file, tmp_path):
        assert main(["aggregate", multiplex_file, "-o", str(tmp_path / "agg.csv")]) == 0
        assert gc.get_freeze_count() == 0

    def test_run_freezes_the_heap(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(sys, "argv", ["mapnet", "metrics", str(tmp_path / "nope.csv"), "-o", "x"])
        try:
            assert mapnet.cli.run() == 1
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    def test_child_writes_what_main_writes(self, multiplex_file, tmp_path, capsys):
        argv = ["aggregate", multiplex_file, "--max-iter", "1", "-o"]
        assert main([*argv, str(tmp_path / "main.csv")]) == 0
        warning = capsys.readouterr().err
        proc = subprocess.run([sys.executable, "-m", "mapnet", *argv, str(tmp_path / "child.csv")],
                              capture_output=True, text=True, env=_child_env())
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", warning)
        assert json.loads(warning)["warning"] == "NotConverged"
        for suffix in (".csv", ".json"):
            main_bytes = (tmp_path / f"main{suffix}").read_bytes()
            assert (tmp_path / f"child{suffix}").read_bytes() == main_bytes

    def test_script_and_module_call_one_function(self):
        pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
        (name,) = re.findall(r'^mapnet = "mapnet\.cli:(\w+)"$', pyproject, re.MULTILINE)
        module = Path(mapnet.__file__).with_name("__main__.py").read_text(encoding="utf-8")
        assert f"from .cli import {name}\n" in module and f"sys.exit({name}())" in module
        assert name == "run"
        # no third entry: cli.py runs nothing when executed as a script
        assert "__main__" not in Path(mapnet.cli.__file__).read_text(encoding="utf-8")


_BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasThreads:
    """The CLI pins one BLAS thread unless its caller set a count, so the
    spectral metrics write the same bytes on a machine of any core count."""

    @pytest.mark.parametrize("seed", [2, 3])
    def test_metrics_bytes_do_not_depend_on_the_thread_count(self, tmp_path, seed):
        # the N=300 aggregates whose eigencentrality_mean differed in its last
        # digits between a multithreaded BLAS and one thread; synth, aggregate,
        # baseline ave and the expression CSVs use no BLAS, so they run in this process
        net, agg, ave = (str(tmp_path / name) for name in ("net.txt", "agg.csv", "ave.csv"))
        assert main(["synth", "gen", "--nodes", "300", "--layers", "11", "--coverage", "0.8",
                     "--seed", str(seed), "-o", net, "--truth", str(tmp_path / "truth.csv")]) == 0
        assert main(["aggregate", net, "-o", agg]) == 0
        assert main(["baseline", "ave", net, "-o", ave]) == 0  # stands in for --con, as in CI
        rng, genes = np.random.default_rng(seed), [f"g{i:03d}" for i in range(300)]
        datasets = [str(tmp_path / f"set{d}.csv") for d in range(3)]
        for d, path in enumerate(datasets):
            dataset = make_expression_dataset(rng, genes, 20, name=f"set{d}")
            Path(path).write_text(expression_csv(dataset), encoding="utf-8")
        self.check(tmp_path, [["metrics", agg, "-o", "{out}/report.json"],
                              ["compare", "--map-csv", agg, "--map-meta", str(tmp_path / "agg.json"),
                               "--con", ave, "--ave", ave, "--out-dir", "{out}"],
                              ["build-layers", *datasets, "--quantize", "0", "-o", "{out}/layers.txt"]])

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize("nodes", [100, pytest.param(600, marks=pytest.mark.slow)])
    def test_metrics_of_synthetic_aggregates(self, tmp_path, nodes, seed):
        net, agg = str(tmp_path / "net.txt"), str(tmp_path / "agg.csv")
        assert main(["synth", "gen", "--nodes", str(nodes), "--layers", "11", "--coverage", "0.8",
                     "--seed", str(seed), "-o", net, "--truth", str(tmp_path / "truth.csv")]) == 0
        assert main(["aggregate", net, "-o", agg]) == 0
        self.check(tmp_path, [["metrics", agg, "-o", "{out}/report.json", "--cdf", "{out}/cdf.csv"]])

    @staticmethod
    def check(tmp_path, commands):
        """Each command, in a child, writes the same files with the BLAS variables unset and with
        OPENBLAS_NUM_THREADS=1."""
        # importing mapnet.cli here set the variables in this process's environment
        unset = {k: v for k, v in _child_env().items() if k not in _BLAS_VARIABLES}
        outputs = []
        for name, env in (("unset", unset), ("one", {**unset, "OPENBLAS_NUM_THREADS": "1"})):
            out = tmp_path / name
            out.mkdir()
            for argv in commands:
                subprocess.run([sys.executable, "-m", "mapnet", *(a.format(out=out) for a in argv)],
                               env=env, check=True)
            outputs.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
        assert outputs[0] == outputs[1]

    def test_a_count_the_caller_set_is_kept(self):
        code = "import os, mapnet.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**_child_env(), "OPENBLAS_NUM_THREADS": "2"}, check=True)
        assert proc.stdout == "2\n"


class TestEdgeListFiles:
    """aggregate and baseline ave read the edge list file in chunks."""

    COMMANDS = (["aggregate"], ["baseline", "ave"])

    def run_both(self, net, tmp_path, name):
        outputs = []
        for command in self.COMMANDS:
            out = tmp_path / f"{name}_{command[0]}.csv"
            assert main([*command, str(net), "-o", str(out)]) == 0
            outputs.append(out.read_bytes())
        return outputs

    def test_crlf_lines_read_as_lf(self, multiplex_file, tmp_path):
        crlf = tmp_path / "crlf.txt"
        crlf.write_bytes(Path(multiplex_file).read_bytes().replace(b"\n", b"\r\n"))
        lf = self.run_both(multiplex_file, tmp_path, "lf")
        assert self.run_both(crlf, tmp_path, "crlf") == lf

    def test_non_utf8_file_fails_as_reading_its_text(self, multiplex_file, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(Path(multiplex_file).read_bytes() + b"L1 a \xff 1\n")
        with pytest.raises(UnicodeDecodeError) as err:
            bad.read_text(encoding="utf-8")
        for command in self.COMMANDS:
            assert main([*command, str(bad), "-o", str(tmp_path / "x.csv")]) == 1
            line = json.loads(capsys.readouterr().err)
            assert line == {"error": "UnicodeDecodeError", "message": str(err.value)}
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
    def test_piped_stdin(self, multiplex_file, tmp_path):
        expected = self.run_both(multiplex_file, tmp_path, "file")
        for command, output in zip(self.COMMANDS, expected):
            out = tmp_path / "piped.csv"
            subprocess.run([sys.executable, "-m", "mapnet", *command, "/dev/stdin", "-o", str(out)],
                           input=Path(multiplex_file).read_bytes(), env=_child_env(), check=True)
            assert out.read_bytes() == output


NO_MASKED_ARRAYS = """
import sys
import numpy
loaded = "numpy.ma" in sys.modules
from mapnet.cli import main

datasets, out = sys.argv[1:-1], sys.argv[-1]
def o(name):
    return f"{out}/{name}"
commands = [
    ["build-layers", *datasets, "-o", o("layers.txt")],
    ["aggregate", o("layers.txt"), "-o", o("agg.csv")],
    ["baseline", "con", *datasets, "-o", o("con.csv")],
    ["baseline", "ave", o("layers.txt"), "-o", o("ave.csv")],
    ["metrics", o("agg.csv"), "-o", o("metrics.json"), "--cdf", o("cdf.csv")],
    ["compare", "--map-csv", o("agg.csv"), "--map-meta", o("agg.json"), "--con", o("con.csv"),
     "--ave", o("ave.csv"), "--out-dir", o("compare")],
    ["experiment", "subsets", *datasets, "-o", o("experiment.csv"), "--sizes", "1,2",
     "--reps", "2"],
    ["synth", "gen", "--nodes", "20", "--layers", "3", "-o", o("net.txt"),
     "--truth", o("truth.csv")],
    ["aggregate", o("net.txt"), "-o", o("est.csv")],
    ["synth", "score", "--est", o("est.csv"), "--est-meta", o("est.json"),
     "--truth", o("truth.csv"), "--truth-meta", o("truth.json"), "-o", o("score.json")],
]
for command in commands:
    assert main(command) == 0, command
print(loaded, "numpy.ma" in sys.modules)
"""


def test_pipeline_does_not_import_masked_arrays(dataset_files, tmp_path):
    """numpy.ma costs each command 10-15 ms and 0.7 MB to import; np.union1d and
    np.unique without flags import it under numpy >= 2.3.  numpy 1.x imports
    it with numpy itself, so only an import by the pipeline counts."""
    proc = subprocess.run([sys.executable, "-c", NO_MASKED_ARRAYS, *dataset_files, str(tmp_path)],
                          capture_output=True, text=True, env=_child_env(), check=True)
    loaded, after = proc.stdout.split()
    assert after == loaded


MAP_META = {"theta": 0.5, "iterations": 3, "converged": True}
TRUTH_META = {"theta_star": 1.0, "seed": 0, "coverage": 1.0}
SIDECAR_FAULTS = [
    ("theta", None, "sidecar has no field 'theta'"),
    ("theta", "abc", "sidecar field 'theta' is not a number: 'abc'"),
    ("theta", [0.5], "sidecar field 'theta' is not a number: [0.5]"),
    ("theta", float("nan"), "sidecar field 'theta' is not finite: nan"),
    ("theta", float("inf"), "sidecar field 'theta' is not finite: inf"),
    ("theta", 10**400, f"sidecar field 'theta' is not finite: {10**400}"),
    ("theta", True, "sidecar field 'theta' is not a number: True"),
    ("theta", "0.5", "sidecar field 'theta' is not a number: '0.5'"),
    ("theta", 0, "sidecar field 'theta' is not positive: 0.0"),
    ("theta", -2.0, "sidecar field 'theta' is not positive: -2.0"),
    ("iterations", "x", "sidecar field 'iterations' is not an integer: 'x'"),
    ("iterations", float("inf"), "sidecar field 'iterations' is not an integer: inf"),
    ("iterations", 3.9, "sidecar field 'iterations' is not an integer: 3.9"),
    ("iterations", False, "sidecar field 'iterations' is not an integer: False"),
    ("iterations", -3, "sidecar field 'iterations' is not positive: -3"),
    ("iterations", 0, "sidecar field 'iterations' is not positive: 0"),
    ("converged", None, "sidecar has no field 'converged'"),
    ("converged", "false", "sidecar field 'converged' is not a boolean: 'false'"),
    ("converged", 1, "sidecar field 'converged' is not a boolean: 1"),
]


class TestSidecarErrors:
    """A broken sidecar gives one ParseError line naming the field, not a traceback."""

    @pytest.fixture()
    def files(self, tmp_path):
        layer = "node_u,node_v,weight\na,b,1.0\na,c,3.0\nb,c,2.0\n"
        for name in ("map.csv", "con.csv", "ave.csv", "truth.csv"):
            (tmp_path / name).write_text(layer, encoding="utf-8")
        (tmp_path / "out").mkdir()
        return tmp_path

    def run(self, files, command, map_meta, truth_meta=TRUTH_META, bom=()):
        (files / "map.json").write_text(json.dumps(map_meta), encoding="utf-8")
        (files / "truth.json").write_text(json.dumps(truth_meta), encoding="utf-8")
        for name in bom:
            (files / name).write_bytes(b"\xef\xbb\xbf" + (files / name).read_bytes())
        if command == "compare":
            argv = ["compare", "--map-csv", files / "map.csv", "--map-meta", files / "map.json",
                    "--con", files / "con.csv", "--ave", files / "ave.csv",
                    "--out-dir", files / "out"]
        elif command == "metrics":
            argv = ["metrics", files / "map.csv", "-o", files / "out" / "report.json",
                    "--cdf", files / "out" / "cdf.csv"]
        else:
            argv = ["synth", "score", "--est", files / "map.csv", "--est-meta", files / "map.json",
                    "--truth", files / "truth.csv", "--truth-meta", files / "truth.json",
                    "-o", files / "out" / "score.json"]
        return main([str(arg) for arg in argv])

    @pytest.mark.parametrize("command, bom", [
        ("compare", ["map.json"]),
        ("synth score", ["map.json"]),
        ("synth score", ["truth.json"]),
        ("synth score", ["map.json", "truth.json"]),
        ("metrics", ["map.csv"]),
        ("compare", ["map.csv", "con.csv", "ave.csv"]),
        ("synth score", ["map.csv", "truth.csv"]),
    ], ids=["compare-map", "score-map", "score-truth", "score-both", "metrics-csv",
            "compare-csvs", "score-csvs"])
    def test_byte_order_mark_is_skipped(self, files, capsys, monkeypatch, command, bom):
        """A byte order mark before a sidecar or a layer CSV is skipped, and the
        CSV after one takes the chunk reader, as the plain file does."""
        def per_line(lines):
            raise AssertionError("a regular layer CSV left to the per-line reader")

        def outputs():
            return {path.name: path.read_bytes() for path in sorted((files / "out").iterdir())}

        monkeypatch.setattr("mapnet.ingest._layer_csv_rows", per_line)
        assert self.run(files, command, MAP_META) == 0
        plain = outputs()
        assert self.run(files, command, MAP_META, bom=bom) == 0
        assert outputs() == plain
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["compare", "synth score"])
    @pytest.mark.parametrize("field, value, message", SIDECAR_FAULTS)
    def test_estimate_sidecar_field(self, files, capsys, command, field, value, message):
        meta = {key: v for key, v in MAP_META.items() if key != field}
        if value is not None:
            meta[field] = value
        assert self.run(files, command, meta) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ParseError", "message": message}

    @pytest.mark.parametrize("command", ["compare", "synth score"])
    def test_sidecar_that_is_not_an_object(self, files, capsys, command):
        assert self.run(files, command, [0.5, 3, True]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParseError", "message": "sidecar must be a JSON object, found list"}

    @pytest.mark.parametrize("meta, message", [
        ({"seed": 0, "coverage": 1.0}, "sidecar has no field 'theta_star'"),
        ({**TRUTH_META, "theta_star": float("nan")}, "sidecar field 'theta_star' is not finite: nan"),
        ({**TRUTH_META, "theta_star": "one"}, "sidecar field 'theta_star' is not a number: 'one'"),
        ({**TRUTH_META, "seed": None}, "sidecar field 'seed' is not an integer: None"),
        ({**TRUTH_META, "seed": 1.5}, "sidecar field 'seed' is not an integer: 1.5"),
        ({**TRUTH_META, "seed": True}, "sidecar field 'seed' is not an integer: True"),
        ({**TRUTH_META, "coverage": False}, "sidecar field 'coverage' is not a number: False"),
        ({"theta_star": 1.0}, "sidecar has no field 'coverage'"),
        ({**TRUTH_META, "theta_star": 0}, "sidecar field 'theta_star' is not positive: 0.0"),
        ({**TRUTH_META, "theta_star": -1}, "sidecar field 'theta_star' is not positive: -1.0"),
        ({**TRUTH_META, "coverage": 7}, "sidecar field 'coverage' is not in (0, 1]: 7.0"),
        ({**TRUTH_META, "coverage": 0.0}, "sidecar field 'coverage' is not in (0, 1]: 0.0"),
        ({**TRUTH_META, "coverage": -0.5}, "sidecar field 'coverage' is not in (0, 1]: -0.5"),
        ("theta_star", "sidecar must be a JSON object, found str"),
    ])
    def test_truth_sidecar(self, files, capsys, meta, message):
        assert self.run(files, "synth score", MAP_META, meta) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ParseError", "message": message}


@pytest.mark.parametrize("command", ["build-layers", "metrics"])
def test_byte_order_mark_alone_on_the_first_line(dataset_files, multiplex_file, tmp_path, command):
    """A byte order mark on an otherwise blank first line goes with that line, so
    the header below it is read as the header."""
    inputs = dataset_files
    if command == "metrics":
        inputs = [str(tmp_path / "agg.csv")]
        assert main(["aggregate", multiplex_file, "-o", inputs[0]]) == 0
    (tmp_path / "bom").mkdir()
    marked = [str(tmp_path / "bom" / Path(path).name) for path in inputs]
    for path, copy in zip(inputs, marked):
        Path(copy).write_bytes(b"\xef\xbb\xbf\n" + Path(path).read_bytes())
    outputs = []
    for paths in (inputs, marked):
        assert main([command, *paths, "-o", str(tmp_path / "out")]) == 0
        outputs.append((tmp_path / "out").read_bytes())
    assert outputs[0] == outputs[1]


SCORE = ["synth", "score", "--est", "layer.csv", "--est-meta", "layer.json",
         "--truth", "truth.csv", "--truth-meta", "truth.json"]


class TestOutputPaths:
    """Two outputs of one command that name one file, or an output that names
    one of its inputs, are rejected before any file is opened: exit 1, one
    JSON error line, and no file created or changed."""

    @pytest.fixture()
    def work(self, tmp_path, monkeypatch, multiplex_file):
        monkeypatch.chdir(tmp_path)
        Path("agg.csv").write_text("earlier\n", encoding="utf-8")
        assert main(["aggregate", multiplex_file, "-o", "layer.csv"]) == 0
        return tmp_path

    def check(self, work, capsys, argv, outputs, message="two output paths name one file: "):
        capsys.readouterr()
        before = {path: path.read_bytes() for path in work.iterdir()}
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "MapnetError", "message": message + outputs}
        assert {path: path.read_bytes() for path in work.iterdir()} == before

    @pytest.mark.parametrize("flags, outputs", [
        (["-o", "est.json"], "est.json, est.json"),
        (["-o", "agg.csv", "--sidecar", "agg.csv"], "agg.csv, agg.csv"),
        (["-o", "agg.csv", "--sidecar", "sub/../agg.csv"], "agg.csv, sub/../agg.csv"),
    ], ids=["default_sidecar", "same_sidecar", "dotted_sidecar"])
    def test_aggregate(self, work, capsys, multiplex_file, flags, outputs):
        self.check(work, capsys, ["aggregate", multiplex_file, *flags], outputs)

    @pytest.mark.parametrize("flags, outputs", [
        (["-o", "t.csv", "--truth", "t.csv"], "t.csv, t.csv, t.json"),
        (["-o", "n.txt", "--truth", "t.csv", "--truth-meta", "./t.csv"], "n.txt, t.csv, ./t.csv"),
        (["-o", "t.json", "--truth", "t.csv"], "t.json, t.csv, t.json"),
        (["-o", "agg.csv", "--truth", "t.csv", "--truth-meta", "{work}/agg.csv"],
         "agg.csv, t.csv, {work}/agg.csv"),
    ], ids=["output_is_truth", "relative_truth_meta", "output_is_default_meta", "absolute_meta"])
    def test_synth_gen(self, work, capsys, flags, outputs):
        flags = [flag.format(work=work) for flag in flags]
        self.check(work, capsys, ["synth", "gen", "--nodes", "5", "--layers", "2", *flags],
                   outputs.format(work=work))

    def test_metrics(self, work, capsys):
        self.check(work, capsys, ["metrics", "layer.csv", "-o", "agg.csv", "--cdf", "agg.csv"],
                   "agg.csv, agg.csv")

    @pytest.mark.parametrize("argv, output", [
        (["build-layers", "set1.csv", "set2.csv", "-o", "set2.csv"], "set2.csv"),
        (["experiment", "subsets", "set1.csv", "set2.csv", "--sizes", "1", "-o", "./set1.csv"],
         "./set1.csv"),
        (["aggregate", "net.txt", "-o", "net.txt"], "net.txt"),
        (["aggregate", "net.txt", "-o", "x.csv", "--sidecar", "net.txt"], "net.txt"),
        (["aggregate", "truth.json", "-o", "truth.csv"], "truth.json"),
        (["baseline", "ave", "net.txt", "-o", "net.txt"], "net.txt"),
        (["baseline", "con", "set1.csv", "set2.csv", "-o", "{work}/set2.csv"], "{work}/set2.csv"),
        (["metrics", "layer.csv", "-o", "layer.csv"], "layer.csv"),
        (["metrics", "layer.csv", "-o", "m.json", "--cdf", "sub/../layer.csv"], "sub/../layer.csv"),
        *((SCORE + ["-o", name], name) for name in ("layer.csv", "layer.json", "truth.csv",
                                                   "truth.json")),
    ], ids=["build_layers", "experiment", "aggregate", "aggregate_sidecar",
            "aggregate_default_sidecar", "baseline_ave", "baseline_con", "metrics", "metrics_cdf",
            "score_est", "score_est_meta", "score_truth", "score_truth_meta"])
    def test_output_names_an_input(self, work, dataset_files, capsys, argv, output):
        argv = [arg.format(work=work) for arg in argv]
        self.check(work, capsys, argv, output.format(work=work),
                   "an output path names an input file: ")

    @pytest.mark.parametrize("flag, name", [("--ave", "strength_cdf_ave.csv"),
                                            ("--con", "scatter_map_vs_con.csv"),
                                            ("--map-meta", "reports.json")])
    def test_compare_output_names_an_input(self, work, capsys, flag, name):
        """compare writes fixed names under --out-dir, and one of them may name an input."""
        inputs = {"--map-csv": "layer.csv", "--map-meta": "layer.json", "--con": "layer.csv",
                  "--ave": "layer.csv"}
        before = Path(inputs[flag]).read_bytes()
        Path("cmp").mkdir()
        Path("cmp", name).write_bytes(before)
        inputs[flag] = f"cmp/{name}"
        capsys.readouterr()
        assert main(["compare", *(arg for pair in inputs.items() for arg in pair),
                     "--out-dir", "cmp"]) == 1
        (line,) = capsys.readouterr().err.splitlines()
        assert json.loads(line) == {"error": "MapnetError",
                                    "message": f"an output path names an input file: cmp/{name}"}
        assert os.listdir("cmp") == [name] and Path("cmp", name).read_bytes() == before

    @pytest.mark.parametrize("argv", [["metrics", "loop", "-o", "m.json"],
                                      ["metrics", "layer.csv", "-o", "loop"]], ids=["input", "output"])
    def test_symlink_loop_is_one_error_line(self, work, capsys, argv):
        os.symlink("loop", "loop")
        capsys.readouterr()
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        loop = OSError(errno.ELOOP, os.strerror(errno.ELOOP), "loop")
        assert json.loads(line) == {"error": "OSError", "message": str(loop)}

    @pytest.mark.parametrize("argv, missing", [
        (["aggregate", "net.txt", "-o", "agg.csv", "--sidecar", "nodir/agg.json"], "nodir/agg.json"),
        (["synth", "gen", "--nodes", "5", "--layers", "2", "-o", "g.txt", "--truth", "agg.csv",
          "--truth-meta", "nodir/t.json"], "nodir/t.json"),
        (["metrics", "layer.csv", "-o", "m.json", "--cdf", "nodir/cdf.csv"], "nodir/cdf.csv"),
        (["compare", "--map-csv", "layer.csv", "--map-meta", "layer.json", "--con", "layer.csv",
          "--ave", "layer.csv", "--out-dir", "cmp"], "cmp/reports.json"),
    ], ids=["aggregate", "synth_gen", "metrics_cdf", "compare"])
    def test_failed_last_output_changes_no_output(self, work, capsys, argv, missing):
        """When the last output's directory is missing, the command exits 1 and every output
        path is as it was, absent or with its bytes, with no temporary file left."""
        Path("cmp").mkdir()
        Path("cmp", "strength_cdf_map.csv").write_text("earlier\n", encoding="utf-8")
        os.symlink("nodir/reports.json", "cmp/reports.json")  # compare writes this one last

        def tree():
            return {str(p.relative_to(work)): os.readlink(p) if p.is_symlink() else p.read_bytes()
                    for p in work.rglob("*") if p.is_symlink() or p.is_file()}

        before = tree()
        capsys.readouterr()
        assert main(argv) == 1
        (line,) = capsys.readouterr().err.splitlines()
        lost = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), missing)
        assert json.loads(line) == {"error": "FileNotFoundError", "message": str(lost)}
        assert tree() == before

    def test_outputs_land_where_open_puts_them(self, work, multiplex_file):
        """An output that is a symlink is written through to its target, a new output gets the
        mode open gives it, and a device is written in place."""
        Path("real").mkdir()
        Path("real", "agg.csv").write_text("earlier\n", encoding="utf-8")
        os.symlink("real/agg.csv", "link.csv")
        assert main(["aggregate", multiplex_file, "-o", "link.csv", "--sidecar", "new.json"]) == 0
        assert os.readlink("link.csv") == "real/agg.csv"
        assert Path("real", "agg.csv").read_bytes() == Path("layer.csv").read_bytes()
        umask = os.umask(0o022)
        os.umask(umask)
        assert os.stat("new.json").st_mode & 0o777 == 0o666 & ~umask
        assert main(["metrics", "layer.csv", "-o", os.devnull]) == 0
        assert sorted(os.listdir("real")) == ["agg.csv"]

    def test_distinct_outputs_still_run(self, work, multiplex_file):
        assert main(["aggregate", multiplex_file, "-o", "est.csv", "--sidecar", "est.csv.json"]) == 0
        assert main(["metrics", "layer.csv", "-o", "m.json", "--cdf", "m.csv"]) == 0
        assert main(["synth", "gen", "--nodes", "5", "--layers", "2", "-o", "t.json",
                     "--truth", "t.csv", "--truth-meta", "t.meta.json"]) == 0


class TestConstantEstimate:
    """A constant estimate has no Pearson correlation with the truth: NaN, and no warning."""

    @pytest.fixture()
    def files(self, tmp_path):
        (tmp_path / "est.csv").write_text("node_u,node_v,lambda\na,b,2.0\na,c,2.0\nb,c,2.0\n",
                                          encoding="utf-8")
        (tmp_path / "est.json").write_text(json.dumps(MAP_META), encoding="utf-8")
        (tmp_path / "truth.csv").write_text("node_u,node_v,lambda_star\na,b,1.0\na,c,3.0\n"
                                            "b,c,2.0\n", encoding="utf-8")
        (tmp_path / "truth.json").write_text(json.dumps(TRUTH_META), encoding="utf-8")
        return tmp_path

    def test_in_process(self, files):
        # the suite turns RuntimeWarning into an error
        est = parse_aggregated_csv((files / "est.csv").read_text(encoding="utf-8"), MAP_META)
        truth = truth_from_csv((files / "truth.csv").read_text(encoding="utf-8"), TRUTH_META)
        assert math.isnan(recovery_metrics(est, truth).pearson_lambda)
        varied = replace(est, values=np.array([1.0, 2.0, 4.0]))
        flat = replace(truth, values=np.ones(3))
        assert math.isnan(recovery_metrics(varied, flat).pearson_lambda)
        assert recovery_metrics(varied, truth).pearson_lambda == pytest.approx(3 / math.sqrt(84))

    def test_cli_stderr_is_empty(self, files):
        argv = ["synth", "score", "--est", "est.csv", "--est-meta", "est.json", "--truth",
                "truth.csv", "--truth-meta", "truth.json", "-o", "score.json"]
        proc = subprocess.run([sys.executable, "-m", "mapnet", *argv], cwd=files,
                              capture_output=True, text=True, env=_child_env())
        assert (proc.returncode, proc.stderr) == (0, "")
        score = json.loads((files / "score.json").read_text(encoding="utf-8"))
        assert math.isnan(score["pearson_lambda"]) and score["mean_abs_err"] == 2 / 3


def test_every_warning_is_one_json_line(monkeypatch, capsys, tmp_path):
    def warn(args, staged):
        warnings.warn("from a dependency", RuntimeWarning)

    monkeypatch.setattr(mapnet.cli, "_cmd_metrics", warn)
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["metrics", "x.csv", "-o", str(tmp_path / "m.json")]) == 0
    (line,) = capsys.readouterr().err.splitlines()
    assert json.loads(line) == {"warning": "RuntimeWarning", "message": "from a dependency"}

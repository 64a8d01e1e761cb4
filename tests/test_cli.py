import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mapnet
from mapnet import (
    AggregatedNetwork,
    CorrelationConfig,
    EmConfig,
    LayerGraph,
    NodeUniverse,
    aggregate_network,
    build_correlation_network,
    compare_networks,
    parse_aggregated_csv,
    parse_expression_csv,
    parse_layer_csv,
    parse_multiplex_edgelist,
    run_subset_experiment,
    weight_cdf,
)
from mapnet.cli import main
from mapnet.errors import BracketingFailure, UniverseMismatch
from conftest import coded, expression_csv, make_expression_dataset, pair_dict


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


class TestExperimentCommand:
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

    def test_full_size_is_single_deterministic_combination(self, dataset_files):
        datasets = [
            parse_expression_csv(Path(p).read_text(encoding="utf-8"), name=f"d{i}")
            for i, p in enumerate(dataset_files)
        ]
        few = run_subset_experiment(datasets, [3], reps=2, seed=1)
        many = run_subset_experiment(datasets, [3], reps=9, seed=99)
        assert few[0] == many[0]

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
        # the child imports the same mapnet as this process
        src = str(Path(mapnet.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "mapnet", "metrics", str(tmp_path / "nope.csv"), "-o", "x"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 1
        assert json.loads(proc.stderr.strip())["error"] == "FileNotFoundError"


MAP_META = {"theta": 0.5, "iterations": 3, "converged": True}
TRUTH_META = {"theta_star": 1.0, "seed": 0, "coverage": 1.0}
SIDECAR_FAULTS = [
    ("theta", None, "sidecar has no field 'theta'"),
    ("theta", "abc", "sidecar field 'theta' is not a number: 'abc'"),
    ("theta", [0.5], "sidecar field 'theta' is not a number: [0.5]"),
    ("theta", float("nan"), "sidecar field 'theta' is not finite: nan"),
    ("theta", float("inf"), "sidecar field 'theta' is not finite: inf"),
    ("iterations", "x", "sidecar field 'iterations' is not a number: 'x'"),
    ("iterations", float("inf"), "sidecar field 'iterations' is not a number: inf"),
    ("converged", None, "sidecar has no field 'converged'"),
]


class TestSidecarErrors:
    """A broken sidecar gives one ParseError line naming the field, not a traceback."""

    @pytest.fixture()
    def files(self, tmp_path):
        layer = "node_u,node_v,weight\na,b,1.0\na,c,3.0\nb,c,2.0\n"
        for name in ("map.csv", "con.csv", "ave.csv", "truth.csv"):
            (tmp_path / name).write_text(layer, encoding="utf-8")
        return tmp_path

    def run(self, files, command, map_meta, truth_meta=TRUTH_META):
        (files / "map.json").write_text(json.dumps(map_meta), encoding="utf-8")
        (files / "truth.json").write_text(json.dumps(truth_meta), encoding="utf-8")
        if command == "compare":
            argv = ["compare", "--map-csv", files / "map.csv", "--map-meta", files / "map.json",
                    "--con", files / "con.csv", "--ave", files / "ave.csv",
                    "--out-dir", files / "cmp"]
        else:
            argv = ["synth", "score", "--est", files / "map.csv", "--est-meta", files / "map.json",
                    "--truth", files / "truth.csv", "--truth-meta", files / "truth.json",
                    "-o", files / "score.json"]
        return main([str(arg) for arg in argv])

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
        ({**TRUTH_META, "seed": None}, "sidecar field 'seed' is not a number: None"),
        ({"theta_star": 1.0}, "sidecar has no field 'coverage'"),
        ("theta_star", "sidecar must be a JSON object, found str"),
    ])
    def test_truth_sidecar(self, files, capsys, meta, message):
        assert self.run(files, "synth score", MAP_META, meta) == 1
        assert json.loads(capsys.readouterr().err) == {"error": "ParseError", "message": message}

"""Acceptance suite: one test per exit criterion.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or in the
captured output of a failing run) and pins the stated tolerance.  Run with

    pytest tests/test_acceptance.py -v -s
"""

import functools
import math
import time

import numpy as np

from mapnet import (
    AggregationInput,
    CorrelationConfig,
    EmConfig,
    LayerGraph,
    NodeUniverse,
    build_avenet,
    build_connet,
    build_correlation_network,
    em_aggregate,
    exponential_fit_r2,
    generate_synthetic,
    network_report,
    observation_summaries,
    parse_multiplex_edgelist,
    presence_summaries,
    recovery_metrics,
    von_neumann_entropy,
    weight_cdf,
)
from mapnet.cli import main
from conftest import coded, expression_csv, pair_dict, theta_fixed_point_oracle


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL: {description}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS: {description}")
            return result

        return wrapper

    return decorate


def identity_residuals(inp, agg):
    assert agg.codes.tolist() == inp.codes.tolist()
    k, s, lam = inp.counts, inp.sums, agg.values
    lam_residual = np.max(np.abs(lam * (k + agg.theta) - s) / np.maximum(s, 1.0))
    theta_residual = abs(agg.theta * lam.sum() - inp.pair_count) / inp.pair_count
    return lam_residual, theta_residual


@criterion(1, "fixed-point exactness and < 1 s runtime at N=300, D=11 dense")
def test_c01_fixed_point_exactness():
    net, _ = generate_synthetic(n=300, d=11, theta_star=1.0, coverage=1.0, seed=17)
    start = time.perf_counter()
    inp = observation_summaries(net)
    agg = em_aggregate(inp)
    elapsed = time.perf_counter() - start
    assert agg.converged
    lam_residual, theta_residual = identity_residuals(inp, agg)
    assert lam_residual < 1e-8
    assert theta_residual < 1e-8
    assert elapsed < 1.0, f"aggregation took {elapsed:.3f}s"


@criterion(2, "EM and bisection agree on theta to 1e-8 on 20 synthetic instances")
def test_c02_oracle_equivalence():
    checked = 0
    for seed in range(5):
        for d in (3, 11):
            for coverage in (0.5, 1.0):
                net, _ = generate_synthetic(n=100, d=d, coverage=coverage, seed=seed)
                inp = observation_summaries(net)
                agg = em_aggregate(inp)
                assert abs(theta_fixed_point_oracle(inp) - agg.theta) < 1e-8
                checked += 1
    assert checked == 20


@criterion(3, "single-pair instance (k=2, S=8, P=1) gives lambda=3.5, theta=2/7 to 1e-10")
def test_c03_hand_solvable_instance():
    uni = NodeUniverse(("a", "b"))
    inp = AggregationInput(uni, [1], [2], [8.0], 1)
    agg = em_aggregate(inp)
    assert abs(pair_dict(agg)[(0, 1)] - 3.5) < 1e-10
    assert abs(agg.theta - 2.0 / 7.0) < 1e-10


@criterion(4, "log-posterior non-decreasing at every iteration (slack 16 ulps of the "
              "magnitude of its terms, sum(S) + sum(S |log lambda|) + P |log theta|)")
def test_c04_em_monotonicity(expression_collection, aarhus_style_text):
    inputs = []
    net = build_correlation_network(expression_collection, CorrelationConfig())
    inputs.append(observation_summaries(net))
    inputs.append(presence_summaries(parse_multiplex_edgelist(aarhus_style_text)))
    for seed in range(3):
        synth_net, _ = generate_synthetic(n=40, d=6, coverage=0.7, seed=seed)
        inputs.append(observation_summaries(synth_net))
    # N=300, k uniform on 1..11, S scaled to sum(S) = P + 100, three draws:
    # float S; S = U(0,1)·k; S exponential, drawn before k.  The objective
    # (about -3e4) sums terms of magnitude about 7.5e5, and the trace's last
    # steps dip by 8 to 32 ulps of the objective (up to 1.16e-10) under seeds
    # 1, 3, 5, 6, 7 and 9, which is at most 1 ulp of that magnitude
    universe = NodeUniverse(tuple(f"v{i:03d}" for i in range(300)))
    codes = np.flatnonzero(np.triu(np.ones((300, 300), dtype=bool), 1))
    for draw in ("float", "uniform", "exponential"):
        rng = np.random.default_rng(0)
        if draw == "exponential":
            sums = rng.exponential(1.0, codes.size)
            counts = rng.integers(1, 12, codes.size)
        else:
            counts, sums = rng.integers(1, 12, codes.size), rng.random(codes.size)
            if draw == "uniform":
                sums *= counts
        sums *= (codes.size + 100) / sums.sum()
        inputs.append(AggregationInput(universe, codes, counts, sums, codes.size))
    configs = [EmConfig(seed=seed) for seed in (None, 1, 2, 3, 5, 6, 7, 9)]
    for inp in inputs:
        for cfg in configs:
            agg = em_aggregate(inp, cfg)
            s, lam = inp.sums, agg.values
            log_terms = np.abs(s[s > 0] * np.log(lam[s > 0])).sum()
            magnitude = s.sum() + log_terms + inp.pair_count * abs(math.log(agg.theta))
            trace = np.array(agg.objective_trace)
            assert np.all(np.diff(trace) >= -16 * np.spacing(magnitude))


@criterion(5, "deterministic init and 3 random seeds agree on theta within 1e-6 relative")
def test_c05_init_independence(expression_collection):
    net = build_correlation_network(expression_collection, CorrelationConfig())
    instances = [observation_summaries(net)]
    synth_net, _ = generate_synthetic(n=60, d=8, coverage=0.8, seed=23)
    instances.append(observation_summaries(synth_net))
    for inp in instances:
        reference = em_aggregate(inp).theta
        for seed in (1, 2, 3):
            theta = em_aggregate(inp, EmConfig(seed=seed)).theta
            assert abs(theta - reference) / reference < 1e-6


@criterion(6, "unweighted 5-layer multiplex: weights step with presence counts (5 steps)")
def test_c06_rate_of_presence(aarhus_style_text):
    net = parse_multiplex_edgelist(aarhus_style_text)
    assert net.depth == 5
    inp = presence_summaries(net)
    agg = em_aggregate(inp)
    assert agg.converged

    weight_by_count = {}
    lam = pair_dict(agg)
    for pair, presence in pair_dict(inp, inp.sums).items():
        weight_by_count.setdefault(int(presence), set()).add(lam[pair])
    for values in weight_by_count.values():
        assert len(values) == 1
    counts = sorted(c for c in weight_by_count if c > 0)
    distinct_presence = len(counts)
    weights = [next(iter(weight_by_count[c])) for c in counts]
    assert np.all(np.diff(weights) > 0)
    nonzero = [v for v in lam.values() if v > 0]
    assert len({v for v in nonzero}) == distinct_presence
    assert len(weight_cdf(nonzero)) == distinct_presence == 5


@criterion(7, "synthetic recovery: Pearson > 0.95 at D=50; MAE non-increasing in D")
def test_c07_synthetic_recovery():
    net, truth = generate_synthetic(n=100, d=50, theta_star=1.0, coverage=1.0, seed=0)
    agg = em_aggregate(observation_summaries(net))
    assert recovery_metrics(agg, truth).pearson_lambda > 0.95

    depths = [2, 5, 10, 25, 50]
    mae = {d: [] for d in depths}
    for seed in range(10):
        for d in depths:
            net, truth = generate_synthetic(n=100, d=d, theta_star=1.0, coverage=1.0, seed=seed)
            agg = em_aggregate(observation_summaries(net))
            mae[d].append(recovery_metrics(agg, truth).mean_abs_err)
    means = [float(np.mean(mae[d])) for d in depths]
    assert all(a >= b for a, b in zip(means, means[1:])), means


@criterion(8, "exponential-fit R2 above 0.9 for D >= 4 on model-generated data")
def test_c08_exponential_fit():
    for d in (4, 11):
        for seed in (0, 1, 2):
            net, _ = generate_synthetic(n=100, d=d, theta_star=1.0, coverage=1.0, seed=seed)
            agg = em_aggregate(observation_summaries(net))
            positive = [v for v in agg.values.tolist() if v > 0]
            assert exponential_fit_r2(positive, agg.theta) > 0.9


@criterion(9, "entropy: K2 exact 0, K3 = log 2, unit trace, rescale invariance")
def test_c09_entropy_correctness():
    two = NodeUniverse(("a", "b"))
    assert von_neumann_entropy(LayerGraph(two, [1], [2.5])).entropy == 0.0

    three = NodeUniverse(("a", "b", "c"))
    triangle = LayerGraph(three, *coded(three, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}))
    assert abs(von_neumann_entropy(triangle).entropy - math.log(2)) < 1e-9

    rng = np.random.default_rng(90)
    for _ in range(50):
        n = int(rng.integers(3, 25))
        uni = NodeUniverse(tuple(f"n{i:02d}" for i in range(n)))
        weights = {
            (i, j): float(rng.uniform(0.1, 4.0))
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.5
        }
        if not weights:
            weights[(0, 1)] = 1.0
        layer = LayerGraph(uni, *coded(uni, weights))
        spec = von_neumann_entropy(layer)
        assert abs(sum(spec.gammas) - 1.0) < 1e-9
        scaled = LayerGraph(uni, *coded(uni, {p: 13.7 * w for p, w in weights.items()}))
        assert abs(von_neumann_entropy(scaled).entropy - spec.entropy) < 1e-9


@criterion(10, "qualitative ordering: MAPNet least mixed, strengths shrink below AveNet")
def test_c10_ordering(expression_collection):
    cfg = CorrelationConfig()
    net = build_correlation_network(expression_collection, cfg)
    agg = em_aggregate(observation_summaries(net))
    map_report = network_report(agg)
    con_report = network_report(build_connet(expression_collection, cfg.min_pairs))
    ave_report = network_report(build_avenet(net))
    assert map_report.entropy <= con_report.entropy
    assert map_report.entropy <= ave_report.entropy
    assert 0 < map_report.strength_min < ave_report.strength_min
    assert map_report.strength_max < ave_report.strength_max


@criterion(11, "shrinkage bound exact; lambda/ave ratio equals k/(k+theta) within 1e-9")
def test_c11_shrinkage_and_stratification(expression_collection):
    net = build_correlation_network(expression_collection, CorrelationConfig())
    inp = observation_summaries(net)
    agg = em_aggregate(inp)
    ave = pair_dict(build_avenet(net))
    lam, sums = pair_dict(agg), pair_dict(inp, inp.sums)
    for pair, k in inp.k.items():
        assert lam[pair] <= sums[pair] / k
        if sums[pair] > 0:
            ratio = lam[pair] / ave.get(pair, 0.0)
            assert abs(ratio - k / (k + agg.theta)) < 1e-9
    # distinct radial lines: one ratio per observation count
    ratios = {k: k / (k + agg.theta) for k in set(inp.k.values())}
    assert len(set(ratios.values())) == len(ratios)


@criterion(12, "every CLI subcommand is byte-identical across two runs")
def test_c12_pipeline_determinism(tmp_path, expression_collection, aarhus_style_text):
    csv_paths = []
    for ds in expression_collection[:4]:
        path = tmp_path / f"{ds.name}.csv"
        path.write_text(expression_csv(ds), encoding="utf-8")
        csv_paths.append(str(path))
    friend = tmp_path / "friend.txt"
    friend.write_text(aarhus_style_text, encoding="utf-8")

    def run_all(out):
        out.mkdir()
        layers = out / "layers.txt"
        assert main(["build-layers", *csv_paths, "-o", str(layers)]) == 0
        agg = out / "agg.csv"
        assert main(["aggregate", str(layers), "-o", str(agg), "--seed", "3"]) == 0
        assert main(["aggregate", str(friend), "-o", str(out / "friend_agg.csv"), "--unweighted"]) == 0
        con = out / "connet.csv"
        assert main(["baseline", "con", *csv_paths, "-o", str(con)]) == 0
        ave = out / "avenet.csv"
        assert main(["baseline", "ave", str(layers), "-o", str(ave)]) == 0
        assert main(
            ["metrics", str(agg), "-o", str(out / "report.json"), "--cdf", str(out / "cdf.csv")]
        ) == 0
        assert main(
            [
                "compare",
                "--map-csv", str(agg),
                "--map-meta", str(out / "agg.json"),
                "--con", str(con),
                "--ave", str(ave),
                "--out-dir", str(out / "cmp"),
            ]
        ) == 0
        assert main(
            [
                "experiment", "subsets", *csv_paths,
                "-o", str(out / "table.csv"),
                "--sizes", "1,2,4", "--reps", "3", "--seed", "11",
            ]
        ) == 0
        assert main(
            [
                "synth", "gen", "--nodes", "20", "--layers", "5", "--seed", "29",
                "-o", str(out / "synth.txt"), "--truth", str(out / "truth.csv"),
            ]
        ) == 0
        assert main(["aggregate", str(out / "synth.txt"), "-o", str(out / "synth_agg.csv")]) == 0
        assert main(
            [
                "synth", "score",
                "--est", str(out / "synth_agg.csv"),
                "--est-meta", str(out / "synth_agg.json"),
                "--truth", str(out / "truth.csv"),
                "--truth-meta", str(out / "truth.json"),
                "-o", str(out / "score.json"),
            ]
        ) == 0

    first, second = tmp_path / "run1", tmp_path / "run2"
    run_all(first)
    run_all(second)
    first_files = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    second_files = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert first_files == second_files
    for rel in first_files:
        assert (first / rel).read_bytes() == (second / rel).read_bytes(), rel

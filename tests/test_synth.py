import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

from mapnet import (
    AggregatedNetwork,
    EmConfig,
    LayerGraph,
    MultilayerNetwork,
    NodeUniverse,
    em_aggregate,
    generate_synthetic,
    observation_summaries,
    recovery_metrics,
    network_report,
    serialize_multiplex_edgelist,
    synthetic_layers,
)
from mapnet.cli import main
from mapnet.errors import DegenerateValues, NegativeWeight, ParseError, UniverseMismatch
from mapnet.core import pair_codes, reindexed
from mapnet.ingest import parse_aggregated_csv, sidecar
from mapnet.synth import SyntheticTruth, _poisson_from_uniform, _rounded_normal
from mapnet.synth import truth_from_csv, truth_to_csv
from conftest import coded, layer_csv, pair_dict, plain


class TestGenerateSynthetic:
    def test_rate_sample_mean(self):
        _, truth = generate_synthetic(n=200, d=1, theta_star=1.0, seed=101)
        rates = truth.values
        stderr = 1.0 / np.sqrt(rates.size)
        assert abs(rates.mean() - 1.0) < 3 * stderr

    def test_full_coverage_counts(self):
        net, _ = generate_synthetic(n=12, d=4, coverage=1.0, seed=7)
        inp = observation_summaries(net)
        assert len(inp.k) == 12 * 11 // 2
        assert all(count == 4 for count in inp.k.values())

    def test_zero_draws_stay_measurable(self):
        net, _ = generate_synthetic(n=12, d=4, coverage=1.0, seed=7)
        zero_measured = [
            pair
            for layer in net.layers
            for pair, weight in pair_dict(layer).items()
            if weight == 0
        ]
        assert zero_measured

    def test_seed_determinism(self):
        first, truth1 = generate_synthetic(n=15, d=3, coverage=0.6, seed=42)
        second, truth2 = generate_synthetic(n=15, d=3, coverage=0.6, seed=42)
        assert first == second
        assert truth1 == truth2
        third, _ = generate_synthetic(n=15, d=3, coverage=0.6, seed=43)
        assert third != first

    def test_coverage_thins_observations(self):
        net, _ = generate_synthetic(n=20, d=5, coverage=0.4, seed=8)
        inp = observation_summaries(net)
        counts = np.array(list(inp.k.values()))
        assert counts.max() <= 5
        assert counts.mean() < 3.5

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_synthetic(n=1, d=3)
        with pytest.raises(ValueError):
            generate_synthetic(n=5, d=0)
        with pytest.raises(ValueError):
            generate_synthetic(n=5, d=2, coverage=0.0)
        with pytest.raises(ValueError):
            generate_synthetic(n=5, d=2, theta_star=-1.0)
        for theta_star in (math.nan, math.inf):
            with pytest.raises(ValueError, match="theta_star must be positive and finite"):
                synthetic_layers(5, 2, theta_star)


class TestPoissonSampler:
    def test_inversion_moments(self):
        rng = np.random.default_rng(55)
        lam = np.full(40000, 3.0)
        draws = _poisson_from_uniform(lam, rng.random(lam.shape))
        stderr = np.sqrt(3.0 / lam.size)
        assert abs(draws.mean() - 3.0) < 4 * stderr
        assert abs(draws.var() - 3.0) < 0.15

    def test_normal_branch_moments(self):
        rng = np.random.default_rng(56)
        lam = np.full(40000, 80.0)
        draws = _rounded_normal(lam, rng.standard_normal(lam.shape))
        assert abs(draws.mean() - 80.0) < 0.3
        assert abs(draws.var() - 80.0) < 3.0
        assert draws.min() >= 0

    def test_normal_branch_past_the_int64_range(self):
        # rates above 2**63 stay floats instead of wrapping negative in an int64
        draws = _rounded_normal(np.array([1e19, 1e25]), np.array([0.0, -1.0]))
        assert draws.tolist() == [1e19, float(np.rint(1e25 - np.sqrt(1e25)))]

    def test_zero_rate(self):
        rng = np.random.default_rng(57)
        lam = np.zeros(100)
        draws = _poisson_from_uniform(lam, rng.random(100))
        assert not draws.any()


def masked_inversion(lam, u):
    """The inversion loop that steps only the masked draws of the grid (an
    earlier form of the sampler, kept as an oracle for the full-width loop)."""
    counts = np.zeros(lam.shape, dtype=np.int64)
    prob = np.exp(-lam)
    cdf = prob.copy()
    active = cdf <= u
    for _ in range(500):
        if not active.any():
            break
        counts[active] += 1
        prob[active] *= lam[active] / counts[active]
        cdf[active] += prob[active]
        active &= cdf <= u
    return counts


class TestFullWidthInversion:
    @pytest.mark.parametrize("seed", range(5))
    def test_draws_match_masked_loop(self, seed):
        rng = np.random.default_rng(seed)
        lam = np.concatenate([
            [0.0, 1e-300, 29.999999999999996],
            rng.uniform(0.0, 1e-3, 3000),        # near 0
            rng.uniform(29.0, 30.0, 3000),       # near the inversion limit
            rng.exponential(1.0, 3000),
        ])
        u = rng.random(lam.size)
        u[:: 50] = np.nextafter(1.0, 0.0)  # the CDF may never pass it: the 500-step cap
        u[1:: 50] = 0.0
        draws = _poisson_from_uniform(lam, u)
        np.testing.assert_array_equal(draws, masked_inversion(lam, u))
        assert draws.dtype == np.int64 and draws.max() == 500

    def test_grid_shape_kept(self):
        rng = np.random.default_rng(9)
        lam = rng.uniform(0.0, 30.0, (4, 250))
        u = rng.random(lam.shape)
        draws = _poisson_from_uniform(lam, u)
        assert draws.shape == (4, 250)
        np.testing.assert_array_equal(draws, masked_inversion(lam, u))

    def test_empty_input(self):
        assert _poisson_from_uniform(np.zeros(0), np.zeros(0)).shape == (0,)


def whole_grid_synthetic(n, d, theta_star, coverage, seed):
    """generate_synthetic as it drew before: whole (d, pairs) grids of coverage
    uniforms, Poisson uniforms and normals (kept as an oracle for its stream)."""
    width = len(str(n - 1))
    universe = NodeUniverse(tuple(f"n{i:0{width}d}" for i in range(n)))
    codes = pair_codes(*np.triu_indices(n, 1), n)
    m = codes.size
    rng = np.random.default_rng(seed)
    lam_star = -np.log1p(-rng.random(m)) / theta_star
    measured = rng.random((d, m)) < coverage
    u_pois = rng.random((d, m))
    z_norm = rng.standard_normal((d, m))
    lam = np.ascontiguousarray(np.broadcast_to(lam_star, (d, m)))
    small = lam < 30.0
    xi = np.zeros(lam.shape, dtype=np.int64)
    xi[small] = _poisson_from_uniform(lam[small], u_pois[small])
    large = ~small
    approx = np.rint(lam[large] + np.sqrt(lam[large]) * z_norm[large])
    xi[large] = np.maximum(approx, 0.0).astype(np.int64)
    layers = [LayerGraph(universe, codes[measured[a]], xi[a, measured[a]]) for a in range(d)]
    names = tuple(f"layer{a + 1:0{len(str(d))}d}" for a in range(d))
    net = MultilayerNetwork(universe, tuple(layers), names)
    return net, LayerGraph(universe, codes, lam_star), large.sum()


class TestLayerByLayerDraws:
    @pytest.mark.parametrize("case", [
        (300, 11, 1.0, 0.8, 1),
        (50, 4, 0.02, 0.5, 3),   # rates mostly 30 and above: the normal branch
        (80, 7, 0.05, 1.0, 9),   # the same at full coverage
        (2, 1, 1.0, 1.0, 0),
    ])
    def test_bit_identical_to_whole_grids(self, case):
        net, truth = generate_synthetic(*case)
        expected, rates, normal_cells = whole_grid_synthetic(*case)
        assert net == expected and plain(truth) == rates
        assert (normal_cells > 0) == (case[2] < 1.0)


class TestStreamedSynthGen:
    """``synth gen`` writes each layer as it is drawn; its files are those of
    the whole-grid oracle, in the normal branch too."""

    @pytest.mark.parametrize("case", [(50, 4, 0.02, 0.5, 3), (80, 7, 0.05, 1.0, 9)])
    def test_files_match_whole_grids(self, case, tmp_path):
        n, d, theta_star, coverage, seed = case
        net, truth = tmp_path / "net.txt", tmp_path / "truth.csv"
        argv = ["synth", "gen", "--nodes", n, "--layers", d, "--theta", theta_star,
                "--coverage", coverage, "--seed", seed, "-o", net, "--truth", truth]
        assert main([str(arg) for arg in argv]) == 0
        expected, rates, normal_cells = whole_grid_synthetic(*case)
        assert normal_cells > 0
        assert net.read_text() == serialize_multiplex_edgelist(expected)
        assert truth.read_text() == layer_csv(rates, "lambda_star")


class TestRecoveryMetrics:
    def test_identity_estimate(self):
        _, truth = generate_synthetic(n=20, d=3, seed=9)
        est = AggregatedNetwork(
            universe=truth.universe,
            codes=truth.codes,
            values=truth.values,
            theta=truth.theta_star,
            iterations=0,
            converged=True,
            final_objective=0.0,
        )
        scores = recovery_metrics(est, truth)
        assert scores.pearson_lambda == pytest.approx(1.0, abs=1e-12)
        assert scores.mean_abs_err == 0.0
        assert scores.theta_rel_err == 0.0

    def test_pipeline_recovery_is_tight(self):
        net, truth = generate_synthetic(n=60, d=30, theta_star=1.0, coverage=1.0, seed=10)
        agg = em_aggregate(observation_summaries(net), EmConfig())
        scores = recovery_metrics(agg, truth)
        assert scores.pearson_lambda > 0.9
        assert scores.theta_rel_err < 0.2

    def test_theta_estimate_consistency_over_seeds(self):
        # prior-rate recovery is approximate; 20% relative band at d=25
        for seed in range(10):
            net, truth = generate_synthetic(n=100, d=25, theta_star=1.0, coverage=1.0, seed=seed)
            agg = em_aggregate(observation_summaries(net), EmConfig())
            assert recovery_metrics(agg, truth).theta_rel_err < 0.2

    def test_universe_mismatch(self):
        _, truth = generate_synthetic(n=10, d=2, seed=11)
        _, other = generate_synthetic(n=11, d=2, seed=11)
        est = AggregatedNetwork(
            universe=other.universe,
            codes=other.codes,
            values=other.values,
            theta=1.0,
            iterations=0,
            converged=True,
            final_objective=0.0,
        )
        with pytest.raises(UniverseMismatch):
            recovery_metrics(est, truth)

    def test_estimate_pair_without_true_rate(self):
        _, truth = generate_synthetic(n=6, d=2, seed=11)
        partial = truth_from_csv(
            "node_u,node_v,lambda_star\nn0,n1,0.5\nn2,n3,1.0\nn4,n5,2.0\n",
            sidecar(truth),
        )
        assert partial.universe == truth.universe
        est = AggregatedNetwork(truth.universe, *coded(truth.universe, {(0, 1): 0.4, (0, 2): 0.1}),
                                1.0, 3, True, 0.0)
        with pytest.raises(UniverseMismatch):
            recovery_metrics(est, partial)

    def test_fewer_than_two_pairs_rejected(self):
        _, truth = generate_synthetic(n=6, d=2, seed=11)
        est = AggregatedNetwork(truth.universe, [1], [0.4], 1.0, 3, True, 0.0)
        with pytest.raises(DegenerateValues, match="at least two observed pairs"):
            recovery_metrics(est, truth)

    def test_more_evidence_reduces_error(self):
        # pairs observed more often shrink less, so their errors are smaller
        gaps = []
        for seed in range(5):
            net, truth = generate_synthetic(n=40, d=8, coverage=0.5, seed=seed)
            inp = observation_summaries(net)
            agg = em_aggregate(inp)
            errors_low, errors_high = [], []
            rates = pair_dict(truth)
            for pair, lam in pair_dict(agg).items():
                err = abs(lam - rates[pair])
                (errors_high if inp.k[pair] >= 5 else errors_low).append(err)
            gaps.append(np.mean(errors_low) - np.mean(errors_high))
        assert np.mean(gaps) > 0


class TestTruthSerialization:
    def test_round_trip(self):
        net, truth = generate_synthetic(n=9, d=2, theta_star=0.7, coverage=0.9, seed=12)
        text = truth_to_csv(truth)
        meta = json.loads(json.dumps(sidecar(truth)))
        assert meta == {"theta_star": 0.7, "coverage": 0.9, "seed": 12}
        again = truth_from_csv(text, meta)
        assert again.universe == truth.universe
        assert again.theta_star == truth.theta_star
        assert again.coverage == truth.coverage
        assert again.seed == truth.seed
        rates = pair_dict(again)
        for pair, value in pair_dict(truth).items():
            assert rates[pair] == value
        assert again == truth
        # the estimate's sidecar reads back the same way, but for the solver's trace
        est = em_aggregate(observation_summaries(net))
        meta = json.loads(json.dumps(sidecar(est)))
        assert list(meta) == ["theta", "iterations", "converged", "final_objective"]
        again = parse_aggregated_csv(layer_csv(est, "lambda"), meta)
        assert again.universe == est.universe
        assert again == replace(est, objective_trace=None)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_rate_has_position(self, token):
        text = f"node_u,node_v,lambda_star\na,b,0.5\na,c,{token}\nb,c,1.0\n"
        with pytest.raises(ParseError) as err:
            truth_from_csv(text, {"theta_star": 1.0, "seed": 0, "coverage": 1.0})
        assert (err.value.line, err.value.column) == (3, 3)

    def test_negative_rate_rejected(self):
        text = "node_u,node_v,lambda_star\na,b,0.5\na,c,-1\nb,c,1.0\n"
        with pytest.raises(NegativeWeight) as err:
            truth_from_csv(text, {"theta_star": 1.0, "seed": 0, "coverage": 1.0})
        assert str(err.value) == "negative weight -1.0 (line 3, column 3)"


class TestEstimateAndTruthAreLayers:
    """The estimate and the truth are LayerGraphs: the writer, the metrics and
    the recoder take them as they are, and keep their own fields."""

    @pytest.fixture()
    def pair(self):
        net, truth = generate_synthetic(n=15, d=4, coverage=0.7, seed=5)
        return em_aggregate(observation_summaries(net)), truth

    def test_each_declares_only_its_own_fields(self):
        own = {AggregatedNetwork: ["theta", "iterations", "converged", "final_objective",
                                   "objective_trace"],
               SyntheticTruth: ["theta_star", "coverage", "seed"]}
        for cls, names in own.items():
            assert issubclass(cls, LayerGraph)
            assert [f.name for f in fields(cls)] == ["universe", "codes", "values", *names]

    def test_written_as_the_plain_layer(self, pair):
        est, truth = pair
        assert layer_csv(est, "lambda") == layer_csv(plain(est), "lambda")
        assert layer_csv(truth, "lambda_star") == layer_csv(plain(truth), "lambda_star")
        assert truth_to_csv(truth) == layer_csv(plain(truth), "lambda_star")

    def test_reported_as_the_plain_layer(self, pair):
        est, _ = pair
        assert network_report(est) == network_report(plain(est))

    def test_reindexed_keeps_own_fields(self, pair):
        est, truth = pair
        bigger = NodeUniverse(("a", *truth.universe.labels, "z"))
        for obj, own in ((est, ("theta", "iterations", "converged", "final_objective",
                                "objective_trace")), (truth, ("theta_star", "coverage", "seed"))):
            moved = reindexed(obj, bigger)
            assert type(moved) is type(obj) and moved.universe == bigger
            assert [getattr(moved, name) for name in own] == [getattr(obj, name) for name in own]
            assert pair_dict(moved) == {(i + 1, j + 1): v for (i, j), v in pair_dict(obj).items()}

    def test_equality_is_type_strict(self, pair):
        est, truth = pair
        assert est != plain(est) and plain(est) != est
        assert truth != plain(truth) and plain(truth) != truth
        same = AggregatedNetwork(truth.universe, truth.codes, truth.values, truth.theta_star,
                                 0, True, 0.0)
        assert same != truth and truth != same
        assert plain(same) == plain(truth)

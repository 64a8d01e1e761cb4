import math
from dataclasses import fields
from fractions import Fraction

import numpy as np
import pytest

from mapnet import (
    AggregationInput,
    EmConfig,
    LayerGraph,
    MultilayerNetwork,
    NodeUniverse,
    em_aggregate,
    generate_synthetic,
    observation_summaries,
    parse_multiplex_edgelist,
    presence_summaries,
    weight_cdf,
)
from mapnet.aggregate import aggregate_network
from mapnet.errors import BracketingFailure, DegenerateAllZero, DomainError
from conftest import coded, log_posterior, pair_dict, theta_fixed_point_oracle


def single_pair_input(s=8.0, k=2, pair_count=1):
    uni = NodeUniverse(("a", "b"))
    return AggregationInput(uni, [1], [k], [float(s)], pair_count)


def random_input(seed, n=30, d=5, coverage=0.8):
    net, _ = generate_synthetic(n=n, d=d, theta_star=1.0, coverage=coverage, seed=seed)
    return observation_summaries(net)


class TestLogPosterior:
    def test_direct_arithmetic_single_pair(self):
        inp = single_pair_input(s=0.0, k=1)
        # -k*lam + S*log(lam) + log(theta) - lam*theta = -1 + 0 + 0 - 1
        assert log_posterior(inp, [1.0], 1.0) == pytest.approx(-2.0, abs=1e-15)

    def test_arithmetic_oracle_value(self):
        inp = single_pair_input()
        expected = -7.0 + 8.0 * math.log(3.5) + math.log(2.0 / 7.0) - 3.5 * (2.0 / 7.0)
        assert log_posterior(inp, [3.5], 2.0 / 7.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_unobserved_pairs_contribute_log_theta(self):
        inp = single_pair_input(pair_count=4)
        base = log_posterior(single_pair_input(pair_count=1), [3.5], 2.0)
        assert log_posterior(inp, [3.5], 2.0) == pytest.approx(
            base + 3 * math.log(2.0), abs=1e-12
        )

    def test_zero_lambda_with_positive_sum_rejected(self):
        inp = single_pair_input()
        with pytest.raises(DomainError):
            log_posterior(inp, [0.0], 1.0)

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(DomainError):
            log_posterior(single_pair_input(), [1.0], 0.0)
        with pytest.raises(DomainError):
            log_posterior(single_pair_input(), [1.0], -1.0)

    def test_negative_lambda_rejected(self):
        uni = NodeUniverse(("a", "b", "c"))
        inp = AggregationInput(uni, [1, 5], [1, 2], [2.0, 0.0], 3)
        with pytest.raises(DomainError):
            log_posterior(inp, [2.0, -0.5], 1.0)

    @pytest.mark.parametrize("lam", [[], [3.5, 1.0], [[3.5]]])
    def test_one_lambda_per_pair_code(self, lam):
        with pytest.raises(ValueError, match="one lambda per pair code"):
            log_posterior(single_pair_input(), lam, 1.0)

    def test_local_optimality_at_convergence(self):
        inp = random_input(seed=1)
        agg = em_aggregate(inp)
        best = log_posterior(inp, agg.values, agg.theta)
        rng = np.random.default_rng(2)
        positive = np.flatnonzero(agg.values > 0)
        for index in rng.choice(positive.size, size=8, replace=False):
            index = positive[int(index)]
            for eps in (1e-4, -1e-4):
                perturbed = agg.values.copy()
                perturbed[index] = agg.values[index] * (1 + eps)
                assert log_posterior(inp, perturbed, agg.theta) <= best + 1e-12


class TestEmAggregate:
    def test_hand_solvable_single_pair(self):
        # fixed point of the 1-pair problem: 2*lam + 1 = S, theta = 1/lam
        agg = em_aggregate(single_pair_input())
        assert agg.converged
        assert pair_dict(agg)[(0, 1)] == pytest.approx(3.5, abs=1e-10)
        assert agg.theta == pytest.approx(2.0 / 7.0, abs=1e-10)

    def test_all_zero_weights_degenerate(self):
        uni = NodeUniverse(("a", "b", "c"))
        inp = AggregationInput(uni, [1, 5], [2, 1], [0.0, 0.0], 3)
        with pytest.raises(DegenerateAllZero):
            em_aggregate(inp)

    def test_total_weight_past_the_float_range_is_a_domain_error(self):
        uni = NodeUniverse(("a", "b", "c"))
        inp = AggregationInput(uni, [1, 2], [1, 1], [1e308, 1e308], 3)
        with pytest.raises(DomainError, match="^total observed weight overflows the float range$"):
            em_aggregate(inp)

    def test_objective_past_the_float_range_is_a_domain_error(self):
        # the sum is finite, but S*log(S) is not; no RuntimeWarning escapes (they fail the suite)
        uni = NodeUniverse(("a", "b", "c"))
        inp = AggregationInput(uni, [1, 5], [1, 1], [1e308, 1.0], 3)
        with pytest.raises(DomainError, match="^the log-posterior overflows the float range$"):
            em_aggregate(inp)

    def test_objective_just_inside_the_float_range_is_returned(self):
        # a pair seen in two layers at 1.2785e305 each: S*log(S) overflows, the objective does not
        inp = AggregationInput(NodeUniverse(("a", "b")), [1], [2], [2 * 1.2785e305], 1)
        agg = em_aggregate(inp)
        assert math.isfinite(agg.final_objective)
        assert agg.final_objective == pytest.approx(
            log_posterior(inp, agg.values, agg.theta), rel=1e-12)

    def test_zero_sum_pairs_get_zero_lambda(self):
        uni = NodeUniverse(("a", "b", "c"))
        inp = AggregationInput(uni, [1, 5], [2, 2], [6.0, 0.0], 3)
        lam = pair_dict(em_aggregate(inp))
        assert lam[(1, 2)] == 0.0
        assert lam[(0, 1)] > 0

    def test_fixed_point_identities(self):
        inp = random_input(seed=3)
        agg = em_aggregate(inp)
        assert agg.converged
        lam, sums = pair_dict(agg), pair_dict(inp, inp.sums)
        for pair, k in inp.k.items():
            s = sums[pair]
            assert lam[pair] * (k + agg.theta) == pytest.approx(
                s, abs=1e-8 * max(s, 1.0)
            )
        assert agg.theta * sum(lam.values()) == pytest.approx(
            inp.pair_count, rel=1e-12
        )

    def test_shrinkage_bound(self):
        inp = random_input(seed=4)
        lam, sums = pair_dict(em_aggregate(inp)), pair_dict(inp, inp.sums)
        for pair, k in inp.k.items():
            assert lam[pair] <= sums[pair] / k

    def test_monotone_objective_deterministic_and_random(self):
        inp = random_input(seed=5)
        for cfg in (
            EmConfig(),
            EmConfig(seed=1),
            EmConfig(seed=2),
        ):
            trace = np.array(em_aggregate(inp, cfg).objective_trace)
            assert np.all(np.diff(trace) >= -1e-12)

    def test_init_independence(self):
        inp = random_input(seed=6)
        theta0 = em_aggregate(inp).theta
        for seed in (1, 2, 3):
            theta = em_aggregate(inp, EmConfig(seed=seed)).theta
            assert abs(theta - theta0) / theta0 < 1e-6

    def test_seed_selects_a_random_start(self):
        inp = random_input(seed=6)
        default = em_aggregate(inp, EmConfig())
        seeded = em_aggregate(inp, EmConfig(seed=3))
        assert seeded.objective_trace[0] != default.objective_trace[0]
        again = em_aggregate(inp, EmConfig(seed=3))
        assert again.objective_trace == seeded.objective_trace

    def test_config_fields(self):
        assert [f.name for f in fields(EmConfig)] == ["tol", "max_iter", "seed"]

    def test_joint_scale_covariance_exact(self):
        # scaling S and P together by c scales lambda by c and keeps theta
        base = em_aggregate(single_pair_input(s=8.0, pair_count=1))
        scaled = em_aggregate(single_pair_input(s=24.0, pair_count=3))
        assert scaled.theta == pytest.approx(base.theta, rel=1e-10)
        assert pair_dict(scaled)[(0, 1)] == pytest.approx(3 * pair_dict(base)[(0, 1)], rel=1e-10)

    def test_divergent_prior_rate_flagged(self):
        # total weight below the pair count: no finite fixed point
        uni = NodeUniverse(tuple("abcde"))
        inp = AggregationInput(uni, [1], [1], [2.0], 10)
        with pytest.raises(BracketingFailure, match=r"weight 2\.0 does not exceed the pair count 10"):
            em_aggregate(inp, EmConfig(max_iter=100000))
        with pytest.raises(BracketingFailure):
            theta_fixed_point_oracle(inp)

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.inf, math.nan])
    def test_tolerance_must_be_positive_and_finite(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            EmConfig(tol=tol)

    def test_max_iter_must_be_positive(self):
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            EmConfig(max_iter=0)

    def test_seeded_start_lies_below_the_default_start(self):
        # the profile log-posterior rises up to the root, so a lower start scores lower
        inp = random_input(seed=6)
        default = em_aggregate(inp, EmConfig()).objective_trace
        for seed in (1, 2, 3):
            seeded = em_aggregate(inp, EmConfig(seed=seed)).objective_trace
            assert seeded[0] < default[0]


def near_edge_input(n=40, d=5, seed=11):
    # presence counts over d layers with total weight ~1.003 * P
    uni = NodeUniverse(tuple(f"v{i:02d}" for i in range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cells = np.random.default_rng(seed).choice(
        d * len(pairs), size=round(1.003 * len(pairs)), replace=False
    )
    counts = np.bincount(cells // d, minlength=len(pairs))
    codes, depth = coded(uni, {p: d for p in pairs})
    _, sums = coded(uni, {p: float(c) for p, c in zip(pairs, counts)})
    return AggregationInput(uni, codes, depth, sums, len(pairs))


def gapped_levels_input(n=30, seed=12):
    # k takes only the levels 1, 4 and 7
    rng = np.random.default_rng(seed)
    uni = NodeUniverse(tuple(f"v{i:02d}" for i in range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    k = {p: int(rng.choice([1, 4, 7])) for p in pairs}
    s = {p: float(rng.gamma(2.0, 1.0) * k[p] * (rng.uniform() < 0.7)) for p in pairs}
    return AggregationInput(uni, *coded(uni, k), coded(uni, s)[1], len(pairs))


def exact_margin_input(margin, n=300, seed=0):
    # k uniform on 1..11 and S on multiples of 2**-10 with sum(S) = P + margin
    # exactly, so the input fixes theta to full precision
    rng = np.random.default_rng(seed)
    uni = NodeUniverse(tuple(f"v{i:03d}" for i in range(n)))
    codes = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
    units = round((codes.size + margin) * 1024)
    sums = rng.multinomial(units, np.full(codes.size, 1 / codes.size)) / 1024
    return AggregationInput(uni, codes, rng.integers(1, 12, codes.size), sums, codes.size)


def rounded_margin_draws(count, n=400, pairs=11_225):
    # k uniform on 1..11 and S uniform, scaled so that fsum(S) rounds to
    # P = n(n - 1)/2: in 871 of the first 2,000 draws the sign of
    # s.sum() - P is not the sign of the exact sum(S) - P
    rng = np.random.default_rng(3)
    uni = NodeUniverse(tuple(f"n{i:03d}" for i in range(n)))
    i, j = np.triu_indices(n, 1)
    codes = np.sort(rng.choice(i * n + j, pairs, replace=False))
    for _ in range(count):
        k = rng.integers(1, 12, pairs)
        s = rng.uniform(0, 1, pairs)
        yield AggregationInput(uni, codes, k, s * (i.size / math.fsum(s.tolist())), i.size)


class TestStratifiedEquivalence:
    @pytest.mark.parametrize("make_input", [near_edge_input, gapped_levels_input])
    @pytest.mark.parametrize("cfg", [EmConfig(), EmConfig(seed=3)], ids=["deterministic", "random"])
    def test_matches_bisection_oracle(self, make_input, cfg):
        inp = make_input()
        agg = em_aggregate(inp, cfg)
        assert agg.converged
        assert agg.theta == pytest.approx(theta_fixed_point_oracle(inp), rel=1e-10)
        lam = inp.sums / (inp.counts + agg.theta)
        np.testing.assert_allclose(agg.values, lam, rtol=1e-12, atol=0.0)
        assert agg.theta * agg.values.sum() == pytest.approx(inp.pair_count, rel=1e-12)

    def test_truncated_run_keeps_the_prior_identity(self):
        inp = gapped_levels_input()
        agg = em_aggregate(inp, EmConfig(max_iter=2))
        assert (agg.iterations, agg.converged) == (2, False)
        assert agg.theta * agg.values.sum() == pytest.approx(inp.pair_count, rel=1e-12)

    def test_near_edge_takes_few_steps(self):
        inp = near_edge_input()
        agg = em_aggregate(inp)
        assert agg.converged
        assert agg.iterations <= 64
        # one stratum (k = D for every pair): theta = D * P / (sum(S) - P)
        margin = inp.sums.sum() - inp.pair_count
        assert agg.theta == pytest.approx(5 * inp.pair_count / margin, rel=1e-12)

    @pytest.mark.parametrize("margin", [2.0**-3, 2.0**-10])
    @pytest.mark.parametrize("seed", [None, 4])
    def test_exact_root_close_to_the_edge(self, margin, seed):
        inp = exact_margin_input(margin)
        assert inp.sums.sum() - inp.pair_count == margin
        agg = em_aggregate(inp, EmConfig(seed=seed))
        assert agg.converged
        assert agg.iterations <= 64
        oracle = theta_fixed_point_oracle(inp)
        assert abs(agg.theta - oracle) <= 1e-10 * oracle

    @pytest.mark.parametrize("margin", [0.0, -1.0])
    def test_no_optimum_at_or_past_the_edge(self, margin):
        inp = exact_margin_input(margin)
        with pytest.raises(BracketingFailure, match="does not exceed the pair count 44850"):
            em_aggregate(inp)
        with pytest.raises(BracketingFailure):
            theta_fixed_point_oracle(inp)

    def test_no_optimum_verdict_rests_on_the_exact_margin(self):
        """An optimum is found exactly when sum(S) > P, though the rounded
        s.sum() - P often has the other sign so near the edge.  In draw 75,
        sum(S) < P but s.sum() > P: the solver used to return theta = 3.3e16
        as converged; in the others it used to raise although sum(S) > P."""
        flipped = 0
        for inp in rounded_margin_draws(76):
            try:
                oracle = theta_fixed_point_oracle(inp)
            except BracketingFailure:
                oracle = None
            flipped += (float(inp.sums.sum()) > inp.pair_count) != (oracle is not None)
            if oracle is None:
                with pytest.raises(BracketingFailure):
                    em_aggregate(inp)
            else:
                agg = em_aggregate(inp)
                assert agg.converged
                assert abs(agg.theta - oracle) <= 1e-10 * oracle
        assert sum(map(Fraction, inp.sums.tolist())) < inp.pair_count < inp.sums.sum()  # draw 75
        assert flipped >= 20


def c04_slack(inp, lam, theta):
    # C04's slack: 16 ulps of the magnitude of the log-posterior's terms
    s = inp.sums
    log_terms = np.abs(s[s > 0] * np.log(lam[s > 0])).sum()
    return 16 * np.spacing(s.sum() + log_terms + inp.pair_count * abs(math.log(theta)))


TRACE_INPUTS = pytest.mark.parametrize(
    "make_input", [lambda: random_input(seed=5), near_edge_input, gapped_levels_input,
                   lambda: exact_margin_input(2.0**-3)],
    ids=["synthetic", "near_edge", "gapped_levels", "exact_margin"])


class TestObjectiveTrace:
    @TRACE_INPUTS
    @pytest.mark.parametrize("cfg", [EmConfig(), EmConfig(seed=2), EmConfig(max_iter=1),
                                     EmConfig(max_iter=3, seed=4)],
                             ids=["default", "seeded", "one_step", "three_seeded_steps"])
    def test_one_entry_per_step_plus_the_start(self, make_input, cfg):
        agg = em_aggregate(make_input(), cfg)
        assert isinstance(agg.objective_trace, tuple)
        assert len(agg.objective_trace) == agg.iterations + 1

    @TRACE_INPUTS
    def test_first_entry_is_the_log_posterior_at_the_start(self, make_input):
        inp = make_input()
        k, s = inp.counts, inp.sums
        strata = np.bincount(k, weights=s)
        levels = np.flatnonzero(strata)
        theta0 = inp.pair_count / (strata[levels] / levels).sum()
        lam0 = s / (k + theta0)
        expected = log_posterior(inp, lam0, theta0)
        first = em_aggregate(inp).objective_trace[0]
        assert abs(first - expected) <= c04_slack(inp, lam0, theta0)

    @TRACE_INPUTS
    def test_converged_trace_ends_at_the_final_objective(self, make_input):
        inp = make_input()
        agg = em_aggregate(inp)
        assert agg.converged
        assert abs(agg.objective_trace[-1] - agg.final_objective) <= c04_slack(
            inp, agg.values, agg.theta)

    @TRACE_INPUTS
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 10000])
    def test_final_objective_matches_log_posterior(self, make_input, max_iter):
        inp = make_input()
        agg = em_aggregate(inp, EmConfig(max_iter=max_iter))
        assert agg.converged or agg.iterations == max_iter
        assert agg.final_objective == pytest.approx(
            log_posterior(inp, agg.values, agg.theta), rel=1e-12)

    @pytest.mark.parametrize("count_mode", ["measurable", "nonzero_only", "presence"])
    @pytest.mark.parametrize("pair_count_mode", ["unordered", "paper_n_squared"])
    @pytest.mark.parametrize("max_iter", [1, 2, 3, 10000])
    def test_final_objective_matches_log_posterior_in_every_mode(self, count_mode, pair_count_mode,
                                                                max_iter):
        net, _ = generate_synthetic(n=30, d=7, theta_star=0.5, coverage=0.8, seed=7)
        if count_mode == "presence":
            inp = presence_summaries(net, pair_count_mode)
        else:
            inp = observation_summaries(net, count_mode, pair_count_mode)
        agg = aggregate_network(net, EmConfig(max_iter=max_iter), count_mode, pair_count_mode)
        assert agg.converged == (max_iter == 10000)
        assert agg.final_objective == pytest.approx(
            log_posterior(inp, agg.values, agg.theta), rel=1e-12)

    @TRACE_INPUTS
    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_returned_rate_does_not_lower_the_objective(self, make_input, max_iter):
        # theta = P / sum(lam) maximizes the log-posterior at the last step's lam, so the
        # final objective is at least the profile at the last step, the trace's last entry
        inp = make_input()
        agg = em_aggregate(inp, EmConfig(max_iter=max_iter))
        assert agg.final_objective >= agg.objective_trace[-1] - c04_slack(
            inp, agg.values, agg.theta)


class TestThetaOracle:
    def test_single_pair_closed_form(self):
        assert theta_fixed_point_oracle(single_pair_input()) == pytest.approx(
            2.0 / 7.0, abs=1e-12
        )

    def test_cross_validates_em_on_synthetic(self):
        for seed in range(5):
            inp = random_input(seed=seed, n=40, d=7, coverage=0.9)
            agg = em_aggregate(inp)
            assert abs(theta_fixed_point_oracle(inp) - agg.theta) < 1e-8

    def test_all_zero_weights_fail_bracketing(self):
        uni = NodeUniverse(("a", "b"))
        inp = AggregationInput(uni, [1], [3], [0.0], 1)
        with pytest.raises(BracketingFailure):
            theta_fixed_point_oracle(inp)


class TestUnweightedMode:
    def test_rate_of_presence(self, aarhus_style_text):
        net = parse_multiplex_edgelist(aarhus_style_text)
        assert net.depth == 5
        inp = presence_summaries(net)
        agg = em_aggregate(inp)
        assert agg.converged

        presence = {pair: int(s) for pair, s in pair_dict(inp, inp.sums).items()}
        lam = pair_dict(agg)
        by_count: dict[int, set[float]] = {}
        for pair, count in presence.items():
            by_count.setdefault(count, set()).add(lam[pair])
        # equal presence count -> equal weight; zero presence -> zero weight
        for count, values in by_count.items():
            assert len(values) == 1
            if count == 0:
                assert values == {0.0}
        # weight strictly increasing in presence count
        counts = sorted(c for c in by_count if c > 0)
        weights = [next(iter(by_count[c])) for c in counts]
        assert np.all(np.diff(weights) > 0)
        # exact rate-of-presence ratios: lam_c / lam_1 = c
        lam1 = next(iter(by_count[1]))
        for c in counts:
            assert next(iter(by_count[c])) == pytest.approx(c * lam1, rel=1e-9)
        # the CDF of the nonzero weights shows one step per presence count
        nonzero = [v for v in lam.values() if v > 0]
        assert len(weight_cdf(nonzero)) == len(counts) == 5

    def test_aggregate_network_presence_count_mode(self, aarhus_style_text):
        net = parse_multiplex_edgelist(aarhus_style_text)
        direct = em_aggregate(presence_summaries(net))
        via_mode = aggregate_network(net, count_mode="presence")
        assert pair_dict(via_mode) == pair_dict(direct)
        assert (via_mode.theta, via_mode.iterations) == (direct.theta, direct.iterations)
        paper = aggregate_network(net, count_mode="presence", pair_count_mode="paper_n_squared")
        assert paper.theta == em_aggregate(presence_summaries(net, "paper_n_squared")).theta

    def test_aggregate_network_unknown_count_mode(self, aarhus_style_text):
        net = parse_multiplex_edgelist(aarhus_style_text)
        with pytest.raises(ValueError, match="count_mode"):
            aggregate_network(net, count_mode="unweighted")

    def test_presence_counts_all_pairs(self, aarhus_style_text):
        net = parse_multiplex_edgelist(aarhus_style_text)
        inp = presence_summaries(net)
        n = net.universe.size
        assert len(inp.k) == n * (n - 1) // 2
        assert all(count == net.depth for count in inp.k.values())

    def test_one_node_universe_is_degenerate(self):
        uni = NodeUniverse(("a",))
        net = MultilayerNetwork(uni, (LayerGraph(uni, [], []),), ("one",))
        with pytest.raises(DegenerateAllZero, match="fewer than two nodes"):
            presence_summaries(net)

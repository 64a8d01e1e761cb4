import math
from dataclasses import fields

import numpy as np
import pytest

from mapnet import (
    AggregationInput,
    EmConfig,
    NodeUniverse,
    em_aggregate,
    generate_synthetic,
    log_posterior,
    observation_summaries,
    parse_multiplex_edgelist,
    presence_summaries,
    theta_fixed_point_oracle,
    weight_cdf,
)
from mapnet.aggregate import aggregate_network
from mapnet.errors import BracketingFailure, DegenerateAllZero, DomainError


def single_pair_input(s=8.0, k=2, pair_count=1):
    uni = NodeUniverse(("a", "b"))
    return AggregationInput(uni, {(0, 1): k}, {(0, 1): float(s)}, pair_count)


def random_input(seed, n=30, d=5, coverage=0.8):
    net, _ = generate_synthetic(n=n, d=d, theta_star=1.0, coverage=coverage, seed=seed)
    return observation_summaries(net)


class TestLogPosterior:
    def test_direct_arithmetic_single_pair(self):
        inp = single_pair_input(s=0.0, k=1)
        # -k*lam + S*log(lam) + log(theta) - lam*theta = -1 + 0 + 0 - 1
        assert log_posterior(inp, {(0, 1): 1.0}, 1.0) == pytest.approx(-2.0, abs=1e-15)

    def test_arithmetic_oracle_value(self):
        inp = single_pair_input()
        expected = -7.0 + 8.0 * math.log(3.5) + math.log(2.0 / 7.0) - 3.5 * (2.0 / 7.0)
        assert log_posterior(inp, {(0, 1): 3.5}, 2.0 / 7.0) == pytest.approx(
            expected, abs=1e-12
        )

    def test_unobserved_pairs_contribute_log_theta(self):
        inp = single_pair_input(pair_count=4)
        base = log_posterior(single_pair_input(pair_count=1), {(0, 1): 3.5}, 2.0)
        assert log_posterior(inp, {(0, 1): 3.5}, 2.0) == pytest.approx(
            base + 3 * math.log(2.0), abs=1e-12
        )

    def test_zero_lambda_with_positive_sum_rejected(self):
        inp = single_pair_input()
        with pytest.raises(DomainError):
            log_posterior(inp, {(0, 1): 0.0}, 1.0)

    def test_nonzero_lambda_on_unobserved_pair_rejected(self):
        uni = NodeUniverse(("a", "b", "c"))
        inp = AggregationInput(uni, {(0, 1): 1}, {(0, 1): 2.0}, 3)
        with pytest.raises(DomainError):
            log_posterior(inp, {(0, 1): 2.0, (1, 2): 0.5}, 1.0)

    def test_nonpositive_theta_rejected(self):
        with pytest.raises(DomainError):
            log_posterior(single_pair_input(), {(0, 1): 1.0}, 0.0)

    def test_local_optimality_at_convergence(self):
        inp = random_input(seed=1)
        agg = em_aggregate(inp)
        best = log_posterior(inp, agg.lam, agg.theta)
        rng = np.random.default_rng(2)
        pairs = [p for p in agg.lam if agg.lam[p] > 0]
        for pair in rng.choice(len(pairs), size=8, replace=False):
            pair = pairs[int(pair)]
            for eps in (1e-4, -1e-4):
                perturbed = dict(agg.lam)
                perturbed[pair] = agg.lam[pair] * (1 + eps)
                assert log_posterior(inp, perturbed, agg.theta) <= best + 1e-12


class TestEmAggregate:
    def test_hand_solvable_single_pair(self):
        # fixed point of the 1-pair problem: 2*lam + 1 = S, theta = 1/lam
        agg = em_aggregate(single_pair_input())
        assert agg.converged
        assert agg.lam[(0, 1)] == pytest.approx(3.5, abs=1e-10)
        assert agg.theta == pytest.approx(2.0 / 7.0, abs=1e-10)

    def test_all_zero_weights_degenerate(self):
        uni = NodeUniverse(("a", "b", "c"))
        inp = AggregationInput(uni, {(0, 1): 2, (1, 2): 1}, {(0, 1): 0.0, (1, 2): 0.0}, 3)
        with pytest.raises(DegenerateAllZero):
            em_aggregate(inp)

    def test_zero_sum_pairs_get_zero_lambda(self):
        uni = NodeUniverse(("a", "b", "c"))
        inp = AggregationInput(uni, {(0, 1): 2, (1, 2): 2}, {(0, 1): 6.0, (1, 2): 0.0}, 3)
        agg = em_aggregate(inp)
        assert agg.lam[(1, 2)] == 0.0
        assert agg.lam[(0, 1)] > 0

    def test_fixed_point_identities(self):
        inp = random_input(seed=3)
        agg = em_aggregate(inp)
        assert agg.converged
        for pair, k in inp.k.items():
            s = inp.s[pair]
            assert agg.lam[pair] * (k + agg.theta) == pytest.approx(
                s, abs=1e-8 * max(s, 1.0)
            )
        assert agg.theta * sum(agg.lam.values()) == pytest.approx(
            inp.pair_count, rel=1e-12
        )

    def test_shrinkage_bound(self):
        inp = random_input(seed=4)
        agg = em_aggregate(inp)
        for pair, k in inp.k.items():
            assert agg.lam[pair] <= inp.s[pair] / k

    def test_monotone_objective_deterministic_and_random(self):
        inp = random_input(seed=5)
        for cfg in (
            EmConfig(track_objective=True),
            EmConfig(seed=1, track_objective=True),
            EmConfig(seed=2, track_objective=True),
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
        default = em_aggregate(inp, EmConfig(track_objective=True))
        seeded = em_aggregate(inp, EmConfig(seed=3, track_objective=True))
        assert seeded.objective_trace[0] != default.objective_trace[0]
        again = em_aggregate(inp, EmConfig(seed=3, track_objective=True))
        assert again.objective_trace == seeded.objective_trace

    def test_config_fields(self):
        assert [f.name for f in fields(EmConfig)] == ["tol", "max_iter", "seed", "track_objective"]

    def test_joint_scale_covariance_exact(self):
        # scaling S and P together by c scales lambda by c and keeps theta
        base = em_aggregate(single_pair_input(s=8.0, pair_count=1))
        scaled = em_aggregate(single_pair_input(s=24.0, pair_count=3))
        assert scaled.theta == pytest.approx(base.theta, rel=1e-10)
        assert scaled.lam[(0, 1)] == pytest.approx(3 * base.lam[(0, 1)], rel=1e-10)

    def test_divergent_prior_rate_flagged(self):
        # total weight below the pair count: no finite fixed point
        uni = NodeUniverse(tuple("abcde"))
        inp = AggregationInput(uni, {(0, 1): 1}, {(0, 1): 2.0}, 10)
        agg = em_aggregate(inp, EmConfig(max_iter=100000))
        assert not agg.converged
        with pytest.raises(BracketingFailure):
            theta_fixed_point_oracle(inp)

    def test_final_objective_matches_log_posterior(self):
        inp = random_input(seed=7)
        agg = em_aggregate(inp)
        assert agg.final_objective == pytest.approx(
            log_posterior(inp, agg.lam, agg.theta), rel=1e-12
        )


def per_pair_em_reference(inp, cfg):
    """Reference EM loop that forms lam over all pairs in every iteration."""
    pairs = sorted(inp.k)
    k = np.array([inp.k[p] for p in pairs], dtype=float)
    s = np.array([inp.s[p] for p in pairs], dtype=float)
    pair_count = inp.pair_count
    if cfg.seed is None:
        lam = s / k
        theta = pair_count / float(lam.sum())
    else:
        rng = np.random.default_rng(cfg.seed)
        lam = rng.exponential(1.0, size=len(pairs))
        theta = 10.0 ** rng.uniform(-3.0, 3.0)
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        lam = s / (k + theta)
        theta_new = pair_count / float(lam.sum())
        if theta_new > 1e100:
            theta = theta_new
            break
        if abs(theta_new - theta) <= cfg.tol * theta:
            theta = theta_new
            converged = True
            break
        theta = theta_new
    return iterations, converged, theta, dict(zip(pairs, lam))


def near_edge_input(n=40, d=5, seed=11):
    # presence counts over d layers with total weight ~1.003 * P
    uni = NodeUniverse(tuple(f"v{i:02d}" for i in range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    cells = np.random.default_rng(seed).choice(
        d * len(pairs), size=round(1.003 * len(pairs)), replace=False
    )
    counts = np.bincount(cells // d, minlength=len(pairs))
    return AggregationInput(
        uni, {p: d for p in pairs}, {p: float(c) for p, c in zip(pairs, counts)}, len(pairs)
    )


def gapped_levels_input(n=30, seed=12):
    # k takes only the levels 1, 4 and 7
    rng = np.random.default_rng(seed)
    uni = NodeUniverse(tuple(f"v{i:02d}" for i in range(n)))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    k = {p: int(rng.choice([1, 4, 7])) for p in pairs}
    s = {p: float(rng.gamma(2.0, 1.0) * k[p] * (rng.uniform() < 0.7)) for p in pairs}
    return AggregationInput(uni, k, s, len(pairs))


class TestStratifiedEquivalence:
    @pytest.mark.parametrize("make_input", [near_edge_input, gapped_levels_input])
    @pytest.mark.parametrize(
        "cfg",
        [EmConfig(), EmConfig(seed=3), EmConfig(max_iter=40)],
        ids=["deterministic", "random", "truncated"],
    )
    def test_matches_per_pair_loop(self, make_input, cfg):
        inp = make_input()
        iterations, converged, theta, lam = per_pair_em_reference(inp, cfg)
        agg = em_aggregate(inp, cfg)
        assert (agg.iterations, agg.converged) == (iterations, converged)
        assert agg.theta == pytest.approx(theta, rel=1e-12)
        assert agg.lam.keys() == lam.keys()
        for pair, value in lam.items():
            assert agg.lam[pair] == pytest.approx(value, rel=1e-12, abs=0.0)
        assert agg.theta * sum(agg.lam.values()) == pytest.approx(inp.pair_count, rel=1e-12)

    def test_near_edge_needs_thousands_of_iterations(self):
        agg = em_aggregate(near_edge_input())
        assert agg.converged
        assert agg.iterations > 1000


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
        inp = AggregationInput(uni, {(0, 1): 3}, {(0, 1): 0.0}, 1)
        with pytest.raises(BracketingFailure):
            theta_fixed_point_oracle(inp)


class TestUnweightedMode:
    def test_rate_of_presence(self, aarhus_style_text):
        net = parse_multiplex_edgelist(aarhus_style_text)
        assert net.depth == 5
        inp = presence_summaries(net)
        agg = em_aggregate(inp)
        assert agg.converged

        presence = {pair: int(inp.s[pair]) for pair in inp.s}
        by_count: dict[int, set[float]] = {}
        for pair, count in presence.items():
            by_count.setdefault(count, set()).add(agg.lam[pair])
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
        nonzero = [v for v in agg.lam.values() if v > 0]
        assert len(weight_cdf(nonzero)) == len(counts) == 5

    def test_aggregate_network_presence_count_mode(self, aarhus_style_text):
        net = parse_multiplex_edgelist(aarhus_style_text)
        direct = em_aggregate(presence_summaries(net))
        via_mode = aggregate_network(net, count_mode="presence")
        assert via_mode.lam == direct.lam
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

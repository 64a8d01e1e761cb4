"""MAP aggregation: the edge rates and prior rate that maximize the posterior.

The model treats each layer's weight for a pair as a Poisson draw around a
latent rate, with an exponential prior (rate theta) shared by all pairs.
The log-posterior, up to constants, is

    sum over pairs of [ -k*lam + S*log(lam) + log(theta) - lam*theta ]

At its maximum ``lam = S / (k + theta)`` and ``theta = P / sum(lam)``, so
theta is the root of g(theta) = (sum(S) - P) - sum_d T_d * d / (d + theta),
where ``T_d`` is the total S over pairs with k = d.  g is increasing and
concave with g(0) = -P and g(inf) = sum(S) - P, so a root exists exactly
when sum(S) > P, and Newton steps from below rise to it monotonically, each
costing O(distinct k); lam is formed over all pairs once, after the steps.
Each solve traces the profile log-posterior, C - sum_d T_d*log(d + theta) +
P*log(theta) with C = sum(S*log(S) - S), at O(distinct k) per step.  At
lam = S / (k + theta_L), theta_L the last step's theta, and the returned
theta = P / sum(lam), the same sums give the final log-posterior,
C - sum_d T_d*log(d + theta_L) + P*log(theta) + P*(theta_L/theta - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .core import (
    AggregatedNetwork,
    AggregationInput,
    MultilayerNetwork,
    pair_codes,
    observation_summaries,
    prior_pair_count,
)
from .errors import BracketingFailure, DegenerateAllZero, DomainError


@dataclass(frozen=True)
class EmConfig:
    """Solver settings.

    The solver stops once a Newton step on theta is at most ``tol`` times
    theta, or after ``max_iter`` steps.  seed=None starts from
    P / sum(T_d / d), Newton's first step from theta = 0; an integer seeds a
    random start below that one, by a factor of 10**-U(0, 3).
    """

    tol: float = 1e-10
    max_iter: int = 10000
    seed: int | None = None

    def __post_init__(self):
        if not 0 < self.tol < math.inf:
            raise ValueError("tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def em_aggregate(inp: AggregationInput, cfg: EmConfig = EmConfig()) -> AggregatedNetwork:
    """Maximize the log-posterior by Newton steps on theta over the k-strata.

    Stops once a step is at most ``cfg.tol`` times theta; the estimate
    satisfies theta * sum(lam) = P exactly and lam * (k + theta) = S to
    solver tolerance; ``objective_trace`` has ``iterations + 1`` entries.
    Raises BracketingFailure (DegenerateAllZero if every S is 0) when sum(S)
    <= P: then no finite prior rate maximizes the posterior; DomainError
    when sum(S) or the log-posterior overflows the float range.
    """
    k, s = inp.counts.astype(float), inp.sums
    if not np.any(s > 0):
        raise DegenerateAllZero("every pair has zero observed weight")
    pair_count = inp.pair_count
    # correctly rounded, so its sign is exact; the memoryview yields floats with no copy
    try:
        margin = math.fsum(chain(memoryview(s), [-pair_count]))
    except OverflowError:
        raise DomainError("total observed weight overflows the float range") from None
    if margin <= 0:
        raise BracketingFailure(f"no finite prior rate: total observed weight {math.fsum(s)!r} "
                                f"does not exceed the pair count {pair_count}")

    stratum_sums = np.bincount(k.astype(np.intp), weights=s)
    levels = np.flatnonzero(stratum_sums)
    stratum_sums = stratum_sums[levels]

    theta = pair_count / float((stratum_sums / levels).sum())
    if cfg.seed is not None:
        theta *= 10.0 ** -np.random.default_rng(cfg.seed).uniform(0.0, 3.0)

    # the objective is summed with S scaled by 2**-e, which is exact, so that S*log(S) may
    # pass the float range where the objective does not
    e = math.frexp(float(s.max()))[1]
    scaled, positive = np.ldexp(s, -e), s > 0
    base = float((scaled[positive] * np.log(s[positive])).sum()) - float(scaled.sum())  # C * 2**-e
    strata = np.ldexp(stratum_sums, -e)

    def objective(theta_l: float, theta: float) -> float:
        # the log-posterior at lam = S / (k + theta_l) and rate theta = theta_l or P / sum(lam)
        value = (base - float((strata * np.log(levels + theta_l)).sum())
                 + math.ldexp(pair_count * (math.log(theta) + (theta_l / theta - 1.0)), -e))
        with np.errstate(over="ignore"):  # the final objective is checked below
            return float(np.ldexp(value, e))

    trace = [objective(theta, theta)]
    converged = False
    for iterations in range(1, cfg.max_iter + 1):
        pull = stratum_sums * levels / (levels + theta)  # g(theta) = margin - sum(pull)
        step = float((pull.sum() - margin) / (pull / (levels + theta)).sum())  # -g / g'
        theta += step
        trace.append(objective(theta, theta))
        if step <= cfg.tol * theta:
            converged = True
            break

    # lam over all pairs; the returned rate from it keeps theta * sum(lam) = P
    lam = s / (k + theta)
    returned = pair_count / float(lam.sum())
    final = objective(theta, returned)
    if not math.isfinite(final):
        raise DomainError("the log-posterior overflows the float range")

    return AggregatedNetwork(inp.universe, inp.codes, lam, returned, iterations, converged,
                             final, tuple(trace))


def presence_summaries(
    net: MultilayerNetwork, pair_count_mode: str = "unordered"
) -> AggregationInput:
    """Summaries for undistinguished layers: every pair counts in every layer.

    k is the layer count D for all unordered pairs and S is the number of
    layers where the pair is present (weight > 0), so the aggregate weight
    is the rate of presence scaled by 1 / (D + theta).
    """
    n = net.universe.size
    if n < 2:
        raise DegenerateAllZero("universe has fewer than two nodes")
    pair_count = prior_pair_count(n, pair_count_mode)
    codes = pair_codes(*np.triu_indices(n, 1), n)  # all pairs, sorted
    present = np.concatenate([layer.codes[layer.values > 0] for layer in net.layers])
    presence = np.bincount(present, minlength=n * n)[codes]
    depth = np.full(codes.size, net.depth)
    return AggregationInput(net.universe, codes, depth, presence, pair_count)


def aggregate_network(
    net: MultilayerNetwork,
    cfg: EmConfig = EmConfig(),
    count_mode: str = "measurable",
    pair_count_mode: str = "unordered",
) -> AggregatedNetwork:
    """Summarize a multilayer network and run the solver in one call.

    count_mode "presence" uses ``presence_summaries`` (undistinguished
    presence/absence layers); "measurable" and "nonzero_only" are passed to
    ``observation_summaries``.
    """
    if count_mode == "presence":
        inp = presence_summaries(net, pair_count_mode)
    else:
        inp = observation_summaries(net, count_mode, pair_count_mode)
    return em_aggregate(inp, cfg)

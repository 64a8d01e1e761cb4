"""MAP aggregation: alternating closed-form updates for edge rates and prior.

The model treats each layer's weight for a pair as a Poisson draw around a
latent rate, with an exponential prior (rate theta) shared by all pairs.
The log-posterior, up to constants, is

    sum over pairs of [ -k*lam + S*log(lam) + log(theta) - lam*theta ]

and is maximized by alternating the exact coordinate updates
``lam = S / (k + theta)`` and ``theta = P / sum(lam)``.  Both half-steps
are closed-form argmaxes, so the objective never decreases.

The theta iterate depends on the pairs only through the per-stratum sums
``T_d`` (total S over pairs with k = d), since
``sum(lam) = sum_d T_d / (d + theta)``.  ``em_aggregate`` therefore costs
O(distinct k) per iteration and forms lam over all pairs once, after the
loop.  ``track_objective`` evaluates the full objective every iteration,
which costs O(pairs) per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

_THETA_DIVERGED = 1e100


@dataclass(frozen=True)
class EmConfig:
    """Solver settings.

    tol is the relative change in theta between iterations.  seed=None
    starts from lam = S/k; an integer seeds random draws of both
    parameters as the starting point.  track_objective records the
    log-posterior after every iteration.
    """

    tol: float = 1e-10
    max_iter: int = 10000
    seed: int | None = None
    track_objective: bool = False

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


def _objective(k: np.ndarray, s: np.ndarray, lam: np.ndarray, theta: float, pair_count: int) -> float:
    if np.any((s > 0) & (lam <= 0)):
        raise DomainError("lambda must be positive wherever the weight sum is positive")
    positive = lam > 0
    slog = np.zeros_like(lam)
    slog[positive] = s[positive] * np.log(lam[positive])
    return float(
        -(k * lam).sum() + slog.sum() - theta * lam.sum() + pair_count * math.log(theta)
    )


def log_posterior(inp: AggregationInput, lam, theta: float) -> float:
    """Log-posterior (up to constants) of an estimate ``lam``, one value per
    pair of ``inp.codes`` (as ``AggregatedNetwork.values`` is).

    The sum runs over all ``pair_count`` pairs with the convention
    0*log(0) = 0; pairs never observed contribute log(theta) only.
    """
    if theta <= 0:
        raise DomainError("theta must be positive")
    lam = np.asarray(lam, dtype=float)
    if lam.shape != inp.codes.shape:
        raise ValueError(f"need one lambda per pair code, got {lam.shape} for {inp.codes.shape}")
    if np.any(lam < 0):
        raise DomainError("lambda must be non-negative")
    return _objective(inp.counts.astype(float), inp.sums, lam, theta, inp.pair_count)


def em_aggregate(inp: AggregationInput, cfg: EmConfig = EmConfig()) -> AggregatedNetwork:
    """Maximize the log-posterior by alternating the closed-form updates.

    Stops when the relative change in theta falls below ``cfg.tol``; the
    returned estimate satisfies theta * sum(lam) = P exactly and
    lam * (k + theta) = S to solver tolerance.  When the total observed
    weight does not exceed the pair count the prior rate diverges; the
    run is then cut off and flagged as not converged.

    Raises DegenerateAllZero when every weight sum is zero.
    """
    k, s = inp.counts.astype(float), inp.sums
    if not np.any(s > 0):
        raise DegenerateAllZero("every pair has zero observed weight")
    pair_count = inp.pair_count

    if cfg.seed is None:
        lam = s / k
        theta = pair_count / float(lam.sum())
    else:
        rng = np.random.default_rng(cfg.seed)
        lam = rng.exponential(1.0, size=s.size)
        theta = 10.0 ** rng.uniform(-3.0, 3.0)

    trace: list[float] | None = None
    if cfg.track_objective:
        trace = [_objective(k, s, lam, theta, pair_count)]

    # sum(lam) = sum_d T_d / (d + theta), so the theta update needs only the T_d
    stratum_sums = np.bincount(k.astype(np.intp), weights=s)
    levels = np.flatnonzero(stratum_sums)
    stratum_sums = stratum_sums[levels]

    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        theta_prev = theta
        theta = pair_count / float((stratum_sums / (levels + theta_prev)).sum())
        if trace is not None:
            trace.append(_objective(k, s, s / (k + theta_prev), theta, pair_count))
        if theta > _THETA_DIVERGED:
            break
        if abs(theta - theta_prev) <= cfg.tol * theta_prev:
            converged = True
            break

    # the last lam half-step over all pairs; theta from it keeps theta * sum(lam) = P
    lam = s / (k + theta_prev)
    theta = pair_count / float(lam.sum())

    objective = _objective(k, s, lam, theta, pair_count)
    trace = tuple(trace) if trace is not None else None
    return AggregatedNetwork(
        inp.universe, inp.codes, lam, theta, iterations, converged, objective, trace
    )


def theta_fixed_point_oracle(inp: AggregationInput) -> float:
    """Solve the scalar fixed-point equation for theta by bisection.

    At the optimum theta satisfies theta * sum(S / (k + theta)) = P, a
    strictly increasing function of theta, so a bracketed root is unique.
    Independent of the alternating solver; used to cross-check it.

    Raises BracketingFailure when no sign change exists (all-zero weights,
    or total weight not exceeding the pair count).
    """
    k, s = inp.counts.astype(float), inp.sums
    pair_count = inp.pair_count

    def g(theta: float) -> float:
        return theta * float((s / (k + theta)).sum()) - pair_count

    hi = 1.0
    while g(hi) <= 0:
        hi *= 2.0
        if hi > 1e16:
            raise BracketingFailure(
                "no finite prior rate: total observed weight does not exceed the pair count"
            )
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-15 * hi:
            break
    return 0.5 * (lo + hi)


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

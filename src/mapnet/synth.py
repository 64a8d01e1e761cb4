"""Synthetic ground truth under the model's own generative assumptions.

Per-pair rates are drawn i.i.d. from an exponential distribution, each
layer observes a pair with a fixed coverage probability, and observed
weights are Poisson draws around the pair's rate.  Recovering the rates
from the generated layers validates the estimator end to end.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .core import AggregatedNetwork, LayerGraph, MultilayerNetwork, NodeUniverse, Pair
from .core import pair_codes, pair_view
from .errors import DegenerateValues, UniverseMismatch
from .ingest import parse_layer_csv, serialize_layer_csv

_POISSON_INVERSION_MAX = 30.0


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground-truth rates (every pair's rate on the pair codes; ``lambda_star``
    is the read-only view keyed by pair) and the parameters that produced them."""

    rates: LayerGraph
    theta_star: float
    coverage: float
    seed: int

    @property
    def universe(self) -> NodeUniverse:
        return self.rates.universe

    @cached_property
    def lambda_star(self) -> Mapping[Pair, float]:
        return pair_view(self.rates.codes, self.rates.values, self.universe.size)


@dataclass(frozen=True)
class RecoveryMetrics:
    pearson_lambda: float
    mean_abs_err: float
    theta_rel_err: float

    def to_dict(self) -> dict:
        return asdict(self)


def _poisson_from_uniform(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson draws by CDF inversion: smallest k with u < F(k).

    Each step works only on the draws still below their uniform; they have
    all taken the same number of steps, so each one's count is that step.
    Only valid for moderate rates; callers route large rates to the
    normal approximation.
    """
    shape = lam.shape
    counts = np.zeros(lam.size, dtype=np.int64)
    index = np.arange(lam.size)
    lam, u = lam.ravel(), u.ravel()
    prob = np.exp(-lam)
    cdf = prob.copy()
    for step in range(1, 501):
        active = cdf <= u
        index = index[active]
        if not index.size:
            break
        lam = lam[active]
        u = u[active]
        prob = prob[active]
        cdf = cdf[active]
        counts[index] = step
        prob *= lam / step
        cdf += prob
    return counts.reshape(shape)


def _poisson(lam: np.ndarray, u: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Inversion below rate 30, rounded normal approximation above."""
    small = lam < _POISSON_INVERSION_MAX
    out = np.zeros(lam.shape, dtype=np.int64)
    out[small] = _poisson_from_uniform(lam[small], u[small])
    large = ~small
    if large.any():
        approx = np.rint(lam[large] + np.sqrt(lam[large]) * z[large])
        out[large] = np.maximum(approx, 0.0).astype(np.int64)
    return out


def generate_synthetic(
    n: int,
    d: int,
    theta_star: float = 1.0,
    coverage: float = 1.0,
    seed: int = 0,
) -> tuple[MultilayerNetwork, SyntheticTruth]:
    """Draw a multilayer network from the generative model.

    Reproducible from the seed: a PCG64 generator supplies, in order,
    one uniform per pair (inverted to the exponential rate), then per
    layer-pair cell one coverage uniform, one Poisson uniform, and one
    standard normal for the large-rate fallback.

    Zero-weight observations are kept in the measurable sets, so the
    derived observation counts see them as evidence.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 nodes and d >= 1 layers")
    if not (0.0 < coverage <= 1.0):
        raise ValueError("coverage must be in (0, 1]")
    if theta_star <= 0:
        raise ValueError("theta_star must be positive")

    width = len(str(n - 1))
    universe = NodeUniverse(tuple(f"n{i:0{width}d}" for i in range(n)))
    codes = pair_codes(*np.triu_indices(n, 1), n)  # all pairs, sorted
    m = codes.size

    rng = np.random.default_rng(seed)
    lam_star = -np.log1p(-rng.random(m)) / theta_star
    measured = rng.random((d, m)) < coverage
    u_pois = rng.random((d, m))
    z_norm = rng.standard_normal((d, m))

    lam_grid = np.broadcast_to(lam_star, (d, m))
    xi = _poisson(np.ascontiguousarray(lam_grid), u_pois, z_norm)

    layers = []
    for alpha in range(d):
        idx = np.nonzero(measured[alpha])[0]
        layers.append(LayerGraph.from_codes(universe, codes[idx], xi[alpha, idx]))
    name_width = len(str(d))
    names = tuple(f"layer{alpha + 1:0{name_width}d}" for alpha in range(d))
    net = MultilayerNetwork(universe, tuple(layers), names)

    truth = SyntheticTruth(
        rates=LayerGraph.from_codes(universe, codes, lam_star),
        theta_star=theta_star,
        coverage=coverage,
        seed=seed,
    )
    return net, truth


def recovery_metrics(est: AggregatedNetwork, truth: SyntheticTruth) -> RecoveryMetrics:
    """Score an estimate against ground truth over the observed pairs."""
    if est.universe != truth.universe:
        raise UniverseMismatch("estimate and truth use different universes")
    if est.codes.size < 2:
        raise DegenerateValues("need at least two observed pairs")
    if not np.isin(est.codes, truth.rates.codes).all():
        raise UniverseMismatch("estimate has pairs without a true rate")
    est_vals = est.values
    true_vals = truth.rates.values[np.searchsorted(truth.rates.codes, est.codes)]
    pearson = float(np.corrcoef(est_vals, true_vals)[0, 1])
    mean_abs_err = float(np.abs(est_vals - true_vals).mean())
    theta_rel_err = abs(est.theta - truth.theta_star) / truth.theta_star
    return RecoveryMetrics(pearson, mean_abs_err, theta_rel_err)


def truth_to_csv(truth: SyntheticTruth) -> str:
    """Rate table as ``node_u,node_v,lambda_star`` rows (all pairs)."""
    return serialize_layer_csv(truth.rates, "lambda_star")


def truth_meta(truth: SyntheticTruth) -> dict:
    return {"theta_star": truth.theta_star, "seed": truth.seed, "coverage": truth.coverage}


def truth_from_csv(text: str, meta: dict) -> SyntheticTruth:
    """Inverse of truth_to_csv + truth_meta; rates are read like layer weights."""
    return SyntheticTruth(
        rates=parse_layer_csv(text),
        theta_star=float(meta["theta_star"]),
        coverage=float(meta["coverage"]),
        seed=int(meta["seed"]),
    )

"""Synthetic ground truth under the model's own generative assumptions.

Per-pair rates are drawn i.i.d. from an exponential distribution, each
layer observes a pair with a fixed coverage probability, and observed
weights are Poisson draws around the pair's rate.  Recovering the rates
from the generated layers validates the estimator end to end.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from .core import AggregatedNetwork, LayerGraph, MultilayerNetwork, NodeUniverse, pair_codes
from .errors import DegenerateValues, UniverseMismatch
from .ingest import _sidecar_value, parse_layer_csv, serialize_layer_csv

_POISSON_INVERSION_MAX = 30.0


@dataclass(frozen=True)
class SyntheticTruth:
    """Ground-truth rates (every pair's rate on the pair codes) and the
    parameters that produced them."""

    rates: LayerGraph
    theta_star: float
    coverage: float
    seed: int

    @property
    def universe(self) -> NodeUniverse:
        return self.rates.universe


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


def _rounded_normal(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Poisson draws for rates of 30 and above: the normal approximation
    lam + sqrt(lam)·z, rounded and clipped at zero."""
    return np.maximum(np.rint(lam + np.sqrt(lam) * z), 0.0).astype(np.int64)


def _synthetic_layers(
    n: int,
    d: int,
    theta_star: float = 1.0,
    coverage: float = 1.0,
    seed: int = 0,
) -> tuple[SyntheticTruth, tuple[str, ...], Iterator[LayerGraph]]:
    """The truth and layer names of ``generate_synthetic``, and an iterator
    that draws its layers one at a time.

    The arguments are checked and the rates drawn before this returns; each
    layer is drawn when the iterator reaches it, so a caller that writes
    and drops each layer holds one at a time.
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
    codes.flags.writeable = lam_star.flags.writeable = False
    truth = SyntheticTruth(LayerGraph(universe, codes, lam_star), theta_star, coverage, seed)
    name_width = len(str(d))
    names = tuple(f"layer{alpha + 1:0{name_width}d}" for alpha in range(d))

    # The stream after the rates holds d rows of m coverage uniforms, then d
    # rows of Poisson uniforms, then d rows of normals.  random() takes one
    # 64-bit output per double, so the Poisson and normal blocks start d·m
    # and 2·d·m outputs on; rng reads the coverage rows, and each layer
    # reads its own row of each block.
    poisson, normal = (np.random.Generator(copy.deepcopy(rng.bit_generator).advance(block * d * m))
                       for block in (1, 2))
    large = lam_star >= _POISSON_INVERSION_MAX
    any_large = large.any()

    def layer() -> LayerGraph:  # the next layer; its draws end with the call
        idx = np.flatnonzero(rng.random(m) < coverage)
        u = poisson.random(m)[idx]
        lam, big = lam_star[idx], large[idx]
        xi = np.zeros(idx.size)
        xi[~big] = _poisson_from_uniform(lam[~big], u[~big])
        if any_large:
            xi[big] = _rounded_normal(lam[big], normal.standard_normal(m)[idx][big])
        observed = codes[idx]
        observed.flags.writeable = xi.flags.writeable = False
        return LayerGraph(universe, observed, xi)

    return truth, names, (layer() for _ in range(d))


def generate_synthetic(
    n: int,
    d: int,
    theta_star: float = 1.0,
    coverage: float = 1.0,
    seed: int = 0,
) -> tuple[MultilayerNetwork, SyntheticTruth]:
    """Draw a multilayer network from the generative model.

    Reproducible from the seed: a PCG64 generator supplies, in order, one
    uniform per pair (inverted to the exponential rate), then one coverage
    uniform per layer-pair cell, then one Poisson uniform per cell, then,
    when some rate is 30 or above, one standard normal per cell for the
    large-rate fallback; each block is drawn layer by layer.

    Zero-weight observations are kept in the measurable sets, so the
    derived observation counts see them as evidence.
    """
    truth, names, layers = _synthetic_layers(n, d, theta_star, coverage, seed)
    return MultilayerNetwork(truth.universe, tuple(layers), names), truth


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
    """Inverse of truth_to_csv + truth_meta; rates are read like layer weights.
    ParseError names a sidecar field that is missing or not a finite number."""
    return SyntheticTruth(
        rates=parse_layer_csv(text),
        theta_star=_sidecar_value(meta, "theta_star"),
        coverage=_sidecar_value(meta, "coverage"),
        seed=_sidecar_value(meta, "seed", int),
    )

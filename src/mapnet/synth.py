"""Synthetic ground truth under the model's own generative assumptions.

Per-pair rates are drawn i.i.d. from an exponential distribution, each
layer observes a pair with a fixed coverage probability, and observed
weights are Poisson draws around the pair's rate.  The truth is a layer of
those rates over every pair, like the estimate that recovers them, which
validates the estimator end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from .core import AggregatedNetwork, LayerGraph, MultilayerNetwork, NodeUniverse, pair_codes
from .errors import DegenerateValues, UniverseMismatch
from .ingest import layer_csv_chunks, parse_result_csv

_POISSON_INVERSION_MAX = 30.0


@dataclass(frozen=True, eq=False)
class SyntheticTruth(LayerGraph):
    """Ground truth: a layer of every pair's rate, and the parameters that
    produced them."""

    # the JSON sidecar's fields, kinds and ranges; see ingest.parse_result_csv
    SIDECAR: ClassVar = (("theta_star", float, (0, math.inf)), ("coverage", float, (0, 1)),
                         ("seed", int, None))

    theta_star: float
    coverage: float
    seed: int


@dataclass(frozen=True)
class RecoveryMetrics:
    pearson_lambda: float
    mean_abs_err: float
    theta_rel_err: float


def _poisson_from_uniform(lam: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Poisson draws by CDF inversion: smallest k with u < F(k), at most 500.

    One loop over the whole grid: each step counts every draw still at or
    below its uniform and adds the next term to every CDF.  A CDF only rises,
    so a draw once past its uniform stays past.  Only valid for moderate
    rates; callers route large rates to the normal approximation.
    """
    counts = np.zeros(lam.shape, dtype=np.int64)
    prob = np.exp(-lam)
    cdf = prob.copy()
    for step in range(1, 501):
        active = cdf <= u
        if not active.any():
            break
        counts += active
        prob *= lam / step
        cdf += prob
    return counts


def _rounded_normal(lam: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Poisson draws for rates of 30 and above: the normal approximation
    lam + sqrt(lam)·z, rounded and clipped at zero."""
    return np.maximum(np.rint(lam + np.sqrt(lam) * z), 0.0)


def synthetic_layers(
    n: int,
    d: int,
    theta_star: float = 1.0,
    coverage: float = 1.0,
    seed: int = 0,
) -> tuple[SyntheticTruth, tuple[str, ...], Iterator[LayerGraph]]:
    """The truth, the layer names and an iterator that draws the layers one at
    a time; ``generate_synthetic`` adds only gathering them into one network.

    The arguments are checked and the rates drawn before this returns; each
    layer is drawn when the iterator reaches it, so a caller that writes and
    drops each layer (``mapnet synth gen``) holds one at a time.
    """
    if n < 2 or d < 1:
        raise ValueError("need n >= 2 nodes and d >= 1 layers")
    if not (0.0 < coverage <= 1.0):
        raise ValueError("coverage must be in (0, 1]")
    if not 0 < theta_star < math.inf:
        raise ValueError("theta_star must be positive and finite")

    width = len(str(n - 1))
    universe = NodeUniverse(tuple(f"n{i:0{width}d}" for i in range(n)))
    codes = pair_codes(*np.triu_indices(n, 1), n)  # all pairs, sorted
    m = codes.size

    rng = np.random.default_rng(seed)
    lam_star = -np.log1p(-rng.random(m)) / theta_star
    codes.flags.writeable = lam_star.flags.writeable = False
    truth = SyntheticTruth(universe, codes, lam_star, theta_star, coverage, seed)
    name_width = len(str(d))
    names = tuple(f"layer{alpha + 1:0{name_width}d}" for alpha in range(d))

    # The stream of PCG64(seed) holds m rate uniforms, then d rows of m
    # coverage uniforms, then d rows of Poisson uniforms, then d rows of
    # normals.  random() takes one 64-bit output per double, so the Poisson
    # and normal blocks start m + d·m and m + 2·d·m outputs on; rng reads the
    # coverage rows, and each layer reads its own row of each block.
    poisson, normal = (np.random.Generator(np.random.PCG64(seed).advance(m + block * d * m))
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
    truth, names, layers = synthetic_layers(n, d, theta_star, coverage, seed)
    return MultilayerNetwork(truth.universe, tuple(layers), names), truth


def recovery_metrics(est: AggregatedNetwork, truth: SyntheticTruth) -> RecoveryMetrics:
    """Score an estimate against ground truth over the observed pairs."""
    if est.universe != truth.universe:
        raise UniverseMismatch("estimate and truth use different universes")
    if est.codes.size < 2:
        raise DegenerateValues("need at least two observed pairs")
    if not np.isin(est.codes, truth.codes).all():
        raise UniverseMismatch("estimate has pairs without a true rate")
    est_vals = est.values
    true_vals = truth.values[np.searchsorted(truth.codes, est.codes)]
    constant = est_vals.min() == est_vals.max() or true_vals.min() == true_vals.max()
    pearson = np.nan if constant else float(np.corrcoef(est_vals, true_vals)[0, 1])
    mean_abs_err = float(np.abs(est_vals - true_vals).mean())
    theta_rel_err = abs(est.theta - truth.theta_star) / truth.theta_star
    return RecoveryMetrics(pearson, mean_abs_err, theta_rel_err)


def truth_to_csv(truth: SyntheticTruth) -> str:
    """Rate table as ``node_u,node_v,lambda_star`` rows (all pairs)."""
    return "".join(layer_csv_chunks(truth, "lambda_star"))


def truth_from_csv(text: str, meta: dict) -> SyntheticTruth:
    """Inverse of truth_to_csv and ingest.sidecar; rates are read like layer
    weights, and ``SyntheticTruth.SIDECAR`` bounds the sidecar's fields."""
    return parse_result_csv(SyntheticTruth, text, meta)

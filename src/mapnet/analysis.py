"""Library entry points behind ``mapnet compare`` and ``mapnet experiment``:
the three-way comparison of the MAP estimate with both baselines, and how
the prior rate and fit quality respond to the number of layers."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cache
from itertools import combinations

import numpy as np

from .aggregate import EmConfig, aggregate_network
from .core import AggregatedNetwork, LayerGraph, pair_indices, sorted_distinct, stacked
from .correlation import CorrelationConfig, build_correlation_layer, layer_names
from .errors import BracketingFailure, NotConverged, UniverseMismatch
from .ingest import ExpressionDataset
from .metrics import NetworkReport, exponential_fit_r2, network_report, node_strengths, weight_cdf


@dataclass(frozen=True)
class SubsetResult:
    """One row of the subset-size experiment table."""

    size: int
    mean_theta: float
    mean_r2: float


@dataclass(frozen=True, eq=False)
class ComparisonBundle:
    """Plot data for the three-way network comparison.

    A scatter is the columns (i, j, aggregated weight, other weight) over
    the union of both networks' pairs, where i < j index the shared
    universe and each network's weights are divided by its own maximum (0
    where it lacks the pair).  Strength CDFs (``weight_cdf`` arrays) and
    reports are keyed by network name.
    """

    scatter_con: tuple[np.ndarray, ...]
    scatter_ave: tuple[np.ndarray, ...]
    strength_cdfs: dict[str, np.ndarray]
    reports: dict[str, NetworkReport]


def compare_networks(map_net: AggregatedNetwork, con_net: LayerGraph, ave_net: LayerGraph,
                     log_base: str = "natural") -> ComparisonBundle:
    """Scatter data, strength CDFs, and reports for the three networks."""
    if con_net.universe != map_net.universe or ave_net.universe != map_net.universe:
        raise UniverseMismatch("networks must share one universe")

    def scaled(layer: LayerGraph, codes: np.ndarray) -> np.ndarray:
        # codes is sorted and holds all of the layer's codes
        values = np.zeros(codes.size)
        values[np.isin(codes, layer.codes)] = layer.values
        top = layer.values.max(initial=0.0)
        return values / top if top > 0 else values

    def scatter(other: LayerGraph) -> tuple[np.ndarray, ...]:
        codes = sorted_distinct(np.concatenate([map_net.codes, other.codes]))
        i, j = pair_indices(codes, map_net.universe.size)
        return i, j, scaled(map_net, codes), scaled(other, codes)

    networks = {"map": map_net, "con": con_net, "ave": ave_net}
    return ComparisonBundle(
        scatter_con=scatter(con_net),
        scatter_ave=scatter(ave_net),
        strength_cdfs={name: weight_cdf(node_strengths(g)) for name, g in networks.items()},
        reports={name: network_report(g, log_base) for name, g in networks.items()},
    )


def run_subset_experiment(datasets: list[ExpressionDataset], subset_sizes: list[int], reps: int,
                          seed: int, cfg: CorrelationConfig = CorrelationConfig(),
                          em: EmConfig = EmConfig()) -> list[SubsetResult]:
    """Aggregate random dataset subsets and average theta and fit quality.

    For each size, ``reps`` distinct subsets are sampled without
    replacement (all of them when fewer exist, so the full-size row is a
    single deterministic combination).  The fit R-squared uses the
    positive aggregated weights against an exponential with the
    estimated rate; degenerate runs yield NaN.  A subset with no finite
    prior rate (total weight not above its pair count) gives inf and NaN.
    Each solve that runs out of iterations raises one NotConverged warning.
    A dataset's layer is built once, when a drawn subset first holds it.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    n = len(datasets)
    rng = np.random.default_rng(seed)
    layer = cache(lambda i: build_correlation_layer(datasets[i], cfg))
    results = []
    for size in subset_sizes:
        if not 1 <= size <= n:
            raise ValueError(f"subset size {size} out of range 1..{n}")
        if math.comb(n, size) <= reps:
            subsets = [tuple(c) for c in combinations(range(n), size)]
        else:
            subsets = []
            while len(subsets) < reps:
                pick = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                if pick not in subsets:
                    subsets.append(pick)
        thetas, r2s = [], []
        for subset in subsets:
            net = stacked([layer(i) for i in subset], layer_names([datasets[i] for i in subset]))
            try:
                agg = aggregate_network(net, em)
            except BracketingFailure:  # no finite prior rate
                thetas.append(math.inf)
                r2s.append(math.nan)
                continue
            if not agg.converged:
                names = [datasets[i].name for i in subset]
                warnings.warn(NotConverged(size, names, agg.iterations, agg.theta), stacklevel=2)
            thetas.append(agg.theta)
            positive = agg.values[agg.values > 0]
            fits = positive.size > 0 and positive.min() < positive.max()
            r2s.append(exponential_fit_r2(positive, agg.theta) if fits else float("nan"))
        results.append(SubsetResult(size, float(np.mean(thetas)), float(np.mean(r2s))))
    return results

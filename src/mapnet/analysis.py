"""Library entry points behind ``mapnet compare`` and ``mapnet experiment``:
the three-way comparison of the MAP estimate with both baselines, and how
the prior rate and fit quality respond to the number of layers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .aggregate import EmConfig, aggregate_network
from .core import AggregatedNetwork, LayerGraph, pair_indices
from .correlation import CorrelationConfig, build_correlation_network
from .errors import BracketingFailure, UniverseMismatch
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
    map_layer = map_net.to_layer()

    def scaled(layer: LayerGraph, codes: np.ndarray) -> np.ndarray:
        # codes is sorted and holds all of the layer's codes
        values = np.zeros(codes.size)
        values[np.isin(codes, layer.codes)] = layer.values
        top = layer.values.max(initial=0.0)
        return values / top if top > 0 else values

    def scatter(other: LayerGraph) -> tuple[np.ndarray, ...]:
        codes = np.union1d(map_layer.codes, other.codes)
        i, j = pair_indices(codes, map_net.universe.size)
        return i, j, scaled(map_layer, codes), scaled(other, codes)

    networks = {"map": map_layer, "con": con_net, "ave": ave_net}
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
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    n = len(datasets)
    rng = np.random.default_rng(seed)
    results = []
    for size in subset_sizes:
        if not 1 <= size <= n:
            raise ValueError(f"subset size {size} out of range 1..{n}")
        if math.comb(n, size) <= reps:
            subsets = [tuple(c) for c in combinations(range(n), size)]
        else:
            subsets = []
            seen = set()
            while len(subsets) < reps:
                pick = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                if pick not in seen:
                    seen.add(pick)
                    subsets.append(pick)
        thetas, r2s = [], []
        for subset in subsets:
            net = build_correlation_network([datasets[i] for i in subset], cfg)
            try:
                agg = aggregate_network(net, em)
            except BracketingFailure:  # no finite prior rate
                thetas.append(math.inf)
                r2s.append(math.nan)
                continue
            thetas.append(agg.theta)
            positive = agg.values[agg.values > 0]
            fits = np.unique(positive).size >= 2
            r2s.append(exponential_fit_r2(positive, agg.theta) if fits else float("nan"))
        results.append(SubsetResult(size, float(np.mean(thetas)), float(np.mean(r2s))))
    return results

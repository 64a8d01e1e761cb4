"""Reference single-layer constructions to compare the MAP estimate against.

ConNet correlates the conflated, per-condition z-scored datasets as one big
matrix; AveNet averages each pair's weights across the layers that measured
it.  Both keep raw scales: ConNet weights are clamped correlations in
[0, 1], AveNet weights live on the layers' weight scale.
"""

from __future__ import annotations

from dataclasses import replace

from .core import LayerGraph, MultilayerNetwork, observation_summaries
from .correlation import CorrelationConfig, build_correlation_layer, conflate, zscore_normalize
from .ingest import ExpressionDataset


def build_connet(datasets: list[ExpressionDataset], cfg: CorrelationConfig) -> LayerGraph:
    """Correlation layer of the conflated, z-scored datasets.

    Each dataset's conditions are z-scored before conflation, and the
    correlation is taken over the combined condition set, so gene pairs
    with too few shared conditions in any single dataset can still become
    measurable here.  Quantization is skipped: the layer carries raw
    clamped coefficients.
    """
    normalized = [zscore_normalize(ds) for ds in datasets]
    combined = conflate(normalized)
    layer_cfg = replace(cfg, quantize_levels=None, zscore=False)
    return build_correlation_layer(combined, layer_cfg)


def build_avenet(net: MultilayerNetwork, denominator: str = "measurable_layers") -> LayerGraph:
    """Per-pair average of layer weights.

    The default divides by the number of layers that measured the pair
    (zero observations included); "all_layers" divides by the layer count
    D, conflating missingness with low weight.
    """
    if denominator not in ("measurable_layers", "all_layers"):
        raise ValueError(f"unknown denominator {denominator!r}")
    summaries = observation_summaries(net, count_mode="measurable")
    counts = summaries.counts if denominator == "measurable_layers" else net.depth
    return LayerGraph(net.universe, summaries.codes, summaries.sums / counts)

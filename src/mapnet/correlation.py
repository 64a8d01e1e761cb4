"""Correlation layers from expression data.

Edge weights are pairwise-complete Pearson correlations: for each gene
pair only the conditions where both genes have values enter the formula,
and pairs with too few shared observations, or with a constant paired
sub-vector, stay unmeasured.  Negative coefficients are clamped to zero
and weights are optionally quantized to integer levels, mirroring how
co-expression layers are usually built before aggregation.

A layer is computed for all pairs at once from masked Gram products.
Each gene is first scaled by an exact power of two to a largest |value|
in [0.5, 1), which leaves r unchanged and keeps the products of data near
1e-78 or 1e150 from underflowing or overflowing.  With M the
present-value mask and X0 the scaled data centred per gene over its
present values (missing set to 0), M·Mᵀ gives each pair's shared count,
X0·Mᵀ and X0²·Mᵀ each gene's sums over the shared conditions, and
X0·X0ᵀ the cross sums.  Centring first removes most of the cancellation
in the paired variances.  Pairs where the result could still differ from
the exact per-pair formula (``_pearson_masked``) are recomputed with it:
a paired variance that cancellation leaves imprecise or zero, a
non-finite r, an r within 1e-9 of the clamp at zero, or a quantized
level within 1e-9 of a .5 rounding boundary.  So quantized layers equal
the per-pair ones, and raw coefficients agree with them to within a few
units in the last place.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .core import LayerGraph, MultilayerNetwork, NodeUniverse, pair_codes, remap_codes, union_nodes
from .errors import DegenerateConditionWarning, LengthMismatch
from .ingest import ExpressionDataset


@dataclass(frozen=True)
class CorrelationConfig:
    """Knobs for building one correlation layer.

    Negative coefficients are always clamped to zero.  quantize_levels=None
    keeps raw clamped coefficients; zscore applies per-condition
    normalization before correlating.
    """

    min_pairs: int = 5
    quantize_levels: int | None = 10
    zscore: bool = False

    def __post_init__(self):
        if self.min_pairs < 2:
            raise ValueError("min_pairs must be at least 2")
        if self.quantize_levels is not None and self.quantize_levels < 1:
            raise ValueError("quantize_levels must be at least 1 when set")


def _round_half_away(x):
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


def _unit_scale(v: np.ndarray) -> np.ndarray:
    # An exact power-of-two scaling of each row to max |v| in [0.5, 1): r keeps its
    # bits, and sums of products of data near 1e-160 (or 1e160) no longer underflow
    # (overflow).
    return np.ldexp(v, -np.frexp(np.abs(v).max(axis=-1, keepdims=True))[1])


def _pearson_masked(x: np.ndarray, y: np.ndarray, min_pairs: int) -> float | None:
    both = ~(np.isnan(x) | np.isnan(y))
    if int(both.sum()) < min_pairs:
        return None
    xs = x[both]
    ys = y[both]
    # Test constancy exactly: a constant sub-vector whose mean does not
    # round exactly would leave tiny nonzero deviations below.
    if xs.min() == xs.max() or ys.min() == ys.max():
        return None
    dx = _unit_scale(xs - xs.mean())
    dy = _unit_scale(ys - ys.mean())
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        return None
    r = float(dx @ dy) / math.sqrt(sxx * syy)
    return min(1.0, max(-1.0, r))


def pearson_pairwise_complete(x, y, min_pairs: int = 5) -> float | None:
    """Pearson correlation over positions where both series have values.

    Missing entries may be None or NaN.  Returns None (not zero) when
    fewer than ``min_pairs`` positions are shared or when either paired
    sub-vector has zero variance.
    """
    xa = np.asarray([np.nan if v is None else v for v in x], dtype=float)
    ya = np.asarray([np.nan if v is None else v for v in y], dtype=float)
    if xa.shape != ya.shape:
        raise LengthMismatch(f"sequences differ in length: {len(xa)} vs {len(ya)}")
    return _pearson_masked(xa, ya, min_pairs)


def zscore_normalize(ds: ExpressionDataset) -> ExpressionDataset:
    """Z-score each condition over its present values (population sigma).

    Conditions with fewer than 2 present values or zero spread are left
    unchanged and reported through a DegenerateConditionWarning.
    """
    values = np.array(ds.values)
    degenerate = []
    for c in range(ds.n_conditions):
        col = values[:, c]
        present = ~np.isnan(col)
        if int(present.sum()) < 2:
            degenerate.append(ds.conditions[c])
            continue
        mean = col[present].mean()
        sigma = col[present].std()
        if sigma == 0.0:
            degenerate.append(ds.conditions[c])
            continue
        values[present, c] = (col[present] - mean) / sigma
    if degenerate:
        warnings.warn(DegenerateConditionWarning(degenerate), stacklevel=2)
    return ExpressionDataset(ds.genes, ds.conditions, values, name=ds.name)


# A paired variance below this fraction of the pair's sum of squares about
# the gene mean means the shared conditions' mean lies over three standard
# deviations from the gene mean, so the Gram form loses a digit or more to
# cancellation (a constant paired sub-vector loses all of them).  Above it
# the Gram r is within about 10·n·eps of the exact one.
_MIN_VARIANCE_FRACTION = 0.1
# Distance of r from the clamp at 0, and of q·w from a .5 rounding
# boundary, inside which the Gram rounding error could flip the outcome.
_BOUNDARY_SLACK = 1e-9


def _gram_pearson(data: np.ndarray, min_pairs: int, levels: int | None):
    """Pairwise-complete Pearson r for every gene pair with enough overlap.

    Returns row and column indices (a < b, row-major order) and r, with
    the pairs the per-pair formula leaves unmeasured removed.
    """
    present = ~np.isnan(data)
    scaled = _unit_scale(np.where(present, data, 0.0))
    mask = present.astype(float)
    count = mask.sum(axis=1)
    mean = scaled.sum(axis=1) / np.maximum(count, 1.0)
    x0 = np.where(present, scaled - mean[:, None], 0.0)

    shared = mask @ mask.T
    a, b = np.triu_indices(data.shape[0], 1)
    keep = shared[a, b] >= min_pairs
    a, b = a[keep], b[keep]
    n = shared[a, b]
    sx = x0 @ mask.T
    sxx = (x0 * x0) @ mask.T
    sx_a, sx_b = sx[a, b], sx[b, a]
    ss_a, ss_b = sxx[a, b], sxx[b, a]
    var_a = ss_a - sx_a * sx_a / n
    var_b = ss_b - sx_b * sx_b / n
    cov = (x0 @ x0.T)[a, b] - sx_a * sx_b / n
    with np.errstate(divide="ignore", invalid="ignore"):
        r = cov / np.sqrt(var_a * var_b)

    recheck = ~(
        (var_a > _MIN_VARIANCE_FRACTION * ss_a)
        & (var_b > _MIN_VARIANCE_FRACTION * ss_b)
        & np.isfinite(r)
        & (np.abs(r) >= _BOUNDARY_SLACK)
    )
    r = np.clip(r, -1.0, 1.0)
    if levels is not None:
        qr = np.abs(levels * r)
        recheck |= np.abs(qr - np.floor(qr) - 0.5) < _BOUNDARY_SLACK

    measured = np.ones(len(r), dtype=bool)
    for t in np.flatnonzero(recheck):
        exact = _pearson_masked(data[a[t]], data[b[t]], min_pairs)
        if exact is None:
            measured[t] = False
        else:
            r[t] = exact
    return a[measured], b[measured], r[measured]


def build_correlation_layer(
    ds: ExpressionDataset,
    cfg: CorrelationConfig,
    universe: NodeUniverse | None = None,
) -> LayerGraph:
    """Correlation layer over the dataset's gene pairs.

    A pair is measurable when its pairwise-complete correlation exists;
    its weight is the clamped (and optionally quantized) coefficient, so
    anti-correlated pairs are measured zeros rather than absent.  The
    optional ``universe`` places the layer in a larger shared node set.
    """
    if universe is None:
        universe = NodeUniverse(tuple(sorted(ds.genes)))
    data = ds.values if not cfg.zscore else zscore_normalize(ds).values
    a, b, w = _gram_pearson(data, cfg.min_pairs, cfg.quantize_levels)
    w = np.maximum(w, 0.0)
    if cfg.quantize_levels is not None:
        w = _round_half_away(cfg.quantize_levels * w)

    gene_index = np.array([universe.index(g) for g in ds.genes], dtype=np.int64)
    codes, order = remap_codes(pair_codes(a, b, ds.n_genes), ds.n_genes, gene_index, universe.size)
    # zero weights stay in the layer as measured zeros
    return LayerGraph(universe, codes, w[order])


def build_correlation_network(
    datasets: list[ExpressionDataset], cfg: CorrelationConfig
) -> MultilayerNetwork:
    """One correlation layer per dataset over the shared gene universe."""
    if not datasets:
        raise ValueError("need at least one dataset")
    universe = union_nodes(ds.genes for ds in datasets)
    layers = tuple(build_correlation_layer(ds, cfg, universe=universe) for ds in datasets)
    names = tuple(ds.name or f"ds{i + 1}" for i, ds in enumerate(datasets))
    return MultilayerNetwork(universe, layers, names)


def conflate(datasets: list[ExpressionDataset]) -> ExpressionDataset:
    """Concatenate datasets column-wise over the union of their genes.

    Condition labels are prefixed with the dataset name; a gene absent
    from a dataset gets missing values for all of its conditions.
    """
    if not datasets:
        raise ValueError("need at least one dataset")
    genes = union_nodes(ds.genes for ds in datasets).labels
    gene_row = {g: r for r, g in enumerate(genes)}
    conditions: list[str] = []
    blocks: list[np.ndarray] = []
    for idx, ds in enumerate(datasets):
        prefix = ds.name or f"ds{idx + 1}"
        conditions.extend(f"{prefix}:{c}" for c in ds.conditions)
        block = np.full((len(genes), ds.n_conditions), np.nan)
        rows = [gene_row[g] for g in ds.genes]
        block[rows, :] = ds.values
        blocks.append(block)
    if len(set(conditions)) != len(conditions):
        raise ValueError("conflated condition labels collide; give datasets distinct names")
    return ExpressionDataset(genes, tuple(conditions), np.hstack(blocks), name="conflated")

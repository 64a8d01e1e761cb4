"""Network evaluation: spectral entropy, summary statistics, CDFs, fit quality.

The Von Neumann entropy of a weighted graph is the Shannon entropy of the
Laplacian spectrum after normalizing the Laplacian by twice the total edge
weight, which makes its trace (and the eigenvalue sum) equal to one.  A
more "mixed" network spreads spectral mass over more directions and scores
higher.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LayerGraph, pair_indices
from .errors import DegenerateValues, DomainError, EmptyGraph

_EIG_CLIP = 1e-12


def _log_fn(log_base: str):
    if log_base == "natural":
        return np.log
    if log_base == "base2":
        return np.log2
    raise ValueError(f"unknown log_base {log_base!r}")


@dataclass(frozen=True)
class EntropySpectrum:
    """Eigenvalues of the unit-trace Laplacian and their entropy."""

    gammas: tuple[float, ...]
    entropy: float


@dataclass(frozen=True)
class NetworkReport:
    """Per-network metric bundle: strength statistics, clustering,
    eigenvector centrality, and Von Neumann entropy."""

    n_nodes: int
    strength_avg: float
    strength_min: float
    strength_max: float
    clustering_avg: float
    eigencentrality_mean: float
    entropy: float
    log_base: str


def adjacency_matrix(g: LayerGraph) -> np.ndarray:
    """Dense symmetric weighted adjacency over the full universe."""
    n = g.universe.size
    a = np.zeros((n, n))
    i, j = pair_indices(g.codes, n)
    a[i, j] = a[j, i] = g.values
    return a


def node_strengths(g: LayerGraph) -> np.ndarray:
    """Sum of incident edge weights per node, in universe order."""
    return adjacency_matrix(g).sum(axis=1)


def von_neumann_entropy(g: LayerGraph, log_base: str = "natural") -> EntropySpectrum:
    """Spectrum and entropy of the Laplacian scaled to unit trace.

    Eigenvalues below 1e-12 (numerical negatives included) are clipped to
    zero before the gamma*log(gamma) sum, with 0*log(0) = 0.  EmptyGraph
    when no edge has a positive weight, before ``log_base`` is checked.
    The weights are first scaled by a power of two to a maximum below 1,
    which is exact, so the sums of weights near the float range stay finite.
    """
    a = adjacency_matrix(g)
    a = np.ldexp(a, -np.frexp(a.max(initial=0.0))[1])
    total = a.sum() / 2.0
    if total <= 0:
        raise EmptyGraph("graph has no positive edge weight")
    log = _log_fn(log_base)
    lap = np.diag(a.sum(axis=1)) - a
    gammas = np.linalg.eigvalsh(lap / (2.0 * total))
    gammas = np.where(gammas < _EIG_CLIP, 0.0, gammas)
    positive = gammas > 0
    entropy = float(-(gammas[positive] * log(gammas[positive])).sum() + 0.0)  # -0.0 + 0.0 is 0.0
    return EntropySpectrum(tuple(float(x) for x in gammas), entropy)


def _weighted_clustering_avg(a: np.ndarray) -> float:
    # geometric-mean triangle intensity, weights scaled by the max (> 0: network_report checks
    # that in von_neumann_entropy first)
    cbrt = np.cbrt(a / a.max())
    triangles = ((cbrt @ cbrt) * cbrt).sum(axis=1)  # diag(C³), as C is symmetric
    degree = (a > 0).sum(axis=1)
    coeff = np.zeros(a.shape[0])
    multi = degree >= 2
    coeff[multi] = triangles[multi] / (degree[multi] * (degree[multi] - 1))
    return float(coeff.mean())


# Eigenvalues within this distance of the largest, relative to it, count as
# tied with it: eigh places each eigenvalue within a few ulps of the largest,
# so a true tie lands far inside the band, and a gap this narrow would take
# power iteration about 1e10 steps to resolve.
_TOP_RTOL = 1e-10


def _principal_eigenvector(a: np.ndarray) -> np.ndarray:
    """Unit-norm projection of the all-ones vector onto the top eigenspace.

    This is the limit of shifted power iteration from the uniform vector,
    so the sign, disconnected graphs and tied components follow from the
    rule rather than from the basis LAPACK returns: on components with
    different top eigenvalues the weaker ones get zeros, and tied
    components share the mass.
    """
    w, vecs = np.linalg.eigh(a)
    top = vecs[:, w >= (1.0 - _TOP_RTOL) * w[-1]]  # w[-1] >= 0, as the trace is 0
    v = top @ top.sum(axis=0)
    return v / np.linalg.norm(v)


def network_report(g: LayerGraph, log_base: str = "natural") -> NetworkReport:
    """Table of summary statistics for one weighted network.

    Clustering uses the geometric-mean triangle form with weights divided
    by the maximum weight; nodes of degree < 2 count as zero.  Eigenvector
    centrality is summarized by the mean entry of the unit-norm principal
    eigenvector.  The entropy is ``von_neumann_entropy``'s, computed first, so
    its matrices are freed before the report builds its own.  DomainError
    when a strength statistic overflows the float range.
    """
    entropy = von_neumann_entropy(g, log_base).entropy
    a = adjacency_matrix(g)
    with np.errstate(over="ignore"):  # an overflow is refused below, not warned of
        strengths = a.sum(axis=1)
        avg, low, high = strengths.mean(), strengths.min(), strengths.max()
    if not np.isfinite([avg, low, high]).all():
        raise DomainError("node strengths overflow the float range")
    centrality = _principal_eigenvector(a)
    return NetworkReport(
        n_nodes=g.universe.size,
        strength_avg=float(avg),
        strength_min=float(low),
        strength_max=float(high),
        clustering_avg=_weighted_clustering_avg(a),
        eigencentrality_mean=float(centrality.mean()),
        entropy=entropy,
        log_base=log_base,
    )


def weight_cdf(values) -> np.ndarray:
    """Empirical CDF as a float64 (M, 2) array of rows (value, fraction of
    samples <= value), one per distinct value, ascending."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("need at least one value")
    uniq, counts = np.unique(arr, return_counts=True)
    return np.column_stack((uniq, np.cumsum(counts) / arr.size))


def exponential_fit_r2(values, theta: float) -> float:
    """Coefficient of determination of an exponential CDF against the data.

    Residuals are empirical CDF minus 1 - exp(-theta * v) at the sorted
    distinct values; the total sum of squares is taken about the mean
    empirical CDF.  NaN counts as one distinct value, as np.unique counts it.
    """
    if theta <= 0:
        raise DomainError("theta must be positive")
    arr = np.asarray(values, dtype=float)
    cdf = weight_cdf(arr) if arr.size else []
    if len(cdf) < 2:
        raise DegenerateValues("need at least two distinct values")
    if arr.min() <= 0:
        raise DomainError("values must be positive")
    points, empirical = cdf.T
    model = 1.0 - np.exp(-theta * points)
    ss_res = float(((empirical - model) ** 2).sum())
    ss_tot = float(((empirical - empirical.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot

"""Network evaluation: spectral entropy, summary statistics, CDFs, fit quality.

The Von Neumann entropy of a weighted graph is the Shannon entropy of the
Laplacian spectrum after normalizing the Laplacian by twice the total edge
weight, which makes its trace (and the eigenvalue sum) equal to one.  A
more "mixed" network spreads spectral mass over more directions and scores
higher.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .core import LayerGraph, pair_indices
from .errors import DegenerateValues, DomainError, EmptyGraph, PowerIterationWarning

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

    def to_dict(self) -> dict:
        return asdict(self)


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
    zero before the gamma*log(gamma) sum, with 0*log(0) = 0.
    """
    return _entropy_spectrum(adjacency_matrix(g), log_base)


def _entropy_spectrum(a: np.ndarray, log_base: str) -> EntropySpectrum:
    """von_neumann_entropy of the graph with adjacency matrix ``a``."""
    log = _log_fn(log_base)
    total = a.sum() / 2.0
    if total <= 0:
        raise EmptyGraph("graph has no positive edge weight")
    lap = np.diag(a.sum(axis=1)) - a
    gammas = np.linalg.eigvalsh(lap / (2.0 * total))
    gammas = np.where(gammas < _EIG_CLIP, 0.0, gammas)
    positive = gammas > 0
    entropy = float(-(gammas[positive] * log(gammas[positive])).sum())
    return EntropySpectrum(tuple(float(x) for x in gammas), entropy)


def _weighted_clustering_avg(a: np.ndarray) -> float:
    # geometric-mean triangle intensity with weights scaled by the max
    max_w = a.max()
    if max_w <= 0:
        return 0.0
    cbrt = np.cbrt(a / max_w)
    triangles = ((cbrt @ cbrt) * cbrt).sum(axis=1)  # diag(C³), as C is symmetric
    degree = (a > 0).sum(axis=1)
    coeff = np.zeros(a.shape[0])
    multi = degree >= 2
    coeff[multi] = triangles[multi] / (degree[multi] * (degree[multi] - 1))
    return float(coeff.mean())


def _principal_eigenvector(a: np.ndarray, tol: float = 1e-10, max_iter: int = 100000) -> np.ndarray:
    """Power iteration for the Perron vector, L2-normalized.

    A positive diagonal shift keeps the dominant eigenvalue unique in
    magnitude (bipartite graphs otherwise oscillate).  It stops once the
    residual ‖Av − μv‖ falls to ``tol``·μ; after ``max_iter`` steps short of
    that it warns with a PowerIterationWarning and returns the last vector.
    """
    n = a.shape[0]
    shift = 1.0 + a.sum(axis=1).max()
    v = np.full(n, 1.0 / math.sqrt(n))
    residual = math.inf
    for _ in range(max_iter):
        w = a @ v + shift * v
        v = w / np.linalg.norm(w)
        mu = float(v @ a @ v)
        scale = max(mu, _EIG_CLIP)
        gap = np.linalg.norm(a @ v - mu * v)
        if gap <= tol * scale:
            return v
        residual = float(gap / scale)
    warnings.warn(PowerIterationWarning(max_iter, residual), stacklevel=3)
    return v


def network_report(g: LayerGraph, log_base: str = "natural") -> NetworkReport:
    """Table of summary statistics for one weighted network.

    Clustering uses the geometric-mean triangle form with weights divided
    by the maximum weight; nodes of degree < 2 count as zero.  Eigenvector
    centrality is summarized by the mean entry of the unit-norm principal
    eigenvector.
    """
    a = adjacency_matrix(g)
    if a.sum() <= 0:
        raise EmptyGraph("graph has no positive edge weight")
    strengths = a.sum(axis=1)
    centrality = _principal_eigenvector(a)
    return NetworkReport(
        n_nodes=g.universe.size,
        strength_avg=float(strengths.mean()),
        strength_min=float(strengths.min()),
        strength_max=float(strengths.max()),
        clustering_avg=_weighted_clustering_avg(a),
        eigencentrality_mean=float(centrality.mean()),
        entropy=_entropy_spectrum(a, log_base).entropy,
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


def _two_distinct(arr: np.ndarray) -> bool:
    """Whether ``arr`` holds two distinct values, NaN counting as one value as
    np.unique counts it; np.unique itself imports numpy.ma under numpy >= 2.3."""
    nan = np.isnan(arr)
    real = arr[~nan]
    kinds = int(nan.any()) + (real.size > 0) + (real.size > 0 and real.min() < real.max())
    return kinds >= 2


def exponential_fit_r2(values, theta: float) -> float:
    """Coefficient of determination of an exponential CDF against the data.

    Residuals are empirical CDF minus 1 - exp(-theta * v) at the sorted
    distinct values; the total sum of squares is taken about the mean
    empirical CDF.
    """
    if theta <= 0:
        raise DomainError("theta must be positive")
    arr = np.asarray(values, dtype=float)
    if not _two_distinct(arr):
        raise DegenerateValues("need at least two distinct values")
    if arr.min() <= 0:
        raise DomainError("values must be positive")
    points, empirical = weight_cdf(arr).T
    model = 1.0 - np.exp(-theta * points)
    ss_res = float(((empirical - model) ** 2).sum())
    ss_tot = float(((empirical - empirical.mean()) ** 2).sum())
    return 1.0 - ss_res / ss_tot

import math

import numpy as np
import pytest

from mapnet import AggregationInput, ExpressionDataset, LayerGraph, layer_csv_chunks
from mapnet.errors import BracketingFailure, DomainError


def make_expression_dataset(
    rng: np.random.Generator,
    genes: list[str],
    n_conditions: int,
    name: str,
    missing_rate: float = 0.05,
    n_factors: int = 2,
) -> ExpressionDataset:
    """Latent-factor expression matrix so that gene pairs correlate.

    Each gene loads on one latent factor per condition plus noise; a
    sprinkle of missing entries exercises the pairwise-complete paths.
    """
    n_genes = len(genes)
    loadings = rng.uniform(0.5, 1.5, size=n_genes)
    factor_of = rng.integers(0, n_factors, size=n_genes)
    factors = rng.normal(size=(n_factors, n_conditions))
    values = loadings[:, None] * factors[factor_of, :] + 0.4 * rng.normal(
        size=(n_genes, n_conditions)
    )
    if missing_rate > 0:
        mask = rng.random(size=values.shape) < missing_rate
        values = np.where(mask, np.nan, values)
    conditions = [f"c{i + 1:02d}" for i in range(n_conditions)]
    return ExpressionDataset(tuple(genes), tuple(conditions), values, name=name)


def make_expression_collection(
    seed: int,
    n_genes: int = 30,
    n_datasets: int = 8,
    presence: float = 0.65,
    missing: float = 0.5,
    n_conditions: int = 12,
) -> list[ExpressionDataset]:
    """Dataset collection in the sparse-measurement regime.

    Genes drop in and out of whole datasets (but appear in at least two),
    and heavy within-dataset missingness leaves many gene pairs below the
    shared-condition threshold in any single dataset while the conflated
    matrix still covers them.  Values mix three latent factors with a
    per-dataset common-mode component so conflation picks up systematic
    cross-dataset structure.
    """
    rng = np.random.default_rng(seed)
    pool = [f"g{i:02d}" for i in range(n_genes)]
    loadings = rng.uniform(0.5, 1.5, n_genes)
    factor_of = rng.integers(0, 3, n_genes)
    keep = rng.random((n_datasets, n_genes)) < presence
    for g in range(n_genes):
        have = keep[:, g].sum()
        if have < 2:
            extra = rng.choice(n_datasets, size=2 - have, replace=False)
            keep[extra, g] = True
    datasets = []
    for d in range(n_datasets):
        gidx = np.nonzero(keep[d])[0]
        genes = [pool[i] for i in gidx]
        factors = rng.normal(size=(3, n_conditions))
        batch = rng.normal(size=n_conditions)
        sensitivity = rng.normal(0.6, 0.5, size=n_genes)
        values = (
            loadings[gidx, None] * factors[factor_of[gidx], :]
            + sensitivity[gidx, None] * batch[None, :]
            + 0.5 * rng.normal(size=(len(gidx), n_conditions))
        )
        values[rng.random(values.shape) < missing] = np.nan
        conditions = tuple(f"c{j:02d}" for j in range(n_conditions))
        datasets.append(
            ExpressionDataset(tuple(genes), conditions, values, name=f"exp{d + 1}")
        )
    return datasets


def coded(universe, pairs) -> tuple[np.ndarray, np.ndarray]:
    """Sorted codes i·N + j of a ``{(i, j): value}`` mapping, and its values.

    Each pair is encoded as given, not reordered, so ``(0, 0)`` and ``(1, 0)``
    reach the constructors, which reject them.
    """
    n = universe.size
    codes = np.array([i * n + j for i, j in pairs], dtype=np.int64)
    values = np.array(list(pairs.values()), dtype=float)
    order = np.argsort(codes)
    return codes[order], values[order]


def pair_dict(obj, values=None) -> dict:
    """``{(i, j): value}`` of an object's pair codes and ``values``
    (``obj.values`` by default), in code order."""
    n = obj.universe.size
    values = obj.values if values is None else values
    return {divmod(code, n): value for code, value in zip(obj.codes.tolist(), values.tolist())}


def plain(layer) -> LayerGraph:
    """A plain LayerGraph of a layer's arrays, such as an estimate's or a
    truth's; equality is type-strict, so a subclass never equals a layer."""
    return LayerGraph(layer.universe, layer.codes, layer.values)


def label_pair(universe, u: str, v: str) -> tuple[int, int]:
    """Index pair ``(i, j)``, i < j, of two node labels."""
    i, j = universe.index(u), universe.index(v)
    return (i, j) if i < j else (j, i)


def layer_csv(layer, value_name: str = "weight") -> str:
    """The text ``layer_csv_chunks`` yields, joined."""
    return "".join(layer_csv_chunks(layer, value_name))


def expression_csv(ds: ExpressionDataset) -> str:
    """Serialize a dataset back to the expression CSV format."""
    lines = ["gene," + ",".join(ds.conditions)]
    for g, row in zip(ds.genes, ds.values):
        cells = ["" if np.isnan(v) else repr(float(v)) for v in row]
        lines.append(f"{g}," + ",".join(cells))
    return "\n".join(lines) + "\n"


def theta_fixed_point_oracle(inp: AggregationInput) -> float:
    """Solve the scalar fixed-point equation for theta by bisection.

    The root of (sum(S) - P) - sum(S * k / (k + theta)), which increases in
    theta, is evaluated pair by pair, independent of the solver's strata, to
    cross-check it.  Raises BracketingFailure when the total weight does not
    exceed the pair count (all-zero weights included): then no root exists.
    The margin sum(S) - P is summed exactly in integers, not by the
    solver's math.fsum.
    """
    k, s = inp.counts.astype(float), inp.sums
    ratios = [value.as_integer_ratio() for value in s.tolist()]
    scale = max((d for _, d in ratios), default=1)  # powers of 2, so each d divides it
    excess = sum(n * (scale // d) for n, d in ratios) - inp.pair_count * scale
    margin = excess / scale  # correctly rounded
    if excess <= 0:
        raise BracketingFailure("no finite prior rate: total observed weight "
                                "does not exceed the pair count")

    def g(theta: float) -> float:
        return margin - float((s * k / (k + theta)).sum())

    hi = 1.0
    while g(hi) <= 0:
        hi *= 2.0
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
    s = inp.sums
    if np.any((s > 0) & (lam <= 0)):
        raise DomainError("lambda must be positive wherever the weight sum is positive")
    positive = lam > 0
    slog = np.zeros_like(lam)
    slog[positive] = s[positive] * np.log(lam[positive])
    return float(
        -(inp.counts * lam).sum() + slog.sum() - theta * lam.sum() + inp.pair_count * math.log(theta)
    )


@pytest.fixture(scope="session")
def expression_collection() -> list[ExpressionDataset]:
    """Frozen collection where the aggregation-vs-baselines contrast shows."""
    return make_expression_collection(seed=2)


@pytest.fixture(scope="session")
def aarhus_style_text() -> str:
    """Dense 5-layer unweighted multiplex in edge-list form.

    Presence counts cover 0..5 across the 45 pairs of 10 nodes, with mean
    presence above 1 so the prior-rate fixed point exists; an edge with
    count c sits in layers 1..c.
    """
    nodes = [f"v{i}" for i in range(10)]
    lines = ["# five-layer friendship-style multiplex"]
    for i in range(10):
        for j in range(i + 1, 10):
            count = (i * 7 + j * 3) % 6
            for layer in range(1, count + 1):
                lines.append(f"L{layer} {nodes[i]} {nodes[j]}")
    return "\n".join(lines) + "\n"

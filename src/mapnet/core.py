"""Shared graph types and per-pair observation summaries.

A multilayer network is a list of sparse weighted layers over one shared
node universe.  Aggregation consumes per-pair summaries: how many layers
observed a pair (k) and the total weight those layers reported (S).

A node pair ``(i, j)``, ``i < j``, indexes the universe's labels and is
stored as the int64 code ``i·N + j``, so code order is tuple order.  Each
type keeps a sorted, unique code array beside its value arrays; the
tuple-keyed mappings (``weights``, ``measurable``, ``k``, ``s``, ``lam``)
remain as read-only views built on first use, and constructing from such
mappings is a thin adapter into the same arrays.  All types are
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import EmptyNetwork

Pair = tuple[int, int]


@dataclass(frozen=True)
class NodeUniverse:
    """Ordered set of unique node labels; index() maps labels to 0..N-1."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("node labels must be unique")
        object.__setattr__(self, "labels", tuple(self.labels))

    @cached_property
    def _index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def pair(self, u: str, v: str) -> Pair:
        """Index pair for two labels, ordered i < j."""
        i, j = self._index[u], self._index[v]
        if i == j:
            raise ValueError(f"self-loop on {u!r}")
        return (i, j) if i < j else (j, i)


def pair_codes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Codes i·N + j of the unordered index pairs {a, b} (a != b), with i < j."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def pair_indices(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays i, j of pair codes i·N + j."""
    return np.divmod(codes, max(n, 1))


def _decode(codes: np.ndarray, n: int) -> list[Pair]:
    i, j = pair_indices(codes, n)
    return list(zip(i.tolist(), j.tolist()))


def pair_view(codes: np.ndarray, values: np.ndarray, n: int) -> Mapping[Pair, float]:
    """Read-only ``{(i, j): value}`` mapping of values on pair codes, in code order."""
    return MappingProxyType(dict(zip(_decode(codes, n), values.tolist())))


def _encode(pairs: Iterable[Pair], n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted codes of index pairs (ValueError unless 0 <= i < j < N) and their sorting order."""
    ij = np.array(list(pairs), dtype=np.int64).reshape(-1, 2)
    bad = ~((0 <= ij[:, 0]) & (ij[:, 0] < ij[:, 1]) & (ij[:, 1] < n))
    if bad.any():
        raise ValueError(f"invalid pair {tuple(ij[bad][0].tolist())} for universe of size {n}")
    codes = pair_codes(ij[:, 0], ij[:, 1], n)
    order = np.argsort(codes)
    return codes[order], order


def _checked(universe: NodeUniverse, codes, values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only copies of pair codes and one value per code; ValueError unless the codes
    are sorted and unique with i < j < N each and the values are finite and non-negative."""
    codes = np.array(codes, dtype=np.int64)
    values = np.asarray(values, dtype=float) + 0.0  # a copy, and -0.0 becomes 0.0
    if codes.ndim != 1 or values.shape != codes.shape:
        raise ValueError(f"need one {what} per pair code, got shapes {values.shape}, {codes.shape}")
    i, j = pair_indices(codes, universe.size)  # j < N always; i >= N implies i > j
    if np.any(codes[1:] <= codes[:-1]) or np.any((codes < 0) | (i >= j)):
        raise ValueError(f"pair codes must be sorted, unique and have i < j < {universe.size}")
    if not np.all(np.isfinite(values) & (values >= 0)):
        raise ValueError(f"{what} must be finite and non-negative")
    codes.flags.writeable = values.flags.writeable = False
    return codes, values


def _build(cls, **fields):
    """Instance of a frozen array-backed dataclass from validated fields."""
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


def equal_fields(self, other) -> bool:
    """``__eq__`` for dataclasses with array fields: arrays are equal when their
    shapes and elements are, NaN matching NaN."""
    if type(other) is not type(self):
        return NotImplemented
    pairs = ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
    return all(
        np.array_equal(a, b, equal_nan=True) if isinstance(a, np.ndarray) else a == b
        for a, b in pairs
    )


def remap_codes(codes: np.ndarray, n: int, new_index: np.ndarray, m: int):
    """Recode pairs of an N-node universe into an M-node one through an injective node map.

    Returns the sorted new codes and the order that carries values along.
    """
    i, j = pair_indices(codes, n)
    new = pair_codes(new_index[i], new_index[j], m)
    order = np.argsort(new)
    return new[order], order


def _recoded(obj, universe: NodeUniverse, new_index: np.ndarray):
    codes, order = remap_codes(obj.codes, obj.universe.size, new_index, universe.size)
    rest = [getattr(obj, f.name) for f in fields(obj)[3:]]  # after universe, codes, values
    return type(obj).from_codes(universe, codes, obj.values[order], *rest)


def reindexed(obj, universe: NodeUniverse):
    """A LayerGraph or AggregatedNetwork recoded by label into a universe that holds
    all of its labels (KeyError on a missing one); other fields are kept."""
    index = [universe.index(label) for label in obj.universe.labels]
    return _recoded(obj, universe, np.array(index, dtype=np.int64))


@dataclass(frozen=True, init=False, eq=False)
class LayerGraph:
    """One weighted layer.

    ``codes`` lists every pair for which a weight was computable in this
    layer and ``values`` its weight, zeros included.  The views
    ``weights`` (the strictly positive weights) and ``measurable`` (every
    coded pair) are built on first use.  Constructing from a ``weights``
    mapping moves its zero entries into ``measurable``, so equal layers
    compare equal.
    """

    universe: NodeUniverse
    codes: np.ndarray
    values: np.ndarray

    def __init__(self, universe: NodeUniverse, weights: Mapping[Pair, float],
                 measurable: Iterable[Pair] = frozenset()):
        merged = {**dict.fromkeys(measurable, 0.0), **weights}
        codes, order = _encode(merged, universe.size)
        values = np.fromiter(merged.values(), float, len(merged))[order]
        self.__dict__.update(vars(self.from_codes(universe, codes, values)))

    @classmethod
    def from_codes(cls, universe: NodeUniverse, codes, values) -> LayerGraph:
        """Layer from sorted, unique pair codes and their weights (validated)."""
        codes, values = _checked(universe, codes, values, "weight")
        return _build(cls, universe=universe, codes=codes, values=values)

    __eq__ = equal_fields

    @cached_property
    def weights(self) -> Mapping[Pair, float]:
        positive = self.values > 0
        return pair_view(self.codes[positive], self.values[positive], self.universe.size)

    @cached_property
    def measurable(self) -> frozenset[Pair]:
        return frozenset(_decode(self.codes, self.universe.size))

    def weight(self, pair: Pair) -> float:
        """Observed weight, 0.0 for measurable-but-zero pairs."""
        return self.weights.get(pair, 0.0)


@dataclass(frozen=True)
class MultilayerNetwork:
    """D layers over one shared universe; layers may measure different pairs."""

    universe: NodeUniverse
    layers: tuple[LayerGraph, ...]
    layer_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        object.__setattr__(self, "layer_names", tuple(self.layer_names))
        if len(self.layers) < 1:
            raise ValueError("a multilayer network needs at least one layer")
        if len(self.layer_names) != len(self.layers):
            raise ValueError("layer_names and layers differ in length")
        for layer in self.layers:
            if layer.universe != self.universe:
                raise ValueError("all layers must share the network universe")

    @property
    def depth(self) -> int:
        """Number of layers D."""
        return len(self.layers)


@dataclass(frozen=True, init=False, eq=False)
class AggregationInput:
    """Per-pair observation counts k and weight sums S, plus the pair count P.

    ``counts`` (int64) and ``sums`` align with the sorted pair ``codes``;
    every stored pair was observed at least once.  ``k`` and ``s`` are
    read-only views keyed by pair.  ``pair_count`` is the denominator
    convention used by the prior-rate update (number of unordered pairs
    by default).
    """

    universe: NodeUniverse
    codes: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    pair_count: int

    def __init__(self, universe: NodeUniverse, k: Mapping[Pair, int], s: Mapping[Pair, float],
                 pair_count: int):
        if k.keys() != s.keys():
            raise ValueError("k and s must cover the same pairs")
        codes, order = _encode(k, universe.size)
        counts = np.fromiter(k.values(), float, len(k))[order]
        sums = np.fromiter((s[pair] for pair in k), float, len(k))[order]
        self.__dict__.update(vars(self.from_codes(universe, codes, counts, sums, pair_count)))

    @classmethod
    def from_codes(cls, universe: NodeUniverse, codes, counts, sums, pair_count: int):
        """Summaries on sorted, unique pair codes (validated)."""
        if pair_count < 1:
            raise ValueError("pair_count must be positive")
        codes, sums = _checked(universe, codes, sums, "weight sum")
        counts = np.asarray(counts, dtype=float)
        whole = np.isfinite(counts) & (counts >= 1) & (counts == np.floor(counts))
        if counts.shape != codes.shape or not whole.all():
            raise ValueError("every stored pair needs an integer count k >= 1")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False
        return _build(cls, universe=universe, codes=codes, counts=counts, sums=sums,
                      pair_count=pair_count)

    __eq__ = equal_fields

    @cached_property
    def k(self) -> Mapping[Pair, int]:
        return pair_view(self.codes, self.counts, self.universe.size)

    @cached_property
    def s(self) -> Mapping[Pair, float]:
        return pair_view(self.codes, self.sums, self.universe.size)


@dataclass(frozen=True, init=False, eq=False)
class AggregatedNetwork:
    """MAP estimate of the single-layer network.

    ``values`` holds the estimated weight of every observed pair (k >= 1)
    in ``codes``, zeros included; unobserved pairs are absent and
    implicitly zero.  ``lam`` is the read-only view keyed by pair.
    ``objective_trace`` holds the per-iteration log-posterior when the
    solver was asked to record it.
    """

    universe: NodeUniverse
    codes: np.ndarray
    values: np.ndarray
    theta: float
    iterations: int
    converged: bool
    final_objective: float
    objective_trace: tuple[float, ...] | None = None

    def __init__(self, universe: NodeUniverse, lam: Mapping[Pair, float], theta: float,
                 iterations: int, converged: bool, final_objective: float,
                 objective_trace: tuple[float, ...] | None = None):
        self.__dict__.update(vars(LayerGraph(universe, lam)), theta=theta, iterations=iterations,
                             converged=converged, final_objective=final_objective,
                             objective_trace=objective_trace)

    @classmethod
    def from_codes(cls, universe: NodeUniverse, codes, values, theta: float, iterations: int,
                   converged: bool, final_objective: float,
                   objective_trace: tuple[float, ...] | None = None) -> AggregatedNetwork:
        """Estimate on sorted, unique pair codes (validated)."""
        codes, values = _checked(universe, codes, values, "lambda")
        return _build(cls, universe=universe, codes=codes, values=values, theta=theta,
                      iterations=iterations, converged=converged,
                      final_objective=final_objective, objective_trace=objective_trace)

    __eq__ = equal_fields

    @cached_property
    def lam(self) -> Mapping[Pair, float]:
        return pair_view(self.codes, self.values, self.universe.size)

    def to_layer(self) -> LayerGraph:
        """View the estimate as a plain layer (for metrics and export)."""
        return LayerGraph.from_codes(self.universe, self.codes, self.values)


def union_nodes(layer_node_lists: Iterable[Sequence[str]]) -> NodeUniverse:
    """Sorted union of per-layer label sequences.

    Ordering is lexicographic so that indices are deterministic across runs.
    """
    seen: set[str] = set()
    for labels in layer_node_lists:
        if len(set(labels)) != len(labels):
            raise ValueError("layer node list contains duplicate labels")
        seen.update(labels)
    return NodeUniverse(tuple(sorted(seen)))


def prior_pair_count(n: int, pair_count_mode: str) -> int:
    """Pair count P for N nodes: N(N-1)/2 ("unordered") or N^2 ("paper_n_squared")."""
    if pair_count_mode == "unordered":
        return n * (n - 1) // 2
    if pair_count_mode == "paper_n_squared":
        return n * n
    raise ValueError(f"unknown pair_count_mode {pair_count_mode!r}")


def observation_summaries(
    net: MultilayerNetwork,
    count_mode: str = "measurable",
    pair_count_mode: str = "unordered",
) -> AggregationInput:
    """Derive per-pair observation counts and weight sums from a network.

    S adds each pair's weights in layer order, as a loop over the layers would.

    Parameters
    ----------
    net : MultilayerNetwork
    count_mode : {"measurable", "nonzero_only"}
        "measurable" counts every layer in which the pair was measured,
        so zero-weight observations carry evidence; "nonzero_only" counts
        only layers with a positive weight.
    pair_count_mode : {"unordered", "paper_n_squared"}
        Denominator convention for the prior-rate update: the number of
        unordered pairs N(N-1)/2, or N squared.

    Raises
    ------
    EmptyNetwork
        If no pair is counted in any layer.
    """
    if count_mode not in ("measurable", "nonzero_only"):
        raise ValueError(f"unknown count_mode {count_mode!r}")
    pair_count = prior_pair_count(net.universe.size, pair_count_mode)

    codes = np.concatenate([layer.codes for layer in net.layers])
    values = np.concatenate([layer.values for layer in net.layers])
    if count_mode == "nonzero_only":
        codes, values = codes[values > 0], values[values > 0]
    if codes.size == 0:
        raise EmptyNetwork("no pair is observed in any layer")
    pairs, slot = np.unique(codes, return_inverse=True)
    k = np.bincount(slot, minlength=pairs.size)
    s = np.bincount(slot, weights=values, minlength=pairs.size)
    return AggregationInput.from_codes(net.universe, pairs, k, s, pair_count)


def relabel(net: MultilayerNetwork, mapping: Mapping[str, str]) -> MultilayerNetwork:
    """Rename nodes; indices follow the new lexicographic order."""
    new_labels = tuple(mapping[label] for label in net.universe.labels)
    if len(set(new_labels)) != len(new_labels):
        raise ValueError("relabeling must be a bijection")
    universe = NodeUniverse(tuple(sorted(new_labels)))
    old_to_new = np.array([universe.index(label) for label in new_labels], dtype=np.int64)
    layers = tuple(_recoded(layer, universe, old_to_new) for layer in net.layers)
    return MultilayerNetwork(universe, layers, net.layer_names)

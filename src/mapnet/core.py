"""Shared graph types and per-pair observation summaries.

A multilayer network is a list of sparse weighted layers over one shared
node universe.  Aggregation consumes per-pair summaries: how many layers
observed a pair (k) and the total weight those layers reported (S).

A node pair ``(i, j)``, ``i < j``, indexes the universe's labels and is
stored as the int64 code ``i·N + j``, so code order is tuple order.  Each
type keeps a sorted, unique code array beside its value arrays, and its
one constructor takes and validates those arrays.  It copies them unless
they are already read-only to the array that owns their data; a caller
that hands arrays over that way must not make them writeable again.  All
types are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
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


def pair_codes(a: np.ndarray, b: np.ndarray, n: int) -> np.ndarray:
    """Codes i·N + j of the unordered index pairs {a, b} (a != b), with i < j."""
    return np.minimum(a, b) * n + np.maximum(a, b)


def pair_indices(codes: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays i, j of pair codes i·N + j."""
    return np.divmod(codes, max(n, 1))


def sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The distinct entries of ``values``, sorted; sorts ``values`` in place.

    Two sorted runs, such as two code arrays put end to end, merge in one
    pass.  np.unique without flags does the same, but numpy >= 2.3 imports
    numpy.ma for it.
    """
    values.sort(kind="stable")
    first = np.ones(values.size, dtype=bool)
    first[1:] = values[1:] != values[:-1]
    return values[first]


def _decode(codes: np.ndarray, n: int) -> list[Pair]:
    i, j = pair_indices(codes, n)
    return list(zip(i.tolist(), j.tolist()))


def _frozen(array: np.ndarray) -> bool:
    """Whether ``array`` and every array down its base chain are read-only, the
    last owning its data: an array its caller handed over and cannot change."""
    while isinstance(array, np.ndarray) and not array.flags.writeable:
        if array.base is None:
            return True
        array = array.base
    return False


def _checked(universe: NodeUniverse, codes, values, what: str) -> tuple[np.ndarray, np.ndarray]:
    """Read-only pair codes and one value per code; ValueError unless the codes
    are sorted and unique with i < j < N each and the values are finite and non-negative.

    An int64 code array or float64 value array that is read-only down its
    whole base chain (see ``_frozen``) is kept as it is, unless the values
    hold a -0.0; anything else is copied, and a copied -0.0 becomes 0.0.
    """
    if not (isinstance(codes, np.ndarray) and codes.dtype == np.int64 and _frozen(codes)):
        codes = np.array(codes, dtype=np.int64)
    if not (isinstance(values, np.ndarray) and values.dtype == np.float64 and _frozen(values)
            and not np.signbit(values).any()):
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
    return replace(obj, universe=universe, codes=codes, values=obj.values[order])


def reindexed(obj, universe: NodeUniverse):
    """A LayerGraph or AggregatedNetwork recoded by label into a universe that holds
    all of its labels (KeyError on a missing one); other fields are kept."""
    index = [universe.index(label) for label in obj.universe.labels]
    return _recoded(obj, universe, np.array(index, dtype=np.int64))


@dataclass(frozen=True, eq=False)
class LayerGraph:
    """One weighted layer.

    ``codes`` lists every pair for which a weight was computable in this
    layer and ``values`` its weight, zeros included.
    """

    universe: NodeUniverse
    codes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        codes, values = _checked(self.universe, self.codes, self.values, "weight")
        self.__dict__.update(codes=codes, values=values)

    __eq__ = equal_fields

    @cached_property
    def measurable(self) -> frozenset[Pair]:
        """Every coded pair as ``(i, j)``.  Kept only because
        perfbench/trace_boot.py counts it; ``codes.size`` is the same count."""
        return frozenset(_decode(self.codes, self.universe.size))


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


@dataclass(frozen=True, eq=False)
class AggregationInput:
    """Per-pair observation counts k and weight sums S, plus the pair count P.

    ``counts`` (stored as int64) and ``sums`` align with the sorted pair
    ``codes``; every stored pair was observed at least once.
    ``pair_count`` is the denominator convention used by the prior-rate
    update (number of unordered pairs by default).
    """

    universe: NodeUniverse
    codes: np.ndarray
    counts: np.ndarray
    sums: np.ndarray
    pair_count: int

    def __post_init__(self):
        if self.pair_count < 1:
            raise ValueError("pair_count must be positive")
        codes, sums = _checked(self.universe, self.codes, self.sums, "weight sum")
        counts = np.asarray(self.counts, dtype=float)
        whole = np.isfinite(counts) & (counts >= 1) & (counts == np.floor(counts))
        if counts.shape != codes.shape or not whole.all():
            raise ValueError("every stored pair needs an integer count k >= 1")
        counts = counts.astype(np.int64)
        counts.flags.writeable = False
        self.__dict__.update(codes=codes, counts=counts, sums=sums)

    __eq__ = equal_fields

    @cached_property
    def k(self) -> Mapping[Pair, int]:
        """Read-only ``{(i, j): k}``.  Kept only because perfbench/trace_boot.py
        sums it; ``counts.sum()`` is the same number."""
        pairs = _decode(self.codes, self.universe.size)
        return MappingProxyType(dict(zip(pairs, self.counts.tolist())))


@dataclass(frozen=True, eq=False)
class AggregatedNetwork:
    """MAP estimate of the single-layer network.

    ``values`` holds the estimated weight of every observed pair (k >= 1)
    in ``codes``, zeros included; unobserved pairs are absent and
    implicitly zero.  ``objective_trace`` holds the per-iteration
    log-posterior when the solver was asked to record it.
    """

    universe: NodeUniverse
    codes: np.ndarray
    values: np.ndarray
    theta: float
    iterations: int
    converged: bool
    final_objective: float
    objective_trace: tuple[float, ...] | None = None

    def __post_init__(self):
        codes, values = _checked(self.universe, self.codes, self.values, "lambda")
        self.__dict__.update(codes=codes, values=values)

    __eq__ = equal_fields

    def to_layer(self) -> LayerGraph:
        """View the estimate as a plain layer (for metrics and export)."""
        return LayerGraph(self.universe, self.codes, self.values)


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

    The layers are folded in one at a time, first into the sorted union of
    their pair codes and then into k and S, so S adds each pair's weights
    in layer order, and nothing is allocated per cell of the N x N grid or
    per observation of all layers at once.

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

    nonzero = count_mode == "nonzero_only"
    # the union of the layers' sorted codes, merged in one layer at a time
    pairs = np.zeros(0, dtype=np.int64)
    for layer in net.layers:
        codes = layer.codes[layer.values > 0] if nonzero else layer.codes
        pairs = sorted_distinct(np.concatenate([pairs, codes]))
    if pairs.size == 0:
        raise EmptyNetwork("no pair is observed in any layer")
    # a layer's codes are unique, so they fill distinct slots of the union
    k = np.zeros(pairs.size, dtype=np.int64)
    s = np.zeros(pairs.size)
    for layer in net.layers:
        codes, values = layer.codes, layer.values
        if nonzero:
            codes, values = codes[values > 0], values[values > 0]
        slot = np.searchsorted(pairs, codes)
        k[slot] += 1
        s[slot] += values
    return AggregationInput(net.universe, pairs, k, s, pair_count)


def relabel(net: MultilayerNetwork, mapping: Mapping[str, str]) -> MultilayerNetwork:
    """Rename nodes; indices follow the new lexicographic order."""
    new_labels = tuple(mapping[label] for label in net.universe.labels)
    if len(set(new_labels)) != len(new_labels):
        raise ValueError("relabeling must be a bijection")
    universe = NodeUniverse(tuple(sorted(new_labels)))
    old_to_new = np.array([universe.index(label) for label in new_labels], dtype=np.int64)
    layers = tuple(_recoded(layer, universe, old_to_new) for layer in net.layers)
    return MultilayerNetwork(universe, layers, net.layer_names)

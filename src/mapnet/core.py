"""Shared graph types and per-pair observation summaries.

A multilayer network is a list of sparse weighted layers over one shared
node universe.  Aggregation consumes per-pair summaries: how many layers
observed a pair (k) and the total weight those layers reported (S).

All types are immutable after construction and safe to share across
threads.  Node pairs are index tuples ``(i, j)`` with ``i < j`` into the
universe's label sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

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


def _check_pair(pair: Pair, n: int) -> None:
    i, j = pair
    if not (0 <= i < j < n):
        raise ValueError(f"invalid pair {pair} for universe of size {n}")


@dataclass(frozen=True)
class LayerGraph:
    """One weighted layer.

    ``weights`` holds the strictly positive weights; ``measurable`` holds
    every pair for which a weight was computable in this layer, including
    zero-weight ones.  Zero entries passed in ``weights`` are moved to
    ``measurable`` on construction so equal layers compare equal.
    """

    universe: NodeUniverse
    weights: dict[Pair, float]
    measurable: frozenset[Pair] = field(default_factory=frozenset)

    def __post_init__(self):
        n = self.universe.size
        positive: dict[Pair, float] = {}
        measured = set(self.measurable)
        for pair, w in self.weights.items():
            _check_pair(pair, n)
            w = float(w)
            if w < 0:
                raise ValueError(f"negative weight {w} on pair {pair}")
            measured.add(pair)
            if w > 0:
                positive[pair] = w
        for pair in self.measurable:
            _check_pair(pair, n)
        object.__setattr__(self, "weights", positive)
        object.__setattr__(self, "measurable", frozenset(measured))

    def weight(self, pair: Pair) -> float:
        """Observed weight, 0.0 for measurable-but-zero pairs."""
        return self.weights.get(pair, 0.0)

    @property
    def total_weight(self) -> float:
        return sum(self.weights.values())


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


@dataclass(frozen=True)
class AggregationInput:
    """Per-pair observation counts k and weight sums S, plus the pair count P.

    ``k`` and ``s`` share the same key set; every stored pair was observed
    at least once.  ``pair_count`` is the denominator convention used by
    the prior-rate update (number of unordered pairs by default).
    """

    universe: NodeUniverse
    k: dict[Pair, int]
    s: dict[Pair, float]
    pair_count: int

    def __post_init__(self):
        n = self.universe.size
        if self.pair_count < 1:
            raise ValueError("pair_count must be positive")
        if self.k.keys() != self.s.keys():
            raise ValueError("k and s must cover the same pairs")
        for pair, count in self.k.items():
            _check_pair(pair, n)
            if not float(count).is_integer():
                raise ValueError(f"stored pair {pair} has non-integer k {count!r}")
            if count < 1:
                raise ValueError(f"stored pair {pair} has k < 1")
            if self.s[pair] < 0:
                raise ValueError(f"stored pair {pair} has negative weight sum")

    @property
    def total_weight(self) -> float:
        return sum(self.s.values())


@dataclass(frozen=True)
class AggregatedNetwork:
    """MAP estimate of the single-layer network.

    ``lam`` maps every observed pair (k >= 1) to its estimated weight,
    zeros included; unobserved pairs are absent and implicitly zero.
    ``objective_trace`` holds the per-iteration log-posterior when the
    solver was asked to record it.
    """

    universe: NodeUniverse
    lam: dict[Pair, float]
    theta: float
    iterations: int
    converged: bool
    final_objective: float
    objective_trace: tuple[float, ...] | None = None

    def to_layer(self) -> LayerGraph:
        """View the estimate as a plain layer (for metrics and export)."""
        return LayerGraph(self.universe, dict(self.lam), frozenset(self.lam))


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


def observation_summaries(
    net: MultilayerNetwork,
    count_mode: str = "measurable",
    pair_count_mode: str = "unordered",
) -> AggregationInput:
    """Derive per-pair observation counts and weight sums from a network.

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
    if pair_count_mode not in ("unordered", "paper_n_squared"):
        raise ValueError(f"unknown pair_count_mode {pair_count_mode!r}")

    k: dict[Pair, int] = {}
    s: dict[Pair, float] = {}
    for layer in net.layers:
        counted = layer.measurable if count_mode == "measurable" else layer.weights.keys()
        for pair in counted:
            k[pair] = k.get(pair, 0) + 1
            s[pair] = s.get(pair, 0.0) + layer.weights.get(pair, 0.0)
    if not k:
        raise EmptyNetwork("no pair is observed in any layer")

    n = net.universe.size
    pair_count = n * (n - 1) // 2 if pair_count_mode == "unordered" else n * n
    return AggregationInput(net.universe, k, s, pair_count)


def relabel(net: MultilayerNetwork, mapping: Mapping[str, str]) -> MultilayerNetwork:
    """Rename nodes; indices follow the new lexicographic order."""
    new_labels = tuple(mapping[label] for label in net.universe.labels)
    if len(set(new_labels)) != len(new_labels):
        raise ValueError("relabeling must be a bijection")
    universe = NodeUniverse(tuple(sorted(new_labels)))
    old_to_new = [universe.index(new_labels[i]) for i in range(net.universe.size)]

    def map_pair(pair: Pair) -> Pair:
        a, b = old_to_new[pair[0]], old_to_new[pair[1]]
        return (a, b) if a < b else (b, a)

    layers = tuple(
        LayerGraph(
            universe,
            {map_pair(p): w for p, w in layer.weights.items()},
            frozenset(map_pair(p) for p in layer.measurable),
        )
        for layer in net.layers
    )
    return MultilayerNetwork(universe, layers, net.layer_names)

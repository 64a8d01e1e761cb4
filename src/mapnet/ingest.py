"""Parsers for raw inputs: expression matrices and multiplex edge lists.

Two text formats are supported.  Expression CSV: first row is a header of
condition labels, first column holds gene labels, empty cells (or NA/NaN
tokens) are missing values; infinite values are rejected.  Multiplex edge
list: whitespace-separated ``layer_id node_u node_v [weight]`` lines with
``#`` comments; a missing weight defaults to 1, an explicit weight of 0
records a measured-but-zero observation, and a non-finite weight is
rejected.
"""

from __future__ import annotations

import csv
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .core import AggregatedNetwork, LayerGraph, MultilayerNetwork, NodeUniverse
from .core import equal_fields, pair_codes, pair_indices
from .errors import (
    DuplicateEdgeWarning,
    DuplicateLabel,
    NegativeWeight,
    ParseError,
)

_MISSING_TOKENS = {"", "na", "nan"}


@dataclass(frozen=True, eq=False)
class ExpressionDataset:
    """Genes x conditions matrix of expression values; NaN marks missing."""

    genes: tuple[str, ...]
    conditions: tuple[str, ...]
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (len(self.genes), len(self.conditions)):
            raise ValueError("matrix shape does not match label counts")
        if len(self.genes) < 1 or len(self.conditions) < 1:
            raise ValueError("need at least one gene and one condition")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "genes", tuple(self.genes))
        object.__setattr__(self, "conditions", tuple(self.conditions))

    @property
    def n_genes(self) -> int:
        return len(self.genes)

    @property
    def n_conditions(self) -> int:
        return len(self.conditions)

    __eq__ = equal_fields


def _parse_cell(token: str, line: int, column: int) -> float:
    token = token.strip()
    if token.lower() in _MISSING_TOKENS:
        return np.nan
    try:
        value = float(token)
    except ValueError:
        raise ParseError(f"malformed number {token!r}", line=line, column=column) from None
    if math.isinf(value):
        raise ParseError(f"infinite value {token!r}", line=line, column=column)
    return value


def _parse_weight(token: str, line: int, column: int) -> float:
    try:
        weight = float(token)
    except ValueError:
        raise ParseError(f"malformed weight {token!r}", line=line, column=column) from None
    if not math.isfinite(weight):
        raise ParseError(f"non-finite weight {token!r}", line=line, column=column)
    if weight < 0:
        raise NegativeWeight(f"negative weight {weight} at line {line}")
    return weight


def parse_expression_csv(text: str, name: str = "") -> ExpressionDataset:
    """Parse an expression CSV into a dataset.

    Raises ParseError with 1-based line/column (column counts CSV fields)
    on malformed or infinite numbers or ragged rows, and DuplicateLabel on
    repeated gene or condition labels.
    """
    rows = list(csv.reader(text.splitlines()))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError("empty input", line=1)
    header = rows[0]
    conditions = [cell.strip() for cell in header[1:]]
    if not conditions or any(not c for c in conditions):
        raise ParseError("header must list at least one non-empty condition label", line=1)
    if len(set(conditions)) != len(conditions):
        raise DuplicateLabel("duplicate condition label in header")
    if len(rows) == 1:
        raise ParseError("no gene rows", line=1)

    genes: list[str] = []
    data = np.full((len(rows) - 1, len(conditions)), np.nan)
    for r, row in enumerate(rows[1:], start=2):
        gene = row[0].strip()
        if not gene:
            raise ParseError("empty gene label", line=r, column=1)
        if len(row) != len(conditions) + 1:
            raise ParseError(
                f"expected {len(conditions) + 1} fields, found {len(row)}", line=r
            )
        genes.append(gene)
        for c, cell in enumerate(row[1:], start=2):
            data[r - 2, c - 2] = _parse_cell(cell, line=r, column=c)
    if len(set(genes)) != len(genes):
        seen = set()
        dup = next(g for g in genes if g in seen or seen.add(g))
        raise DuplicateLabel(f"duplicate gene label {dup!r}")
    return ExpressionDataset(tuple(genes), tuple(conditions), data, name=name)


def _ranked(ids: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """Labels in sorted order, and for each first-seen id its label's sorted position."""
    labels = sorted(ids)
    return labels, np.argsort(np.array([ids[label] for label in labels], dtype=np.int64))


def _keep_last(keys: np.ndarray) -> np.ndarray:
    """Indices of the last occurrence of each key, in key order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    return order[np.append(ordered[1:] != ordered[:-1], True)]


def _layers_from_rows(
    nodes: dict[str, int], groups: dict[str, int], ids: array, weights: array
) -> tuple[NodeUniverse, list[str], list[LayerGraph]]:
    """One layer per group, groups and universe sorted by label, from interned
    ``(group, u, v)`` rows; a repeated (group, pair) keeps its last row and
    raises one DuplicateEdgeWarning carrying the count."""
    rows = np.frombuffer(ids, dtype=np.int64).reshape(-1, 3)
    labels, node_rank = _ranked(nodes)
    names, group_rank = _ranked(groups)
    universe = NodeUniverse(tuple(labels))
    n = universe.size
    codes = pair_codes(node_rank[rows[:, 1]], node_rank[rows[:, 2]], n)
    group = group_rank[rows[:, 0]]
    keep = _keep_last(group * (n * n) + codes)
    if keep.size < codes.size:
        warnings.warn(DuplicateEdgeWarning(codes.size - keep.size), stacklevel=3)
    codes, values = codes[keep], np.frombuffer(weights)[keep]
    bounds = np.searchsorted(group[keep], np.arange(len(names) + 1))
    layers = [LayerGraph.from_codes(universe, codes[a:b], values[a:b])
              for a, b in zip(bounds[:-1], bounds[1:])]
    return universe, names, layers


def parse_multiplex_edgelist(text: str) -> MultilayerNetwork:
    """Parse a multiplex edge list into a multilayer network.

    Layers are ordered by sorted layer id; the universe is the sorted
    union of endpoint labels.  Duplicate (layer, u, v) lines keep the last
    occurrence and raise a DuplicateEdgeWarning carrying the count.  For
    edge-list input the measurable set of a layer equals its recorded
    pairs (absence of a line means no measurement, not a zero).
    """
    layer_ids: dict[str, int] = {}
    nodes: dict[str, int] = {}
    ids = array("q")
    weights = array("d")
    for lineno, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0].startswith("#"):
            continue
        if len(fields) not in (3, 4):
            message = f"expected 'layer u v [weight]', found {len(fields)} fields"
            raise ParseError(message, line=lineno)
        u, v = fields[1], fields[2]
        if u == v:
            raise ParseError(f"self-loop on {u!r}", line=lineno)
        weights.append(_parse_weight(fields[3], lineno, column=4) if len(fields) == 4 else 1.0)
        ids.extend((layer_ids.setdefault(fields[0], len(layer_ids)),
                    nodes.setdefault(u, len(nodes)), nodes.setdefault(v, len(nodes))))
    if not weights:
        raise ParseError("no edges found")
    universe, names, layers = _layers_from_rows(nodes, layer_ids, ids, weights)
    return MultilayerNetwork(universe, tuple(layers), tuple(names))


def serialize_multiplex_edgelist(net: MultilayerNetwork) -> str:
    """Inverse of parse_multiplex_edgelist (exact when layer names are sorted).

    Zero-weight measurable pairs are written as explicit weight-0 lines so
    that observation counts survive a round trip.
    """
    labels = np.array(net.universe.labels, dtype=object)
    spaced = np.array([any(ch.isspace() for ch in label) for label in labels], dtype=bool)
    lines = ["# layer node_u node_v weight"]
    for layer_id, layer in zip(net.layer_names, net.layers):
        if any(ch.isspace() for ch in layer_id):
            raise ValueError(f"layer name {layer_id!r} contains whitespace")
        i, j = pair_indices(layer.codes, net.universe.size)
        if spaced[i].any() or spaced[j].any():
            raise ValueError("node labels must not contain whitespace")
        rows = zip(labels[i].tolist(), labels[j].tolist(), layer.values.tolist())
        lines.extend(f"{layer_id} {u} {v} {w!r}" for u, v, w in rows)
    return "\n".join(lines) + "\n"


def serialize_layer_csv(layer: LayerGraph, value_name: str = "weight") -> str:
    """A layer as ``node_u,node_v,<value_name>`` rows in pair order, zeros included."""
    labels = np.array(layer.universe.labels, dtype=object)
    i, j = pair_indices(layer.codes, layer.universe.size)
    rows = zip(labels[i].tolist(), labels[j].tolist(), layer.values.tolist())
    lines = [f"node_u,node_v,{value_name}"]
    lines.extend(f"{u},{v},{w!r}" for u, v, w in rows)
    return "\n".join(lines) + "\n"


def parse_layer_csv(text: str) -> LayerGraph:
    """Parse a ``node_u,node_v,weight`` CSV into a single layer.

    Rows with weight 0 are recorded as measured-but-zero pairs.  Line
    numbers in errors count non-blank rows, the header being line 1.
    """
    rows = csv.reader(text.splitlines())
    rows = (row for row in rows if row and any(cell.strip() for cell in row))
    next(rows, None)  # header
    nodes: dict[str, int] = {}
    ids = array("q")
    weights = array("d")
    for lineno, row in enumerate(rows, start=2):
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, found {len(row)}", line=lineno)
        u, v = row[0].strip(), row[1].strip()
        if u == v:
            raise ParseError(f"self-loop on {u!r}", line=lineno)
        weights.append(_parse_weight(row[2], lineno, column=3))
        ids.extend((0, nodes.setdefault(u, len(nodes)), nodes.setdefault(v, len(nodes))))
    if not weights:
        raise ParseError("expected a header and at least one edge row")
    _, _, (layer,) = _layers_from_rows(nodes, {"": 0}, ids, weights)
    return layer


def parse_aggregated_csv(text: str, sidecar: dict) -> AggregatedNetwork:
    """Rebuild an aggregated network from its CSV and sidecar metadata."""
    layer = parse_layer_csv(text)
    solver = (float(sidecar["theta"]), int(sidecar["iterations"]), bool(sidecar["converged"]),
              float(sidecar.get("final_objective", np.nan)))
    return AggregatedNetwork.from_codes(layer.universe, layer.codes, layer.values, *solver)

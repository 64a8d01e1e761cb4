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
from dataclasses import dataclass

import numpy as np

from .core import AggregatedNetwork, LayerGraph, MultilayerNetwork, union_nodes
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

    def __eq__(self, other):
        if not isinstance(other, ExpressionDataset):
            return NotImplemented
        return (
            self.genes == other.genes
            and self.conditions == other.conditions
            and self.name == other.name
            and np.array_equal(self.values, other.values, equal_nan=True)
        )


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


def parse_multiplex_edgelist(text: str) -> MultilayerNetwork:
    """Parse a multiplex edge list into a multilayer network.

    Layers are ordered by sorted layer id; the universe is the sorted
    union of endpoint labels.  Duplicate (layer, u, v) lines keep the last
    occurrence and raise a DuplicateEdgeWarning carrying the count.  For
    edge-list input the measurable set of a layer equals its recorded
    pairs (absence of a line means no measurement, not a zero).
    """
    edges: dict[str, dict[tuple[str, str], float]] = {}
    duplicates = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ParseError(
                f"expected 'layer u v [weight]', found {len(fields)} fields", line=lineno
            )
        layer_id, u, v = fields[0], fields[1], fields[2]
        if u == v:
            raise ParseError(f"self-loop on {u!r}", line=lineno)
        weight = _parse_weight(fields[3], lineno, column=4) if len(fields) == 4 else 1.0
        layer = edges.setdefault(layer_id, {})
        key = (u, v) if u < v else (v, u)
        if key in layer:
            duplicates += 1
        layer[key] = weight
    if not edges:
        raise ParseError("no edges found")
    if duplicates:
        warnings.warn(DuplicateEdgeWarning(duplicates), stacklevel=2)

    universe = union_nodes(
        [sorted({n for pair in layer for n in pair}) for layer in edges.values()]
    )
    layer_ids = sorted(edges)
    layers = tuple(
        LayerGraph(
            universe,
            {universe.pair(u, v): w for (u, v), w in edges[layer_id].items()},
        )
        for layer_id in layer_ids
    )
    return MultilayerNetwork(universe, layers, tuple(layer_ids))


def serialize_multiplex_edgelist(net: MultilayerNetwork) -> str:
    """Inverse of parse_multiplex_edgelist (exact when layer names are sorted).

    Zero-weight measurable pairs are written as explicit weight-0 lines so
    that observation counts survive a round trip.
    """
    labels = net.universe.labels
    lines = ["# layer node_u node_v weight"]
    for layer_id, layer in zip(net.layer_names, net.layers):
        if any(ch.isspace() for ch in layer_id):
            raise ValueError(f"layer name {layer_id!r} contains whitespace")
        for i, j in sorted(layer.measurable):
            u, v = labels[i], labels[j]
            if any(ch.isspace() for ch in u + v):
                raise ValueError("node labels must not contain whitespace")
            lines.append(f"{layer_id} {u} {v} {layer.weight((i, j))!r}")
    return "\n".join(lines) + "\n"


def parse_layer_csv(text: str) -> LayerGraph:
    """Parse a ``node_u,node_v,weight`` CSV into a single layer.

    Rows with weight 0 are recorded as measured-but-zero pairs.
    """
    rows = list(csv.reader(text.splitlines()))
    rows = [row for row in rows if row and any(cell.strip() for cell in row)]
    if len(rows) < 2:
        raise ParseError("expected a header and at least one edge row")
    weights_by_label: dict[tuple[str, str], float] = {}
    duplicates = 0
    for lineno, row in enumerate(rows[1:], start=2):
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, found {len(row)}", line=lineno)
        u, v = row[0].strip(), row[1].strip()
        if u == v:
            raise ParseError(f"self-loop on {u!r}", line=lineno)
        weight = _parse_weight(row[2], lineno, column=3)
        key = (u, v) if u < v else (v, u)
        if key in weights_by_label:
            duplicates += 1
        weights_by_label[key] = weight
    if duplicates:
        warnings.warn(DuplicateEdgeWarning(duplicates), stacklevel=2)
    universe = union_nodes([sorted({n for pair in weights_by_label for n in pair})])
    return LayerGraph(
        universe, {universe.pair(u, v): w for (u, v), w in weights_by_label.items()}
    )


def parse_aggregated_csv(text: str, sidecar: dict) -> AggregatedNetwork:
    """Rebuild an aggregated network from its CSV and sidecar metadata."""
    layer = parse_layer_csv(text)
    lam = {pair: layer.weight(pair) for pair in sorted(layer.measurable)}
    return AggregatedNetwork(
        universe=layer.universe,
        lam=lam,
        theta=float(sidecar["theta"]),
        iterations=int(sidecar["iterations"]),
        converged=bool(sidecar["converged"]),
        final_objective=float(sidecar.get("final_objective", np.nan)),
    )

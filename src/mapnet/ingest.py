"""Readers and writers for raw inputs and results: expression matrices,
multiplex edge lists and layer CSVs.

Expression CSV: first row is a header of condition labels, first column
holds gene labels, empty cells (or NA/NaN tokens) are missing values;
infinite values are rejected.  Multiplex edge list: whitespace-separated
``layer_id node_u node_v [weight]`` lines with ``#`` comments; a missing
weight defaults to 1, an explicit weight of 0 records a measured-but-zero
observation, and a non-finite weight is rejected.

Edge lists and ``node_u,node_v,weight`` layer CSVs with a regular body (see
``_regular_rows``) are read whole with numpy, each distinct weight token of
a chunk by float() once.  Any other text falls back to the per-line
reader, the only source of errors; both paths end in the same step that
sorts labels, keeps the last of repeated rows and splits the layers.

One column writer, ``_write_rows``, writes every text output, the CLI's
tables included: each label is formatted once, each distinct number of a
chunk of rows once by repr, and each chunk is joined at once.  CSV labels
holding a comma, quote, CR or LF are quoted as csv.QUOTE_MINIMAL does.
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


def _csv_rows(text: str):
    """The non-blank rows of a CSV text, each with the physical line it ends on."""
    reader = csv.reader(text.splitlines())
    return ((reader.line_num, row) for row in reader if row and any(c.strip() for c in row))


def parse_expression_csv(text: str, name: str = "") -> ExpressionDataset:
    """Parse an expression CSV into a dataset.

    The first non-blank row is the header; blank rows are skipped.  Raises
    ParseError with 1-based line/column (lines count every physical line,
    column counts CSV fields) on malformed or infinite numbers or ragged
    rows, and DuplicateLabel on repeated gene or condition labels.
    """
    rows = list(_csv_rows(text))
    if not rows:
        raise ParseError("empty input", line=1)
    header_line, header = rows[0]
    conditions = [cell.strip() for cell in header[1:]]
    if not conditions or any(not c for c in conditions):
        message = "header must list at least one non-empty condition label"
        raise ParseError(message, line=header_line)
    if len(set(conditions)) != len(conditions):
        raise DuplicateLabel("duplicate condition label in header")
    if len(rows) == 1:
        raise ParseError("no gene rows", line=header_line)

    genes: list[str] = []
    data = np.full((len(rows) - 1, len(conditions)), np.nan)
    for r, (line, row) in enumerate(rows[1:]):
        gene = row[0].strip()
        if not gene:
            raise ParseError("empty gene label", line=line, column=1)
        if len(row) != len(conditions) + 1:
            raise ParseError(
                f"expected {len(conditions) + 1} fields, found {len(row)}", line=line
            )
        genes.append(gene)
        for c, cell in enumerate(row[1:], start=2):
            data[r, c - 2] = _parse_cell(cell, line=line, column=c)
    if len(set(genes)) != len(genes):
        seen = set()
        dup = next(g for g in genes if g in seen or seen.add(g))
        raise DuplicateLabel(f"duplicate gene label {dup!r}")
    return ExpressionDataset(tuple(genes), tuple(conditions), data, name=name)


# (group names, node labels, both sorted; per row the group and the two
# endpoints as positions in them, and the weight), in input order
Rows = tuple[list[str], list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]

_CHUNK_BYTES = 1 << 18
_WRITE_ROWS = 1 << 16
_KEY_BYTES = 8
# Bytes that make a body irregular: NUL (the key padding), quote, '#', and
# every ASCII byte other than space and newline that str.split treats as
# whitespace, which includes every ASCII line break of str.splitlines.
_IRREGULAR = b'\0"#\t\r\x0b\x0c\x1c\x1d\x1e\x1f'
# The comment lines or CSV header may hold anything but NUL, quotes and
# line breaks other than newline.
_HEAD_IRREGULAR = '\0"\r\x0b\x0c\x1c\x1d\x1e'


def _ranked(ids: dict[str, int]) -> tuple[list[str], np.ndarray]:
    """Labels in sorted order, and for each first-seen id its label's sorted position."""
    labels = sorted(ids)
    return labels, np.argsort(np.array([ids[label] for label in labels], dtype=np.int64))


def _ranked_rows(groups: dict[str, int], nodes: dict[str, int], ids, weights) -> Rows:
    """Rows from ``(group, u, v)`` id triples, one per line (an int64 array or
    buffer, flat or ``(rows, 3)``), with ids interned in first-seen order."""
    ids = np.asarray(ids).reshape(-1, 3)
    names, group_rank = _ranked(groups)
    labels, node_rank = _ranked(nodes)
    return (names, labels, group_rank[ids[:, 0]], node_rank[ids[:, 1]],
            node_rank[ids[:, 2]], np.asarray(weights))


def _interned(words: np.ndarray, starts: np.ndarray, stops: np.ndarray,
              ids: dict[str, int]) -> np.ndarray | None:
    """Ids of the labels ``bytes[starts:stops]``, new labels added to ``ids``;
    None if a label is longer than 8 bytes.  ``words[k]`` holds the 8 bytes
    from ``k`` as a big-endian uint64; a label's key keeps its own bytes and
    zeros the rest, so equal keys are equal labels."""
    width = stops - starts
    if width.max() > _KEY_BYTES:
        return None
    pad = (_KEY_BYTES - width).astype(np.uint64) * np.uint64(8)
    keys = (words[starts].astype(np.uint64) >> pad) << pad
    unique, inverse = np.unique(keys, return_inverse=True)
    labels = unique.astype(">u8").view("S8").astype("U8").tolist()  # drops the zero bytes
    known = np.array([ids.setdefault(label, len(ids)) for label in labels], dtype=np.int64)
    return known[inverse.reshape(-1)]


def _weight_values(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray | None:
    """Weights of the tokens ``buf[starts:stops]``, each distinct token read by
    float() once; None if one is malformed, non-finite or negative."""
    edges = np.empty(2 * starts.size + 1, dtype=np.int64)
    edges[0] = 0
    edges[1::2] = starts
    edges[2::2] = stops + 1  # with the newline that ends each token
    inside = np.repeat(np.tile(np.array([False, True]), starts.size), np.diff(edges))
    tokens = buf[inside].tobytes().decode("ascii").split("\n")
    tokens.pop()
    distinct = dict.fromkeys(tokens)
    try:
        values = np.array(list(map(float, distinct)), dtype=np.float64)
    except ValueError:
        return None
    if not np.all(np.isfinite(values) & (values >= 0)):
        return None
    if len(distinct) == len(tokens):
        return values
    lookup = dict(zip(distinct, values.tolist()))
    return np.fromiter(map(lookup.__getitem__, tokens), np.float64, len(tokens))


def _regular_rows(text: str, sep: str) -> Rows | None:
    """Rows of a regular edge list (``sep=" "``) or layer CSV (``sep=","``)
    read from chunks of about 256 KB of whole lines, or None to leave the
    text to the per-line reader.

    The head (leading ``#`` lines of an edge list, the header line of a CSV)
    is skipped.  The body after it is regular when it is ASCII and ends with a
    newline; every line has the same number of fields (3 or 4 for an edge
    list, 3 for a CSV), one separator apart and none empty; it holds no ``#``,
    NUL, quote, tab or CR, no other byte that str.split treats as whitespace
    (nor a space in a CSV); no label is longer than 8 bytes; and no line is a
    self-loop or has a weight that is malformed, non-finite or negative.
    """
    is_csv = sep == ","
    if not (text.isascii() and text.endswith("\n")):
        return None
    start = 0
    if is_csv:
        start = text.find("\n") + 1
        if not any(cell.strip() for cell in text[:start].split(",")):
            return None  # csv.reader would skip a blank first line
    while not is_csv and text.startswith("#", start):
        start = text.find("\n", start) + 1
    if start == len(text) or any(c in text[:start] for c in _HEAD_IRREGULAR):
        return None
    width = text.count(sep, start, text.find("\n", start)) + 1
    if width not in ((3,) if is_csv else (3, 4)):
        return None
    groups: dict[str, int] = {"": 0} if is_csv else {}
    nodes: dict[str, int] = {}
    # the id column each label field fills, and the labels it interns
    targets = [(1, nodes), (2, nodes)] if is_csv else [(0, groups), (1, nodes), (2, nodes)]
    ids = np.zeros((text.count("\n", start), 3), dtype=np.int64)
    weights = np.ones(len(ids))
    irregular = _IRREGULAR + (b" " if is_csv else b"")
    row = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_BYTES) + 1 or len(text)
        chunk = text[start:end].encode("ascii")
        start = end
        if any(byte in chunk for byte in irregular):
            return None
        buf = np.frombuffer(chunk, dtype=np.uint8)
        ends = np.flatnonzero(buf == 10)
        seps = np.flatnonzero(buf == ord(sep))
        if seps.size != ends.size * (width - 1):
            return None
        # per line: the byte before it, its separators and its newline;
        # fields are non-empty (and each line holds its own separators)
        # exactly when these rise by at least 2 along every row
        bounds = np.empty((ends.size, width + 1), dtype=np.int64)
        bounds[0, 0] = -1
        bounds[1:, 0] = ends[:-1]
        bounds[:, 1:width] = seps.reshape(-1, width - 1)
        bounds[:, width] = ends
        if np.diff(bounds, axis=1).min() < 2:
            return None
        rows = slice(row, row + ends.size)
        row += ends.size
        words = np.ndarray(buf.shape, dtype=">u8", buffer=chunk + bytes(_KEY_BYTES - 1),
                           strides=(1,))
        for field, (column, labels) in enumerate(targets):
            interned = _interned(words, bounds[:, field] + 1, bounds[:, field + 1], labels)
            if interned is None:
                return None
            ids[rows, column] = interned
        if np.any(ids[rows, 1] == ids[rows, 2]):
            return None  # a self-loop
        if width > len(targets):
            chunk_weights = _weight_values(buf, bounds[:, width - 1] + 1, ends)
            if chunk_weights is None:
                return None
            weights[rows] = chunk_weights
    return _ranked_rows(groups, nodes, ids, weights)


def _keep_last(keys: np.ndarray) -> np.ndarray:
    """Indices of the last occurrence of each key, in key order."""
    order = np.argsort(keys, kind="stable")
    ordered = keys[order]
    return order[np.append(ordered[1:] != ordered[:-1], True)]


def _layers_from_rows(
    names: list[str], labels: list[str], group: np.ndarray, u: np.ndarray, v: np.ndarray,
    weights: np.ndarray,
) -> tuple[NodeUniverse, list[LayerGraph]]:
    """One layer per group over the universe of ``labels``; a repeated (group,
    pair) keeps its last row and raises one DuplicateEdgeWarning carrying the
    count."""
    universe = NodeUniverse(tuple(labels))
    n = universe.size
    codes = pair_codes(u, v, n)
    keep = _keep_last(group * (n * n) + codes)
    if keep.size < codes.size:
        warnings.warn(DuplicateEdgeWarning(codes.size - keep.size), stacklevel=3)
    codes, values = codes[keep], weights[keep]
    bounds = np.searchsorted(group[keep], np.arange(len(names) + 1))
    layers = [LayerGraph(universe, codes[a:b], values[a:b])
              for a, b in zip(bounds[:-1], bounds[1:])]
    return universe, layers


def _edgelist_rows(text: str) -> Rows:
    """Rows of an edge list, read line by line; raises on the first bad line."""
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
    return _ranked_rows(layer_ids, nodes, ids, weights)


def parse_multiplex_edgelist(text: str) -> MultilayerNetwork:
    """Parse a multiplex edge list into a multilayer network.

    Layers are ordered by sorted layer id; the universe is the sorted
    union of endpoint labels.  Duplicate (layer, u, v) lines keep the last
    occurrence and raise a DuplicateEdgeWarning carrying the count.  For
    edge-list input the measurable set of a layer equals its recorded
    pairs (absence of a line means no measurement, not a zero).
    """
    rows = _regular_rows(text, " ") or _edgelist_rows(text)
    universe, layers = _layers_from_rows(*rows)
    return MultilayerNetwork(universe, tuple(layers), tuple(rows[0]))


def _quoted(label: str) -> str:
    """``label`` as a CSV field, quoted as csv.QUOTE_MINIMAL does."""
    return '"' + label.replace('"', '""') + '"' if any(c in label for c in ',"\r\n') else label


def _write_rows(header: str, columns: list, sep: str) -> str:
    """``header`` and one line per row, fields ``sep`` apart.

    A column is ``(labels, index)``, row r holding ``labels[index[r]]``, or
    an int64 or float64 array.  Labels, and the distinct numbers of a chunk
    keyed by their bits (so -0.0 and nan keep their text), are formatted
    once with the separator after them and gathered into an object grid.
    """
    tails = [sep] * (len(columns) - 1) + ["\n"]
    quote = _quoted if sep == "," else str
    labels = [np.array([quote(label) + tail for label in column[0]], dtype=object)
              if isinstance(column, tuple) else None for column, tail in zip(columns, tails)]
    first = columns[0] if columns else []
    rows = len(first[1] if isinstance(first, tuple) else first)
    grid = np.empty((min(rows, _WRITE_ROWS), len(columns)), dtype=object)
    chunks = [header + "\n"]
    for start in range(0, rows, _WRITE_ROWS):
        part, chunk = grid[:rows - start], slice(start, start + _WRITE_ROWS)
        for c, (column, tail, texts) in enumerate(zip(columns, tails, labels)):
            if texts is not None:
                index = column[1][chunk]
            else:
                values = np.asarray(column[chunk])
                distinct, index = np.unique(values.view(np.int64), return_inverse=True)
                texts = np.array([repr(value) + tail for value in
                                  distinct.view(values.dtype).tolist()], dtype=object)
            part[:, c] = texts[index.reshape(-1)]
        chunks.append("".join(part.ravel().tolist()))
    return "".join(chunks)


def serialize_multiplex_edgelist(net: MultilayerNetwork) -> str:
    """Inverse of parse_multiplex_edgelist (exact when layer names are sorted).

    Zero-weight measurable pairs are written as explicit weight-0 lines so
    that observation counts survive a round trip.  ValueError for names the
    reader would misread: a layer name that is empty, starts with ``#`` or
    holds whitespace, and a written node label that is empty or holds
    whitespace.
    """
    labels = net.universe.labels
    spaced = np.array([any(ch.isspace() for ch in label) for label in labels], dtype=bool)
    sizes = [layer.codes.size for layer in net.layers]
    i, j = pair_indices(np.concatenate([layer.codes for layer in net.layers]), net.universe.size)
    stops = np.cumsum(sizes)
    for layer_id, start, stop in zip(net.layer_names, stops - sizes, stops):
        if not layer_id or layer_id.startswith("#"):
            raise ValueError(f"layer name {layer_id!r} is empty or starts with '#'")
        if any(ch.isspace() for ch in layer_id):
            raise ValueError(f"layer name {layer_id!r} contains whitespace")
        if spaced[i[start:stop]].any() or spaced[j[start:stop]].any():
            raise ValueError("node labels must not contain whitespace")
    empty = labels.index("") if "" in labels else -1
    if empty in i or empty in j:
        raise ValueError("node labels must not be empty")
    group = np.repeat(np.arange(net.depth), sizes)
    values = np.concatenate([layer.values for layer in net.layers])
    columns = [(net.layer_names, group), (labels, i), (labels, j), values]
    return _write_rows("# layer node_u node_v weight", columns, " ")


def serialize_layer_csv(layer: LayerGraph, value_name: str = "weight") -> str:
    """A layer as ``node_u,node_v,<value_name>`` rows in pair order, zeros
    included.  ValueError for a written node label with leading or trailing
    whitespace, which the reader would strip."""
    labels = layer.universe.labels
    i, j = pair_indices(layer.codes, layer.universe.size)
    padded = np.array([label != label.strip() for label in labels], dtype=bool)
    if padded[i].any() or padded[j].any():
        raise ValueError("node labels must not start or end with whitespace")
    return _write_rows(f"node_u,node_v,{value_name}", [(labels, i), (labels, j), layer.values], ",")


def _layer_csv_rows(text: str) -> Rows:
    """Rows of a layer CSV, read row by row; raises on the first bad row."""
    rows = _csv_rows(text)
    next(rows, None)  # header
    nodes: dict[str, int] = {}
    ids = array("q")
    weights = array("d")
    for lineno, row in rows:
        if len(row) != 3:
            raise ParseError(f"expected 3 fields, found {len(row)}", line=lineno)
        u, v = row[0].strip(), row[1].strip()
        if u == v:
            raise ParseError(f"self-loop on {u!r}", line=lineno)
        weights.append(_parse_weight(row[2], lineno, column=3))
        ids.extend((0, nodes.setdefault(u, len(nodes)), nodes.setdefault(v, len(nodes))))
    if not weights:
        raise ParseError("expected a header and at least one edge row")
    return _ranked_rows({"": 0}, nodes, ids, weights)


def parse_layer_csv(text: str) -> LayerGraph:
    """Parse a ``node_u,node_v,weight`` CSV into a single layer.

    Rows with weight 0 are recorded as measured-but-zero pairs.  The first
    non-blank row is the header; blank rows are skipped, and line numbers
    in errors count every physical line.
    """
    rows = _regular_rows(text, ",") or _layer_csv_rows(text)
    _, (layer,) = _layers_from_rows(*rows)
    return layer


def _sidecar_value(sidecar, name: str, kind=float, finite: bool = True):
    """``kind(sidecar[name])`` of a JSON sidecar; ParseError naming the field
    when the sidecar is not an object, or the field is missing, does not
    convert, or (with ``finite``) is not finite."""
    if not isinstance(sidecar, dict):
        raise ParseError(f"sidecar must be a JSON object, found {type(sidecar).__name__}")
    if name not in sidecar:
        raise ParseError(f"sidecar has no field {name!r}")
    try:
        value = kind(sidecar[name])
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"sidecar field {name!r} is not a number: {sidecar[name]!r}") from None
    if finite and not math.isfinite(value):
        raise ParseError(f"sidecar field {name!r} is not finite: {sidecar[name]!r}")
    return value


def parse_aggregated_csv(text: str, sidecar: dict) -> AggregatedNetwork:
    """Rebuild an aggregated network from its CSV and sidecar metadata.
    ParseError names a sidecar field that is missing or not a finite number."""
    layer = parse_layer_csv(text)
    solver = (_sidecar_value(sidecar, "theta"), _sidecar_value(sidecar, "iterations", int),
              _sidecar_value(sidecar, "converged", bool))
    objective = (_sidecar_value(sidecar, "final_objective", finite=False)
                 if "final_objective" in sidecar else np.nan)
    return AggregatedNetwork(layer.universe, layer.codes, layer.values, *solver, objective)

"""Readers and writers for raw inputs and results: expression matrices,
multiplex edge lists and layer CSVs.

Expression CSV: first row is a header of condition labels, first column
holds gene labels, empty cells (or NA/NaN tokens) are missing values;
infinite values are rejected.  Multiplex edge list: whitespace-separated
``layer_id node_u node_v [weight]`` lines with ``#`` comments; a missing
weight defaults to 1, an explicit weight of 0 records a measured-but-zero
observation, and a non-finite weight is rejected.

Edge lists and ``node_u,node_v,weight`` layer CSVs with a regular body (see
``_chunk_rows``) are read by numpy in chunks of about 256 KB of whole
lines, from a text or, for the CLI's edge lists, straight from the binary
file, so the file's text is never held.  Labels, and weight tokens of up
to 8 bytes, are looked up among those already seen, and only new ones are
decoded (longer tokens: each distinct one of a chunk by float() once).
Any other input falls back to the per-line reader, the only source of
errors; a file is then read again whole.  Both paths end in the same step
that sorts labels, turns each row into one int64 key (layer, pair),
keeps the last of repeated rows and splits the layers; keys that already
rise, as in every file mapnet writes, are not sorted again, and the layers
keep read-only slices of the keys and weights, so no row is held twice.

One column writer, ``_write_rows``, writes every text output, the CLI's
tables included: each label is formatted once, each distinct number of a
chunk of rows once by repr, and each chunk is joined at once and yielded.
The edge-list writer takes, formats and drops one layer at a time, so
``synth gen`` writes each layer as it is drawn.  The CLI writes the
chunks to the open file one at a time, so no output is held whole;
``serialize_*`` join them.  Their ``_*_chunks`` forms raise on a name the
reader would misread before the first chunk, so before the CLI opens the
file.  CSV labels holding a comma, quote, CR or LF are quoted as
csv.QUOTE_MINIMAL does.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from array import array
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .core import AggregatedNetwork, LayerGraph, MultilayerNetwork, NodeUniverse
from .core import equal_fields, pair_codes, pair_indices, sorted_distinct
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


# (group names, node labels, both sorted; per row its key g·N² + i·N + j,
# for group g and pair code i·N + j over those positions, and its weight),
# rows in input order
Rows = tuple[list[str], list[str], np.ndarray, np.ndarray]

_CHUNK_BYTES = 1 << 18
_WRITE_ROWS = 1 << 12
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


def _ranked_rows(groups: tuple[list[str], np.ndarray], nodes: tuple[list[str], np.ndarray],
                 group_ids: np.ndarray, pairs: np.ndarray, weights: np.ndarray) -> Rows:
    """Rows from each row's group id, its (u, v) node ids packed as the int64
    u·2³² + v in ``pairs``, and its weight, all in row order; ``groups`` and
    ``nodes`` are the sorted labels and each id's position, as ``_ranked``
    gives them.  The keys overwrite ``pairs`` ``_WRITE_ROWS`` rows at a time,
    so no temporary is as long as the rows and ``pairs`` becomes the keys."""
    (names, group_rank), (labels, node_rank) = groups, nodes
    n = len(labels)
    for at in range(0, len(pairs), _WRITE_ROWS):
        part = pairs[at:at + _WRITE_ROWS]
        codes = pair_codes(node_rank[part >> 32], node_rank[part & 0xFFFFFFFF], n)
        part[:] = group_rank[group_ids[at:at + _WRITE_ROWS]] * (n * n) + codes
    return names, labels, pairs, weights


def _listed_rows(groups: tuple[list[str], np.ndarray], nodes: tuple[list[str], np.ndarray],
                 ids: array, weights: array) -> Rows:
    """``_ranked_rows`` of the (group, u, v) id triples and the weights that
    the per-line readers collect."""
    ids = np.asarray(ids).reshape(-1, 3)
    return _ranked_rows(groups, nodes, ids[:, 0], ids[:, 1] << 32 | ids[:, 2], np.array(weights))


def _field_keys(words: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray | None:
    """One key per field ``bytes[starts:stops]``, or None if a field is longer
    than 8 bytes.  ``words[k]`` holds the 8 bytes from ``k`` as a big-endian
    uint64; a key keeps its field's bytes and zeros the rest, so equal keys
    are equal fields, and keys sort as the fields do (none holds NUL)."""
    width = stops - starts
    if width.max() > _KEY_BYTES:
        return None
    pad = (_KEY_BYTES - width).astype(np.uint64) * np.uint64(8)
    return (words[starts].astype(np.uint64) >> pad) << pad


def _key_bytes(keys: np.ndarray) -> np.ndarray:
    """The fields of ``keys`` as an S8 array, the zero bytes dropped."""
    return keys.astype(">u8").view("S8")


class _Lookup:
    """The value of each field key, made once per distinct key.

    ``keys`` is sorted and starts with the key 0, which no field has, so a
    key's slot is always found; ``values`` is in the same order.  ``make``
    turns sorted distinct keys not seen before into their values, or None
    when one of them is invalid.
    """

    def __init__(self, make, dtype):
        self.keys = np.zeros(1, dtype=np.uint64)
        self.values = np.zeros(1, dtype=dtype)
        self.make = make

    def __call__(self, keys: np.ndarray) -> np.ndarray | None:
        slots = np.searchsorted(self.keys, keys)
        seen = self.keys.take(slots, mode="clip") == keys
        if not seen.all():
            fresh = sorted_distinct(keys[~seen])
            values = self.make(self, fresh)
            if values is None:
                return None
            at = np.searchsorted(self.keys, fresh)
            self.keys = np.insert(self.keys, at, fresh)
            self.values = np.insert(self.values, at, values)
            slots = np.searchsorted(self.keys, keys)
        return self.values[slots]

    def ranked(self) -> tuple[list[str], np.ndarray]:
        """The labels seen, sorted, and each id's position, as ``_ranked`` gives them."""
        return _key_bytes(self.keys[1:]).astype("U8").tolist(), np.argsort(self.values[1:])


def _new_ids(table: _Lookup, fresh: np.ndarray) -> np.ndarray:
    """The ids that follow those of ``table``, one per new label."""
    return np.arange(table.keys.size - 1, table.keys.size - 1 + fresh.size)


def _new_weights(table: _Lookup, fresh: np.ndarray) -> np.ndarray | None:
    """float() of each weight token; None if one is malformed, non-finite or negative."""
    try:
        values = np.array(list(map(float, _key_bytes(fresh).tolist())), dtype=np.float64)
    except ValueError:
        return None
    return values if np.all(np.isfinite(values) & (values >= 0)) else None


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


def _text_chunks(text: str) -> Iterator[bytes]:
    """An ASCII text's bytes in chunks of whole lines: each runs to the first
    newline at least ``_CHUNK_BYTES`` past its start."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_BYTES) + 1 or len(text)
        yield text[start:end].encode("ascii")
        start = end


def _file_chunks(file) -> Iterator[bytes]:
    """The chunks ``_text_chunks`` makes of a binary file's text."""
    while chunk := file.read(_CHUNK_BYTES):
        yield chunk + file.readline()


def _parse_chunk(chunk: bytes, sep: str, width: int, targets: list,
                 weights: _Lookup) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The group ids, packed (u, v) node ids (see ``_ranked_rows``) and
    weights of a chunk of body lines of ``width`` fields, the label fields
    looked up in ``targets`` (group 0 when they hold no group) and short
    weight tokens in ``weights``; None if the chunk is not regular (see
    ``_chunk_rows``)."""
    if any(byte in chunk for byte in _IRREGULAR + (b" " if sep == "," else b"")):
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
    words = np.ndarray(buf.shape, dtype=">u8", buffer=chunk + bytes(_KEY_BYTES - 1),
                       strides=(1,))
    ids = []
    for field, labels in enumerate(targets):
        keys = _field_keys(words, bounds[:, field] + 1, bounds[:, field + 1])
        if keys is None:
            return None
        ids.append(labels(keys))
    *group, u, v = ids
    if np.any(u == v):
        return None  # a self-loop
    group_ids = group[0] if group else np.zeros(ends.size, dtype=np.int64)
    pairs = u << 32 | v
    if width == len(targets):
        return group_ids, pairs, np.ones(ends.size)
    starts = bounds[:, width - 1] + 1
    keys = _field_keys(words, starts, ends)
    values = _weight_values(buf, starts, ends) if keys is None else weights(keys)
    return None if values is None else (group_ids, pairs, values)


def _chunk_rows(chunks: Iterator[bytes], sep: str, size: int) -> Rows | None:
    """Rows of a regular edge list (``sep=" "``) or layer CSV (``sep=","``)
    of ``size`` bytes, read from chunks of whole lines, or None to leave the
    input to the per-line reader.

    The head (leading ``#`` lines of an edge list, the header line of a CSV)
    is skipped.  The body after it is regular when it is ASCII and ends with a
    newline; every line has the same number of fields (3 or 4 for an edge
    list, 3 for a CSV), one separator apart and none empty; it holds no ``#``,
    NUL, quote, tab or CR, no other byte that str.split treats as whitespace
    (nor a space in a CSV); no label is longer than 8 bytes; and no line is a
    self-loop or has a weight that is malformed, non-finite or negative.
    Labels, and weight tokens of up to 8 bytes, are looked up among those
    already seen; only new ones are decoded.

    A row is held as 20 bytes: its int32 group id, its packed int64 (u, v)
    node ids, which ``_ranked_rows`` turns into its key in place, and its
    weight.  Each column goes into one slab, sized for the bytes left at 5%
    more rows per byte than so far, so it is rarely grown, and cut to the
    rows read at the end.  A slab is one large allocation, which the
    allocator returns to the system when it is freed; many chunk-sized
    blocks would stay on its heap.
    """
    is_csv = sep == ","
    groups, nodes = _Lookup(_new_ids, np.int64), _Lookup(_new_ids, np.int64)
    weights = _Lookup(_new_weights, np.float64)
    targets = [nodes, nodes] if is_csv else [groups, nodes, nodes]  # looked up per label field
    slabs = [np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int64), np.empty(0)]
    read = width = filled = 0  # bytes read, fields per line, rows in the slab
    head = True
    for chunk in chunks:
        read += len(chunk)
        if read >= 1 << 32 or not (chunk.isascii() and chunk.endswith(b"\n")):
            return None  # ids fit 31 bits: under 4 GB, a text holds fewer than 2**31 labels
        if head:
            start = 0
            if is_csv:
                start = chunk.find(b"\n") + 1
                if not any(cell.strip() for cell in chunk[:start].decode().split(",")):
                    return None  # csv.reader would skip a blank first line
            while not is_csv and chunk.startswith(b"#", start):
                start = chunk.find(b"\n", start) + 1
            if any(c in chunk[:start].decode() for c in _HEAD_IRREGULAR):
                return None
            head = not is_csv and start == len(chunk)  # more '#' lines may follow
            chunk = chunk[start:]
            if not chunk:
                continue
        if not width:
            width = chunk.count(sep.encode(), 0, chunk.find(b"\n")) + 1
            if width not in ((3,) if is_csv else (3, 4)):
                return None
        block = _parse_chunk(chunk, sep, width, targets, weights)
        if block is None:
            return None
        rows = len(block[0])
        if filled + rows > len(slabs[0]):
            done = filled + rows
            capacity = done + int(done / read * max(size - read, 0) * 1.05)
            slabs = [_grown(slab, filled, capacity) for slab in slabs]
        for slab, column in zip(slabs, block):
            slab[filled:filled + rows] = column
        filled += rows
    if not filled:
        return None
    for slab in slabs:
        slab.resize(filled, refcheck=False)  # in place; no view of a slab is left
    return _ranked_rows(([""], np.zeros(1, dtype=np.int64)) if is_csv else groups.ranked(),
                        nodes.ranked(), *slabs)


def _grown(slab: np.ndarray, filled: int, capacity: int) -> np.ndarray:
    """A new slab of ``capacity`` rows that starts with ``slab[:filled]``."""
    grown = np.empty(capacity, dtype=slab.dtype)
    grown[:filled] = slab[:filled]
    return grown


def _regular_rows(text: str, sep: str) -> Rows | None:
    """``_chunk_rows`` of a text."""
    return _chunk_rows(_text_chunks(text), sep, len(text)) if text.isascii() else None


def _layers_from_rows(names: list[str], labels: list[str], keys: np.ndarray,
                      weights: np.ndarray) -> tuple[NodeUniverse, list[LayerGraph]]:
    """One layer per group over the universe of ``labels``; a repeated (group,
    pair) keeps its last row and raises one DuplicateEdgeWarning carrying the
    count.  Keys that do not rise strictly already (those of every file
    mapnet writes do) are sorted in place with their weights.  Each layer's
    keys become its pair codes in place, and the keys and weights are made
    read-only, so the layers take slices of them and the rows are never held
    twice."""
    universe = NodeUniverse(tuple(labels))
    cells = universe.size ** 2
    if not np.all(keys[1:] > keys[:-1]):
        order = np.argsort(keys, kind="stable")
        keys[:] = keys[order]
        weights[:] = weights[order]
        del order
        last = np.append(keys[1:] != keys[:-1], True)  # the last row of each key
        if not last.all():
            keys, weights = keys[last], weights[last]
            warnings.warn(DuplicateEdgeWarning(last.size - keys.size), stacklevel=3)
    bounds = np.searchsorted(keys, np.arange(len(names) + 1) * cells)
    spans = list(zip(bounds[:-1], bounds[1:]))
    for g, (a, b) in enumerate(spans):
        keys[a:b] -= g * cells
    keys.flags.writeable = weights.flags.writeable = False
    return universe, [LayerGraph(universe, keys[a:b], weights[a:b]) for a, b in spans]


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
    return _listed_rows(_ranked(layer_ids), _ranked(nodes), ids, weights)


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


def _read_multiplex_edgelist(file) -> MultilayerNetwork:
    """parse_multiplex_edgelist of a binary file's UTF-8 text.

    A seekable file is read in chunks, so a regular body is never held as
    text; at the first irregular chunk the file is read again whole, from
    the start, by the per-line reader.  Other files are read whole.
    """
    if not file.seekable():
        return parse_multiplex_edgelist(file.read().decode("utf-8"))
    size = file.seek(0, io.SEEK_END)
    file.seek(0)
    rows = _chunk_rows(_file_chunks(file), " ", size)
    if rows is None:
        file.seek(0)
        rows = _edgelist_rows(file.read().decode("utf-8"))
    universe, layers = _layers_from_rows(*rows)
    return MultilayerNetwork(universe, tuple(layers), tuple(rows[0]))


def _quoted(label: str) -> str:
    """``label`` as a CSV field, quoted as csv.QUOTE_MINIMAL does."""
    return '"' + label.replace('"', '""') + '"' if any(c in label for c in ',"\r\n') else label


def _write_rows(header: str, columns: list, sep: str) -> Iterator[str]:
    """``header`` and one line per row, fields ``sep`` apart, yielded a chunk
    of rows at a time (see ``_row_chunks``)."""
    yield header + "\n"
    yield from _row_chunks(columns, sep)


def _row_chunks(columns: list, sep: str) -> Iterator[str]:
    """One line per row, fields ``sep`` apart, ``_WRITE_ROWS`` rows a chunk.

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
        yield "".join(part.ravel().tolist())


def _edgelist_chunks(universe: NodeUniverse, layer_names: Sequence[str],
                     layers: Iterable[LayerGraph]) -> Iterator[str]:
    """The chunks of serialize_multiplex_edgelist, each layer formatted on
    its own; every name and written label is checked before the first.

    ``layers`` may be an iterator, whose layers are then taken, written and
    dropped one at a time; only when a label of the universe is empty or
    holds whitespace are they gathered first, to check the pairs they write.
    """
    labels, n = universe.labels, universe.size
    spaced = np.array([any(ch.isspace() for ch in label) for label in labels], dtype=bool)
    if spaced.any() or "" in labels:
        layers = tuple(layers)
    for g, layer_id in enumerate(layer_names):
        if not layer_id or layer_id.startswith("#"):
            raise ValueError(f"layer name {layer_id!r} is empty or starts with '#'")
        if any(ch.isspace() for ch in layer_id):
            raise ValueError(f"layer name {layer_id!r} contains whitespace")
        if spaced.any() and spaced[np.concatenate(pair_indices(layers[g].codes, n))].any():
            raise ValueError("node labels must not contain whitespace")
    if "" in labels:
        empty = labels.index("")
        if any(empty in np.concatenate(pair_indices(layer.codes, n)) for layer in layers):
            raise ValueError("node labels must not be empty")

    def chunks():
        yield "# layer node_u node_v weight\n"
        for g, layer in enumerate(layers):
            i, j = pair_indices(layer.codes, n)
            columns = [(layer_names, np.broadcast_to(g, i.shape)), (labels, i), (labels, j)]
            yield from _row_chunks([*columns, layer.values], " ")
            del layer, i, j, columns  # not held while the next layer is made

    return chunks()


def serialize_multiplex_edgelist(net: MultilayerNetwork) -> str:
    """Inverse of parse_multiplex_edgelist (exact when layer names are sorted).

    Zero-weight measurable pairs are written as explicit weight-0 lines so
    that observation counts survive a round trip.  ValueError for names the
    reader would misread: a layer name that is empty, starts with ``#`` or
    holds whitespace, and a written node label that is empty or holds
    whitespace.
    """
    return "".join(_edgelist_chunks(net.universe, net.layer_names, net.layers))


def _layer_csv_chunks(layer: LayerGraph, value_name: str = "weight") -> Iterator[str]:
    """The chunks of serialize_layer_csv; raises before the first."""
    labels = layer.universe.labels
    i, j = pair_indices(layer.codes, layer.universe.size)
    padded = np.array([label != label.strip() for label in labels], dtype=bool)
    if padded[i].any() or padded[j].any():
        raise ValueError("node labels must not start or end with whitespace")
    return _write_rows(f"node_u,node_v,{value_name}", [(labels, i), (labels, j), layer.values], ",")


def serialize_layer_csv(layer: LayerGraph, value_name: str = "weight") -> str:
    """A layer as ``node_u,node_v,<value_name>`` rows in pair order, zeros
    included.  ValueError for a written node label with leading or trailing
    whitespace, which the reader would strip."""
    return "".join(_layer_csv_chunks(layer, value_name))


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
    return _listed_rows(([""], np.zeros(1, dtype=np.int64)), _ranked(nodes), ids, weights)


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

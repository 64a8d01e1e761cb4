"""Readers and writers for raw inputs and results: expression matrices,
multiplex edge lists, layer CSVs and the JSON sidecars of results.

Expression CSV: first row is a header of condition labels, first column
holds gene labels, empty cells (or NA/NaN tokens) are missing values;
infinite values are rejected.  Multiplex edge list: whitespace-separated
``layer_id node_u node_v [weight]`` lines with ``#`` comments; a missing
weight defaults to 1, an explicit weight of 0 records a measured-but-zero
observation, and a non-finite weight is rejected.

Edge lists and ``node_u,node_v,weight`` layer CSVs are read by ``_rows`` in
chunks of about 256 KB of whole lines, from a text or, for the CLI's edge
lists, straight from the binary file, so no file but a pipe is read whole.
A regular body (see ``_chunk_rows``) is read by numpy into slabs sized from
the input's newline count.  Each field of a chunk is keyed by its bytes,
zero-padded to the 8·k bytes of the widest field of its column (one uint64
when that is 8 bytes or fewer), so long labels take this path too:
labels are looked up among those already seen, and only new ones are
decoded, and each distinct weight token of a chunk is read by float() once.
Any other input falls back to the per-line reader, the only source of
errors, which reads the lines of the same chunks.  Both readers hand
``_network`` the same ``Rows``, 20 bytes a row, and ``_network`` alone sorts the
labels, turns each row into one int64 key (layer, pair), keeps the last of
repeated rows and splits the layers; keys that already rise, as in every
file mapnet writes, are not sorted again, and the layers keep read-only
slices of the keys and weights, so no row is held twice.

One column writer, ``_row_chunks``, writes every text output: each label
is formatted once, each distinct number of a chunk of rows once by repr,
and each chunk is joined at once and yielded.  ``edgelist_chunks`` formats
and drops one layer at a time, so ``synth gen`` writes each layer as it is
drawn; layer CSVs and the CLI's tables go through ``table_chunks``.  The
CLI writes the chunks to the open file one at a time, so no output is held
whole; ``serialize_multiplex_edgelist`` joins them.  ``edgelist_chunks`` and
``layer_csv_chunks`` raise on a name the reader would misread before the
first chunk, so before the CLI opens the file.  CSV labels holding a
comma, quote, CR or LF are quoted as csv.QUOTE_MINIMAL does.
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
    """Genes x conditions matrix of expression values; NaN marks missing.

    Raises DuplicateLabel on a repeated gene or condition label.
    """

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
        for kind, labels in (("gene", self.genes), ("condition", self.conditions)):
            if len(set(labels)) != len(labels):
                seen = set()
                dup = next(label for label in labels if label in seen or seen.add(label))
                raise DuplicateLabel(f"duplicate {kind} label {dup!r}")
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
        raise NegativeWeight(f"negative weight {weight}", line=line, column=column)
    return weight


def _csv_rows(lines: Iterable[str]):
    """The non-blank rows of CSV lines, each with the physical line it ends on.  A line's CR
    or LF end is kept, for csv.reader to keep in a quoted field, and any other break dropped."""
    reader = csv.reader(line.rstrip(_BREAKS) for line in lines)
    try:
        yield from ((reader.line_num, row) for row in reader if any(c.strip() for c in row))
    except csv.Error as err:  # such as a field over the csv module's limit
        raise ParseError(str(err), line=reader.line_num) from None


def parse_expression_csv(text: str, name: str = "") -> ExpressionDataset:
    """Parse an expression CSV into a dataset.

    The first non-blank row is the header; blank rows are skipped.  Raises
    ParseError with 1-based line/column (lines count every physical line,
    column counts CSV fields) on malformed or infinite numbers or ragged
    rows, and DuplicateLabel on repeated gene or condition labels.
    """
    rows = list(_csv_rows(text.splitlines(keepends=True)))
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
    return ExpressionDataset(tuple(genes), tuple(conditions), data, name=name)


# (group names, node labels, each in the order of its ids; per row, in input
# order, its int32 group id, its int64 node ids (u, v) packed as u·2³² + v,
# and its float64 weight), 20 bytes a row; the group ids own their data
Rows = tuple[list[str], list[str], np.ndarray, np.ndarray, np.ndarray]

_CHUNK_BYTES = 1 << 18
_WRITE_ROWS = 1 << 12
# Bytes that make a body irregular: NUL (the key padding), quote, '#', and
# every ASCII byte other than space and newline that str.split treats as
# whitespace, which includes every ASCII line break of str.splitlines.
_IRREGULAR = b'\0"#\t\r\x0b\x0c\x1c\x1d\x1e\x1f'
# The comment lines or CSV header may hold anything but NUL, quotes and
# line breaks other than newline.
_HEAD_IRREGULAR = '\0"\r\x0b\x0c\x1c\x1d\x1e'
_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"  # those of str.splitlines but CR and LF


def _ranked(labels: list[str]) -> tuple[list[str], np.ndarray]:
    """``labels`` sorted, and for each id (a position in ``labels``) its label's sorted position."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    return [labels[i] for i in order], np.argsort(order)


# _LEADING[n] keeps the n leading bytes of a big-endian word.
_LEADING = np.array([(1 << 64) - (1 << 64 - 8 * n) for n in range(9)], dtype=np.uint64)


def _field_keys(words: np.ndarray, starts: np.ndarray, stops: np.ndarray) -> np.ndarray:
    """One key per field ``bytes[starts:stops]``: its bytes zero-padded to
    8·k bytes, k words for the widest field, as a uint64 when k is 1 and an
    ``S{8k}`` string otherwise.  ``words[i]`` holds the 8 bytes from ``i`` as
    a big-endian uint64.  Equal keys are equal fields, and keys sort as the
    fields do (none holds NUL)."""
    width = stops - starts
    offsets = np.arange(0, width.max(), 8)
    keys = (words[starts[:, None] + offsets].astype(np.uint64)
            & _LEADING[np.clip(width[:, None] - offsets, 0, 8)])
    return keys[:, 0] if offsets.size == 1 else _key_strings(keys)


def _key_strings(keys: np.ndarray) -> np.ndarray:
    """Keys as ``S{8k}`` strings of their bytes: uint64 keys, rows of k words
    each, or strings already."""
    if keys.dtype.kind == "S":
        return keys
    words = keys.reshape(len(keys), -1)
    return words.astype(">u8").view(f"S{8 * words.shape[1]}").ravel()


class _Lookup:
    """The id of each field key, given in the order the keys are first seen.

    ``keys`` is sorted and starts with the all-zero key, which no field has,
    so a key's slot is always found; ``ids`` is in the same order.  The keys
    are uint64 until a field longer than 8 bytes arrives, and then strings as
    wide as the widest key seen.
    """

    def __init__(self):
        self.keys = np.zeros(1, dtype=np.uint64)
        self.ids = np.zeros(1, dtype=np.int64)

    def __call__(self, keys: np.ndarray) -> np.ndarray:
        if keys.dtype != self.keys.dtype:  # both become strings as wide as the wider
            wide = f"S{max(keys.itemsize, self.keys.itemsize)}"
            keys = _key_strings(keys).astype(wide, copy=False)
            self.keys = _key_strings(self.keys).astype(wide, copy=False)
        slots = np.searchsorted(self.keys, keys)
        seen = self.keys.take(slots, mode="clip") == keys
        if not seen.all():
            fresh = sorted_distinct(keys[~seen])
            at = np.searchsorted(self.keys, fresh)
            count = self.keys.size - 1
            self.ids = np.insert(self.ids, at, np.arange(count, count + fresh.size))
            self.keys = np.insert(self.keys, at, fresh)
            slots = np.searchsorted(self.keys, keys)
        return self.ids[slots]

    def labels(self) -> list[str]:
        """The labels seen, in the order of their ids."""
        keys = _key_strings(self.keys[1:])[np.argsort(self.ids[1:])]
        return [key.decode() for key in keys.tolist()]


def _weights(keys: np.ndarray) -> np.ndarray | None:
    """The weight of each token key, each distinct token read by float() once;
    None if one is malformed, non-finite or negative."""
    distinct, index = np.unique(keys, return_inverse=True)  # sorts; no numpy.ma import
    try:
        values = np.array(list(map(float, _key_strings(distinct).tolist())), dtype=np.float64)
    except ValueError:
        return None
    return values[index] if np.all(np.isfinite(values) & (values >= 0)) else None


def _text_chunks(text: str) -> Iterator[bytes]:
    """A text's UTF-8 bytes (lone surrogates kept) after a leading byte order mark, in chunks of
    whole lines: each runs to the first newline at least ``_CHUNK_BYTES`` past its start."""
    start = int(text.startswith("\ufeff"))
    while start < len(text):
        end = text.find("\n", start + _CHUNK_BYTES) + 1 or len(text)
        yield text[start:end].encode("utf-8", "surrogatepass")
        start = end


def _file_chunks(file) -> Iterator[bytes]:
    """The chunks ``_text_chunks`` makes of a binary file's text, read after any byte order mark;
    one that is not UTF-8 raises what decoding the whole text does, in ``_rows``' first pass."""
    file.seek(0)
    file.seek(3 if file.read(3) == b"\xef\xbb\xbf" else 0)
    while chunk := file.read(_CHUNK_BYTES):
        chunk += file.readline()  # frees the read, which yielding the sum would hold
        try:
            chunk.isascii() or chunk.decode("utf-8")
        except UnicodeDecodeError:  # the file's first bad byte: a chunk ends after a newline
            file.seek(0)
            file.read().decode("utf-8")
        yield chunk


def _parse_chunk(chunk: bytes, sep: str, width: int,
                 targets: list) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The group ids, packed (u, v) node ids (see ``Rows``) and
    weights of a chunk of body lines of ``width`` fields; None if the chunk
    is not regular (see ``_chunk_rows``).  Each field is keyed by its bytes
    (see ``_field_keys``), the label fields looked up in ``targets`` (group 0
    when they hold no group) and the weight tokens read by ``_weights``."""
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
    gaps = np.diff(bounds, axis=1)  # each field's width + 1
    if gaps.min() < 2:
        return None
    widest = int(gaps.max()) - 1
    del gaps, seps
    if widest * ends.size > 8 * len(chunk):
        return None  # keys as wide as the widest field would dwarf the chunk
    # words[i]: the 8 bytes from byte i as a big-endian uint64, zeros past
    # the chunk's end, for every i that a word of a field starts at
    words = np.ndarray(len(chunk) + widest, dtype=">u8", buffer=chunk + bytes(widest + 7),
                       strides=(1,))
    # the weights first, so the temporaries of their sort sit beside no ids
    values = (np.ones(ends.size) if width == len(targets) else
              _weights(_field_keys(words, bounds[:, width - 1] + 1, ends)))
    if values is None:
        return None
    *group, u, v = [labels(_field_keys(words, bounds[:, field] + 1, bounds[:, field + 1]))
                    for field, labels in enumerate(targets)]
    if np.any(u == v):
        return None  # a self-loop
    group_ids = group[0] if group else np.zeros(ends.size, dtype=np.int64)
    return group_ids, u << 32 | v, values


def _chunk_rows(chunks: Iterator[bytes], sep: str, lines: int) -> Rows | None:
    """Rows of a regular edge list (``sep=" "``) or layer CSV (``sep=","``)
    of ``lines`` newlines, read from chunks of whole lines, or None to leave
    the input to the per-line reader.

    The head (leading ``#`` lines of an edge list, the header line of a CSV)
    is skipped.  The body after it is regular when it is ASCII and ends with a
    newline; every line has the same number of fields (3 or 4 for an edge
    list, 3 for a CSV), one separator apart and none empty; it holds no ``#``,
    NUL, quote, tab or CR, no other byte that str.split treats as whitespace
    (nor a space in a CSV); no field is more than 8 times as long as the
    mean line of its chunk, since each row's key takes as many bytes as the
    widest field of its column; and no line is a self-loop or has a weight
    that is malformed, non-finite or negative.  Labels and layer names are
    looked up among those already seen, so only new ones are decoded, and
    each distinct weight token of a chunk is read once.

    A row is held as 20 bytes, as ``Rows`` has it: its int32 group id, its packed int64 (u, v)
    node ids and its weight.  Each column goes into one slab of ``lines`` rows, as many as a
    regular body can hold, cut to the rows read at the end.  A body with more rows (its file
    changed after the newlines were counted) is left to the per-line reader.  A slab is one
    large allocation, which the allocator returns to the system when freed; many chunk-sized
    blocks would stay on its heap.  The slabs are made only once a first block has parsed, as
    freeing them raises glibc's mmap threshold and so keeps a per-line read's columns on the heap.
    """
    is_csv = sep == ","
    groups, nodes = _Lookup(), _Lookup()
    targets = [nodes, nodes] if is_csv else [groups, nodes, nodes]  # looked up per label field
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
        block = _parse_chunk(chunk, sep, width, targets)
        if block is None:
            return None
        rows = len(block[0])
        if filled + rows > lines:
            return None
        if not filled:
            slabs = [np.empty(lines, dtype=np.int32), np.empty(lines, dtype=np.int64), np.empty(lines)]
        for slab, column in zip(slabs, block):
            slab[filled:filled + rows] = column
        filled += rows
    if not filled:
        return None
    for slab in slabs:
        slab.resize(filled, refcheck=False)  # in place; no view of a slab is left
    return [""] if is_csv else groups.labels(), nodes.labels(), *slabs


def _rows(chunks, sep: str, per_line) -> Rows:
    """Rows of the chunks each ``chunks()`` yields: by ``_chunk_rows``, given the newline count
    of a first pass, or else by ``per_line`` from their lines, ends kept, one chunk decoded at a
    time (every chunk ends after a newline, so these are the lines str.splitlines gives)."""
    lines = sum(chunk.count(b"\n") for chunk in chunks())
    return _chunk_rows(chunks(), sep, lines) or per_line(
        line for chunk in chunks() for line in chunk.decode("utf-8", "surrogatepass").splitlines(True))


def _network(rows: Rows) -> MultilayerNetwork:
    """The network of ``rows``: one layer per group, the layers and the
    universe in the sorted order of the group names and labels.

    Both are ranked by ``_ranked``, and each row's packed ids are overwritten
    by its key g·N² + i·N + j, for its group's position g and the pair code
    i·N + j over the label positions, ``_WRITE_ROWS`` rows at a time, so no
    temporary is as long as the rows.  The group ids are then freed, in place,
    before any sort.  A repeated (group, pair) keeps its last row and raises
    one DuplicateEdgeWarning carrying the count.  Keys that do not rise
    strictly already (those of every file mapnet writes do) are sorted in
    place with their weights.  Each layer's keys become its pair codes in
    place, and the keys and weights are made read-only, so the layers take
    slices of them and the rows are never held twice."""
    names, labels, group_ids, keys, weights = rows
    (names, group_rank), (labels, node_rank) = _ranked(names), _ranked(labels)
    universe = NodeUniverse(tuple(labels))
    n, cells = universe.size, universe.size ** 2
    for at in range(0, len(keys), _WRITE_ROWS):
        part = keys[at:at + _WRITE_ROWS]
        part[:] = pair_codes(node_rank[part >> 32], node_rank[part & 0xFFFFFFFF], n)
        part += group_rank[group_ids[at:at + _WRITE_ROWS]] * cells
    group_ids.resize(0, refcheck=False)  # the caller's rows hold it too
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
    layers = tuple(LayerGraph(universe, keys[a:b], weights[a:b]) for a, b in spans)
    return MultilayerNetwork(universe, layers, tuple(names))


def _line_rows(records, empty: str) -> Rows:
    """Rows of ``(line, group, u, v, weight token or None, weight column)`` records, a missing
    weight read as 1; raises on the first self-loop or bad weight, and ``empty`` when none."""
    names: dict[str, int] = {}
    nodes: dict[str, int] = {}
    groups, pairs, weights = array("i"), array("q"), array("d")
    for line, group, u, v, token, column in records:
        if u == v:
            raise ParseError(f"self-loop on {u!r}", line=line)
        weights.append(1.0 if token is None else _parse_weight(token, line, column))
        groups.append(names.setdefault(group, len(names)))
        pairs.append(nodes.setdefault(u, len(nodes)) << 32 | nodes.setdefault(v, len(nodes)))
    if not weights:
        raise ParseError(empty)
    columns = [groups, pairs, weights]
    del groups, pairs, weights  # each array is freed once its copy is made
    return list(names), list(nodes), *(np.array(columns.pop(0)) for _ in range(3))


def _edgelist_rows(lines: Iterable[str]) -> Rows:
    """Rows of an edge list's lines; raises on the first bad line."""
    def records():
        for lineno, line in enumerate(lines, start=1):
            fields = line.split()
            if fields and not fields[0].startswith("#"):
                if len(fields) not in (3, 4):
                    message = f"expected 'layer u v [weight]', found {len(fields)} fields"
                    raise ParseError(message, line=lineno)
                yield lineno, fields[0], fields[1], fields[2], fields[3] if len(fields) == 4 else None, 4
    return _line_rows(records(), "no edges found")


def parse_multiplex_edgelist(text: str) -> MultilayerNetwork:
    """Parse a multiplex edge list into a multilayer network.

    Layers are ordered by sorted layer id; the universe is the sorted
    union of endpoint labels.  Duplicate (layer, u, v) lines keep the last
    occurrence and raise a DuplicateEdgeWarning carrying the count.  For
    edge-list input the measurable set of a layer equals its recorded
    pairs (absence of a line means no measurement, not a zero).
    """
    return _network(_rows(lambda: _text_chunks(text), " ", _edgelist_rows))


def read_multiplex_edgelist(file) -> MultilayerNetwork:
    """parse_multiplex_edgelist of a binary file's UTF-8 text, read by ``_rows`` a chunk at a
    time (see ``_file_chunks``); a file that cannot seek, such as a pipe, is read whole first."""
    if not file.seekable():
        file = io.BytesIO(file.read())
    return _network(_rows(lambda: _file_chunks(file), " ", _edgelist_rows))


def _quoted(label: str) -> str:
    """``label`` as a CSV field, quoted as csv.QUOTE_MINIMAL does."""
    return '"' + label.replace('"', '""') + '"' if any(c in label for c in ',"\r\n') else label


def table_chunks(header: str, columns: list) -> Iterator[str]:
    """``header`` and one CSV line per row, yielded a chunk of rows at a time
    (see ``_row_chunks``)."""
    yield header + "\n"
    yield from _row_chunks(columns, ",")


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


def edgelist_chunks(universe: NodeUniverse, layer_names: Sequence[str],
                    layers: Iterable[LayerGraph]) -> Iterator[str]:
    """The chunks of serialize_multiplex_edgelist, each layer formatted on
    its own; every name and written label is checked before the first, and a
    layer with no pair, which the edge list cannot hold, when its turn comes.

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
            if not layer.codes.size:
                raise ValueError(f"layer {layer_names[g]!r} has no pair;"
                                 " an edge list cannot hold an empty layer")
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
    whitespace; and for a layer with no pair, which the reader would not see.
    """
    return "".join(edgelist_chunks(net.universe, net.layer_names, net.layers))


def layer_csv_chunks(layer: LayerGraph, value_name: str = "weight") -> Iterator[str]:
    """A layer as ``node_u,node_v,<value_name>`` rows in pair order, zeros
    included.  ValueError, before the first chunk, for a written node label that
    the reader would strip (whitespace at an edge) or split (a line break but CR
    and LF, which are quoted)."""
    labels = layer.universe.labels
    i, j = pair_indices(layer.codes, layer.universe.size)
    unread = np.array([label != label.strip() or any(c in label for c in _BREAKS)
                       for label in labels], dtype=bool)  # labels the reader strips or splits
    if unread[i].any() or unread[j].any():
        raise ValueError("node labels must not start or end with whitespace, nor hold a line"
                         " break other than CR and LF")
    return table_chunks(f"node_u,node_v,{value_name}", [(labels, i), (labels, j), layer.values])


def _layer_csv_rows(lines: Iterable[str]) -> Rows:
    """Rows of a layer CSV's lines, read row by row; raises on the first bad row."""
    def records():
        rows = _csv_rows(lines)
        next(rows, None)  # header
        for lineno, row in rows:
            if len(row) != 3:
                raise ParseError(f"expected 3 fields, found {len(row)}", line=lineno)
            yield lineno, "", row[0].strip(), row[1].strip(), row[2], 3
    return _line_rows(records(), "expected a header and at least one edge row")


def parse_layer_csv(text: str) -> LayerGraph:
    """Parse a ``node_u,node_v,weight`` CSV into a single layer.

    Rows with weight 0 are recorded as measured-but-zero pairs.  The first
    non-blank row is the header; blank rows are skipped, and line numbers
    in errors count every physical line.
    """
    return _network(_rows(lambda: _text_chunks(text), ",", _layer_csv_rows)).layers[0]


_SIDECAR_TYPES = {bool: (bool, "a boolean"), int: (int, "an integer"), float: ((int, float), "a number")}


def sidecar(layer: LayerGraph) -> dict:
    """The JSON sidecar of a result layer: each field its type lists in ``SIDECAR``."""
    return {name: getattr(layer, name) for name, _, _ in type(layer).SIDECAR}


def _sidecar_field(sidecar: dict, name: str, kind, bound):
    if name not in sidecar:
        if kind is float and bound is None:
            return math.nan
        raise ParseError(f"sidecar has no field {name!r}")
    value = sidecar[name]
    types, noun = _SIDECAR_TYPES[kind]
    if not isinstance(value, types) or isinstance(value, bool) != (kind is bool):
        raise ParseError(f"sidecar field {name!r} is not {noun}: {value!r}")
    if kind is float:
        try:
            value = float(value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf if value > 0 else -math.inf
        if bound and not math.isfinite(value):
            raise ParseError(f"sidecar field {name!r} is not finite: {sidecar[name]!r}")
    if bound and not bound[0] < value <= bound[1]:
        noun = "positive" if bound == (0, math.inf) else "in ({}, {}]".format(*bound)
        raise ParseError(f"sidecar field {name!r} is not {noun}: {value!r}")
    return value


def parse_result_csv(cls, text: str, sidecar) -> LayerGraph:
    """A result layer of type ``cls`` from its layer CSV and JSON sidecar.  ``cls.SIDECAR``
    lists the sidecar's fields, checked in order, as ``(name, kind, bound)``: a JSON boolean
    for bool, an integer for int, any number but a boolean for float.  A bound ``(low, high)``
    holds ``low < value <= high`` and a finite value; an unbounded float may be missing (NaN)
    or not finite.  ParseError names a field that is missing, of another kind or out of bound."""
    layer = parse_layer_csv(text)
    if not isinstance(sidecar, dict):
        raise ParseError(f"sidecar must be a JSON object, found {type(sidecar).__name__}")
    fields = {name: _sidecar_field(sidecar, name, kind, bound) for name, kind, bound in cls.SIDECAR}
    return cls(layer.universe, layer.codes, layer.values, **fields)


def parse_aggregated_csv(text: str, sidecar: dict) -> AggregatedNetwork:
    """Rebuild an aggregated network from its CSV and sidecar (see ``parse_result_csv``)."""
    return parse_result_csv(AggregatedNetwork, text, sidecar)

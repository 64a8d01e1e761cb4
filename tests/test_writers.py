"""The column writer behind every text output, checked byte for byte against
the per-row f-string writers it replaced, and the CLI's warning lines."""

import csv
import io
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mapnet
from mapnet import LayerGraph, MultilayerNetwork, NodeUniverse, generate_synthetic
from mapnet import ingest, parse_layer_csv, parse_multiplex_edgelist, serialize_multiplex_edgelist
from mapnet.cli import main
from mapnet.core import pair_indices, reindexed
from mapnet.ingest import sidecar, table_chunks
from mapnet.synth import SyntheticTruth, truth_to_csv
from conftest import layer_csv


# -- the per-row writers the column writer replaced, kept as oracles --------


def _csv_field(text):
    """``text`` as one field of csv.writer's default (QUOTE_MINIMAL) dialect."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text])
    return buf.getvalue()[:-2]  # without the "\r\n" line terminator


def _edgelist_oracle(net):
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
    lines.append("")
    return "\n".join(lines)


def _layer_csv_oracle(layer, value_name="weight"):
    # the old writer, with each label quoted as csv.writer would
    labels = np.array([_csv_field(label) for label in layer.universe.labels], dtype=object)
    i, j = pair_indices(layer.codes, layer.universe.size)
    rows = zip(labels[i].tolist(), labels[j].tolist(), layer.values.tolist())
    lines = [f"node_u,node_v,{value_name}"]
    lines.extend(f"{u},{v},{w!r}" for u, v, w in rows)
    lines.append("")
    return "\n".join(lines)


def _table_oracle(header, rows):
    lines = [header]
    lines.extend(",".join(_csv_field(v) if isinstance(v, str) else repr(v) for v in row)
                 for row in rows)
    return "\n".join(lines) + "\n"


# -- strategies ---------------------------------------------------------------

# where repr changes notation, integer-valued floats, subnormals and extremes
EDGE_VALUES = [0.0, 1.0, 3.0, 1e16, 9999999999999998.0, 1e-5, 0.0001, 1e22, 123456789.0,
               5e-324, 2.225073858507201e-308, 2.2250738585072014e-308, 1.7976931348623157e308]
WEIGHTS = st.one_of(
    st.sampled_from(EDGE_VALUES),
    st.integers(0, 9).map(float),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
)
NODE_TEXT = st.text(min_size=1, max_size=5)
SPACELESS = NODE_TEXT.filter(lambda s: not any(ch.isspace() for ch in s))
# labels with the characters that csv.QUOTE_MINIMAL quotes and line breaks that it does not;
# the CSV writer rejects those with whitespace at an edge, which the reader would strip, and
# those with a line break other than CR and LF, at which the reader would split the line
CSV_LABELS = st.text(st.sampled_from('ab,"# é中\t\n\r\x1c\x85\u2028'), min_size=1, max_size=4)
UNREAD = "node labels must not start or end with whitespace, nor hold a line break other than CR and LF"


def _unread(label):
    """Whether the layer-CSV reader would strip ``label`` or split its line in it."""
    unquoted = label.replace("\r", "").replace("\n", "")  # quoted, and kept in the field
    return label != label.strip() or bool(unquoted) and unquoted.splitlines() != [unquoted]


def _empty_layer(net):
    """The name of the network's first layer with no pair, or None."""
    return next((name for name, layer in zip(net.layer_names, net.layers) if not layer.codes.size), None)


def _writes_unread_label(layer):
    """Whether a row of the layer names a label that the reader would not read back."""
    i, j = pair_indices(layer.codes, layer.universe.size)
    written = {layer.universe.labels[n] for n in [*i.tolist(), *j.tolist()]}
    return any(map(_unread, written))


def _column(draw, values, size):
    """``size`` values: any, all distinct, or one value repeated."""
    shape = draw(st.sampled_from(["any", "distinct", "single"]))
    if shape == "single":
        return [draw(values)] * size
    unique_by = _distinct_key if shape == "distinct" else None
    return draw(st.lists(values, min_size=size, max_size=size, unique_by=unique_by))


def _distinct_key(value):
    return repr(value) if isinstance(value, float) else (type(value), value)


@st.composite
def layers(draw, labels=NODE_TEXT, min_pairs=0):
    names = draw(st.lists(labels, min_size=2, max_size=8, unique=True))
    n = len(names)
    codes = sorted(draw(st.lists(st.sampled_from([i * n + j for i in range(n)
                                                  for j in range(i + 1, n)]),
                                 min_size=min_pairs, unique=True)))
    return LayerGraph(NodeUniverse(tuple(names)), codes, _column(draw, WEIGHTS, len(codes)))


@st.composite
def networks(draw, min_pairs=0):
    first = draw(layers(SPACELESS, min_pairs))
    names = sorted(draw(st.lists(SPACELESS.filter(lambda s: not s.startswith("#")),
                                 min_size=1, max_size=4, unique=True)))
    pool = first.codes.tolist()
    rest = [first]
    for _ in names[1:]:
        picks = st.lists(st.sampled_from(pool), min_size=min_pairs, unique=True) if pool else []
        codes = sorted(draw(picks) if pool else picks)
        rest.append(LayerGraph(first.universe, codes, _column(draw, WEIGHTS, len(codes))))
    return MultilayerNetwork(first.universe, tuple(rest), tuple(names))


NUMBERS = st.one_of(
    st.sampled_from(EDGE_VALUES + [-0.0, math.nan, -math.nan, math.inf, -math.inf, -1e16]),
    st.floats(),
)
TABLE_KINDS = {
    "str": NODE_TEXT,
    "int": st.integers(-(2**63), 2**63 - 1),
    "float": NUMBERS,
}


@st.composite
def tables(draw):
    """Columns as ``table_chunks`` takes them, and the same table as rows.

    A label column indexes a drawn label list, which may hold repeated and
    unused labels, as a universe's labels hold unused ones."""
    kinds = draw(st.lists(st.sampled_from(sorted(TABLE_KINDS)), min_size=1, max_size=4))
    size = draw(st.integers(0, 12))
    columns, cells = [], []
    for kind in kinds:
        if kind == "str":
            labels = draw(st.lists(NODE_TEXT, min_size=1, max_size=6))
            index = draw(st.lists(st.integers(0, len(labels) - 1), min_size=size, max_size=size))
            columns.append((labels, np.array(index, dtype=np.int64)))
            cells.append([labels[i] for i in index])
        else:
            values = _column(draw, TABLE_KINDS[kind], size)
            columns.append(np.array(values, dtype=np.int64 if kind == "int" else float))
            cells.append(values)
    return columns, list(zip(*cells))


CHUNKS = st.sampled_from([1, 2, 7, ingest._WRITE_ROWS])


def _chunked(chunk, write, *args):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_WRITE_ROWS", chunk)
        return write(*args)


def _table_text(header, columns):
    """The chunks ``table_chunks`` yields, joined."""
    return "".join(table_chunks(header, columns))


# -- byte equality with the per-row writers -----------------------------------


class TestSameBytes:
    @settings(max_examples=150, deadline=None)
    @given(net=networks(), chunk=CHUNKS)
    def test_edgelist(self, net, chunk):
        if (empty := _empty_layer(net)) is not None:
            with pytest.raises(ValueError, match=f"layer {re.escape(repr(empty))} has no pair"):
                serialize_multiplex_edgelist(net)
            return
        assert _chunked(chunk, serialize_multiplex_edgelist, net) == _edgelist_oracle(net)

    @settings(max_examples=150, deadline=None)
    @given(layer=layers(), chunk=CHUNKS, name=st.sampled_from(["weight", "lambda"]))
    def test_layer_csv(self, layer, chunk, name):
        if _writes_unread_label(layer):
            with pytest.raises(ValueError, match=UNREAD):
                layer_csv(layer, name)
            return
        assert _chunked(chunk, layer_csv, layer, name) == _layer_csv_oracle(layer, name)

    @settings(max_examples=150, deadline=None)
    @given(table=tables(), chunk=CHUNKS)
    def test_table(self, table, chunk):
        columns, rows = table
        header = "a,b,c,d"
        assert _chunked(chunk, _table_text, header, columns) == _table_oracle(header, rows)

    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_chunk_boundaries(self, chunk, monkeypatch):
        net, truth = generate_synthetic(n=9, d=3, coverage=0.7, seed=2)
        rows = [(f"n{k}", k % 3, k / 3, -0.0 if k % 2 else 0.0) for k in range(23)]
        row = np.arange(23)
        labels = [f"n{k}" for k in range(23)]
        columns = [(labels, row), row % 3, row / 3, np.where(row % 2, -0.0, 0.0)]
        expected = (_edgelist_oracle(net), _layer_csv_oracle(truth, "lambda_star"),
                    _table_oracle("h", rows))
        monkeypatch.setattr(ingest, "_WRITE_ROWS", chunk)
        assert (serialize_multiplex_edgelist(net), truth_to_csv(truth),
                _table_text("h", columns)) == expected

    def test_zero_signs_and_nan_keep_their_text(self):
        rows = [(0.0, 1), (-0.0, 2), (math.nan, 3), (0.0, 4), (-0.0, 5), (-math.nan, 6)]
        x = np.array([0.0, -0.0, math.nan, 0.0, -0.0, -math.nan])
        text = _table_text("x,k", [x, np.arange(1, 7)])
        assert text == "x,k\n0.0,1\n-0.0,2\nnan,3\n0.0,4\n-0.0,5\nnan,6\n"
        assert text == _table_oracle("x,k", rows)

    def test_empty_layer_and_table(self):
        layer = LayerGraph(NodeUniverse(("a", "b")), [], [])
        assert layer_csv(layer) == "node_u,node_v,weight\n"
        # the reader would not see the layer, so the edge list refuses it
        empty = MultilayerNetwork(layer.universe, (layer,), ("L1",))
        with pytest.raises(ValueError, match="layer 'L1' has no pair"):
            serialize_multiplex_edgelist(empty)
        columns = [np.array([], dtype=np.int64), np.array([]), np.array([])]
        assert _table_text("size,mean_theta,mean_r2", columns) == "size,mean_theta,mean_r2\n"

    def test_non_ascii_and_quoted_labels(self):
        universe = NodeUniverse(("é", "中文", "a,b", 'say "hi"', "x\ny"))
        layer = LayerGraph(universe, [1, 2, 3, 4, 7], [1.0, 2.5, 0.0, 1e16, 7.0])
        assert layer_csv(layer) == (
            "node_u,node_v,weight\n"
            "é,中文,1.0\n"
            'é,"a,b",2.5\n'
            'é,"say ""hi""",0.0\n'
            'é,"x\ny",1e+16\n'
            '中文,"a,b",7.0\n'
        )
        assert layer_csv(layer) == _layer_csv_oracle(layer)
        net = MultilayerNetwork(universe, (layer,), ("é",))
        with pytest.raises(ValueError, match="node labels must not contain whitespace"):
            serialize_multiplex_edgelist(net)

    def test_whitespace_checks(self):
        universe = NodeUniverse(("a", "b c", "d"))
        clean = LayerGraph(universe, [2], [1.0])  # a-d
        spaced = LayerGraph(universe, [1], [1.0])  # a-"b c"
        # a label with whitespace is fine while no written row uses it
        net = MultilayerNetwork(universe, (clean,), ("L1",))
        assert serialize_multiplex_edgelist(net) == _edgelist_oracle(net)
        with pytest.raises(ValueError, match="layer name 'L 2' contains whitespace"):
            serialize_multiplex_edgelist(MultilayerNetwork(universe, (clean, spaced), ("L1", "L 2")))
        with pytest.raises(ValueError, match="node labels must not contain whitespace"):
            serialize_multiplex_edgelist(MultilayerNetwork(universe, (spaced, clean), ("L1", "L 2")))

    @pytest.mark.parametrize("labels", [(" x", "b"), ("a", "a "), ("a\t", "b")])
    def test_layer_csv_rejects_labels_the_reader_strips(self, labels):
        # ' x,b,1.0' reads back over ('b', 'x'), and 'a,a ,1.0' as a self-loop on 'a'
        with pytest.raises(ValueError, match=UNREAD):
            layer_csv(LayerGraph(NodeUniverse(labels), [1], [1.0]))
        # such a label is fine while no written row uses it
        n = len(labels) + 2
        layer = LayerGraph(NodeUniverse((*labels, "y", "z")), [(n - 2) * n + n - 1], [1.0])
        assert layer_csv(layer) == "node_u,node_v,weight\ny,z,1.0\n"

    @pytest.mark.parametrize("brk", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029")
    def test_layer_csv_rejects_labels_the_reader_splits(self, brk):
        # written unquoted, 'a\x1cb,z,1.0' would read as the lines 'a' and 'b,z,1.0'
        assert _unread(f"a{brk}b") and not _unread("a\r\nb")
        with pytest.raises(ValueError, match=UNREAD):
            layer_csv(LayerGraph(NodeUniverse((f"a{brk}b", "z")), [1], [1.0]))
        # such a label is fine while no written row uses it
        layer = LayerGraph(NodeUniverse((f"a{brk}b", "y", "z")), [5], [1.0])
        assert layer_csv(layer) == "node_u,node_v,weight\ny,z,1.0\n"

    @pytest.mark.parametrize("names", [("#A", "B"), ("#", "B"), ("A", "#B"), ("", "B")])
    def test_layer_names_read_as_comments_or_fields_are_rejected(self, names):
        # '#A a b 1.0' is a comment to the reader, and ' a b 1.0' a layer 'a'
        universe = NodeUniverse(("a", "b", "c"))
        layer = LayerGraph(universe, [1], [1.0])
        net = MultilayerNetwork(universe, (layer, layer), names)
        bad = next(name for name in names if not name or name.startswith("#"))
        with pytest.raises(ValueError, match=f"layer name {bad!r} is empty or starts with '#'"):
            serialize_multiplex_edgelist(net)

    def test_empty_node_label_is_rejected_once_written(self):
        # 'L1  a 1.0' would be read as nodes 'a' and '1.0'
        universe = NodeUniverse(("", "a", "b"))
        clean = LayerGraph(universe, [5], [1.0])  # a-b
        net = MultilayerNetwork(universe, (clean,), ("L1",))
        assert serialize_multiplex_edgelist(net) == _edgelist_oracle(net)
        for codes in ([1], [2]):  # ""-a, ""-b
            empty = LayerGraph(universe, codes, [1.0])
            with pytest.raises(ValueError, match="node labels must not be empty"):
                serialize_multiplex_edgelist(MultilayerNetwork(universe, (clean, empty), ("L1", "L2")))


# -- parse(serialize(x)) == x -------------------------------------------------


class TestRoundTrip:
    @settings(max_examples=100, deadline=None)
    @given(net=networks(min_pairs=1), chunk=CHUNKS)
    def test_edgelist(self, net, chunk):
        again = parse_multiplex_edgelist(_chunked(chunk, serialize_multiplex_edgelist, net))
        assert again.layer_names == net.layer_names
        assert [reindexed(layer, net.universe) for layer in again.layers] == list(net.layers)

    @settings(max_examples=100, deadline=None)
    @given(layer=layers(CSV_LABELS, min_pairs=1), chunk=CHUNKS)
    def test_layer_csv(self, layer, chunk):
        if _writes_unread_label(layer):
            with pytest.raises(ValueError, match=UNREAD):
                layer_csv(layer)
            return
        again = parse_layer_csv(_chunked(chunk, layer_csv, layer))
        assert reindexed(again, layer.universe) == layer


# -- the CLI on labels that need quoting, and its warning lines ----------------


def test_cli_reads_back_labels_that_need_quoting(tmp_path):
    net = tmp_path / "net.txt"
    net.write_text('L1 a,b c 2\nL1 a,b d 1\nL1 "q" c 4\nL2 c d 3\nL2 a,b c 1\n', encoding="utf-8")
    run = lambda *argv: main([str(a) for a in argv])  # noqa: E731
    assert run("aggregate", net, "-o", tmp_path / "agg.csv") == 0
    assert (tmp_path / "agg.csv").read_text(encoding="utf-8").splitlines()[1:3] == [
        '"""q""",c,1.631043674065006', '"a,b",c,0.8689563259349942']
    assert run("metrics", tmp_path / "agg.csv", "-o", tmp_path / "m.json") == 0
    assert run("baseline", "ave", net, "-o", tmp_path / "ave.csv") == 0
    assert run("compare", "--map-csv", tmp_path / "agg.csv", "--map-meta", tmp_path / "agg.json",
               "--con", tmp_path / "ave.csv", "--ave", tmp_path / "ave.csv",
               "--out-dir", tmp_path / "cmp") == 0
    scatter = (tmp_path / "cmp" / "scatter_map_vs_con.csv").read_text(encoding="utf-8")
    rows = list(csv.reader(scatter.splitlines()))
    assert [row[:2] for row in rows] == [["node_u", "node_v"], ['"q"', "c"], ["a,b", "c"],
                                         ["a,b", "d"], ["c", "d"]]
    ave = parse_layer_csv((tmp_path / "ave.csv").read_text(encoding="utf-8"))
    truth = SyntheticTruth(ave.universe, ave.codes, ave.values, theta_star=1.0, coverage=1.0, seed=0)
    (tmp_path / "truth.csv").write_text(truth_to_csv(truth), encoding="utf-8")
    (tmp_path / "truth.json").write_text(json.dumps(sidecar(truth)), encoding="utf-8")
    assert run("synth", "score", "--est", tmp_path / "agg.csv", "--est-meta", tmp_path / "agg.json",
               "--truth", tmp_path / "truth.csv", "--truth-meta", tmp_path / "truth.json",
               "-o", tmp_path / "score.json") == 0


def test_warnings_are_json_lines_that_do_not_name_the_checkout(tmp_path):
    """The same duplicate input gives the same stderr from two copies of the package."""
    work = tmp_path / "work"
    work.mkdir()
    (work / "dup.txt").write_text("L1 a b 2\nL1 b a 3\nL1 a c 1\n", encoding="utf-8")
    package = Path(mapnet.__file__).parent
    errs = []
    for copy in ("one", "two"):
        shutil.copytree(package, tmp_path / copy / "mapnet",
                        ignore=shutil.ignore_patterns("__pycache__"))
        result = subprocess.run(
            [sys.executable, "-m", "mapnet", "aggregate", "dup.txt", "-o", "agg.csv"],
            cwd=work, env={"PYTHONPATH": str(tmp_path / copy), "PYTHONDONTWRITEBYTECODE": "1"},
            capture_output=True, text=True, check=True,
        )
        errs.append(result.stderr)
    assert errs[0] == errs[1]
    assert [json.loads(line) for line in errs[0].splitlines()] == [{
        "warning": "DuplicateEdgeWarning",
        "count": 1,
        "message": "1 duplicate edge line(s); last occurrence wins",
    }]


def test_zscore_warning_is_a_json_line(tmp_path, capsys):
    rows = ["gene,c1,c2,c3,c4,c5,c6"] + [
        f"g{k},{k},5,{(k * 7) % 5},{k * k % 7},{3 * k % 4},{k % 3}" for k in range(8)]
    paths = []
    for name in ("one", "two"):
        paths.append(tmp_path / f"{name}.csv")
        paths[-1].write_text("\n".join(rows) + "\n", encoding="utf-8")
    # both datasets warn alike, each under its own name
    expected = [{
        "warning": "DegenerateConditionWarning",
        "dataset": name,
        "labels": ["c2"],
        "message": f"conditions of dataset {name!r} left unchanged (fewer than 2 values or zero spread): c2",
    } for name in ("one", "two")]
    for argv in (["build-layers", *map(str, paths), "-o", str(tmp_path / "l.txt"), "--zscore"],
                 ["baseline", "con", *map(str, paths), "-o", str(tmp_path / "con.csv")]):
        assert main(argv) == 0
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == expected

import inspect
import io
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mapnet import (
    ExpressionDataset,
    generate_synthetic,
    ingest,
    parse_aggregated_csv,
    parse_expression_csv,
    parse_layer_csv,
    parse_multiplex_edgelist,
    serialize_multiplex_edgelist,
)
from mapnet.errors import (
    DuplicateEdgeWarning,
    DuplicateLabel,
    NegativeWeight,
    ParseError,
)
from mapnet.synth import truth_to_csv
from conftest import label_pair, layer_csv, pair_dict, plain


class TestParseExpressionCsv:
    def test_basic_with_missing(self):
        ds = parse_expression_csv("gene,c1,c2\ng1,1.0,\ng2,2.5,3.0")
        assert ds.genes == ("g1", "g2")
        assert ds.conditions == ("c1", "c2")
        assert np.isnan(ds.values[0, 1])
        assert ds.values[1, 0] == 2.5

    def test_na_tokens_are_missing(self):
        ds = parse_expression_csv("gene,c1,c2,c3\ng1,NA,NaN,na")
        assert np.isnan(ds.values).all()

    def test_header_only_rejected(self):
        with pytest.raises(ParseError):
            parse_expression_csv("gene,c1,c2")

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError, match="empty input") as err:
            parse_expression_csv("")
        assert (err.value.line, err.value.column) == (1, None)

    def test_empty_gene_label_has_position(self):
        with pytest.raises(ParseError, match="empty gene label") as err:
            parse_expression_csv("gene,c1,c2\ng1,1.0,2.0\n  ,3.0,4.0\n")
        assert (err.value.line, err.value.column) == (3, 1)

    @pytest.mark.parametrize("genes, conditions, shape, message", [
        (("g1", "g2"), ("c1",), (1, 1), "matrix shape does not match label counts"),
        ((), ("c1", "c2"), (0, 2), "need at least one gene and one condition"),
        (("g1",), (), (1, 0), "need at least one gene and one condition"),
    ])
    def test_dataset_shape_checked(self, genes, conditions, shape, message):
        with pytest.raises(ValueError, match=message):
            ExpressionDataset(genes, conditions, np.zeros(shape))

    def test_malformed_number_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression_csv("gene,c1,c2\ng1,1.0,2.0\ng2,abc,3.0")
        assert err.value.line == 3
        assert err.value.column == 2

    def test_duplicate_gene_rejected(self):
        with pytest.raises(DuplicateLabel, match="^duplicate gene label 'g1'$"):
            parse_expression_csv("gene,c1\ng1,1\ng1,2")

    def test_duplicate_condition_rejected(self):
        # the header is checked before any row, so a bad row after it is not reported
        with pytest.raises(DuplicateLabel, match="^duplicate condition label in header$"):
            parse_expression_csv("gene,c1,c1\ng1,1,abc")

    @pytest.mark.parametrize("genes, conditions, message", [
        (("g1", "g2", "g1", "g2"), ("c1",), "duplicate gene label 'g1'"),
        (("g1",), ("c1", "c2", "c2"), "duplicate condition label 'c2'"),
    ])
    def test_dataset_refuses_repeated_labels(self, genes, conditions, message):
        with pytest.raises(DuplicateLabel, match=f"^{message}$"):
            ExpressionDataset(genes, conditions, np.zeros((len(genes), len(conditions))))

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError) as err:
            parse_expression_csv("gene,c1,c2\ng1,1.0")
        assert err.value.line == 2

    def test_blank_lines_count_in_positions(self):
        with pytest.raises(ParseError) as err:
            parse_expression_csv("gene,c1,c2\ng1,1.0,2.0\n\n,,\ng2,abc,3.0\n")
        assert (err.value.line, err.value.column) == (5, 2)
        with pytest.raises(ParseError) as err:
            parse_expression_csv("\n\ngene,c1,c2\n\ng1,1.0\n")
        assert (err.value.line, err.value.column) == (5, None)
        with pytest.raises(ParseError) as err:
            parse_expression_csv("\n\ngene,c1,\ng1,1.0,2.0\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("token", ["inf", "-inf", "Infinity", "1e999"])
    def test_infinite_value_has_position(self, token):
        with pytest.raises(ParseError) as err:
            parse_expression_csv(f"gene,c1,c2\ng1,1.0,2.0\ng2,3.0,{token}")
        assert (err.value.line, err.value.column) == (3, 3)


class TestParseMultiplexEdgelist:
    def test_default_weights_and_layers(self):
        net = parse_multiplex_edgelist("1 u v\n2 u v\n2 v w\n")
        assert net.depth == 2
        assert net.universe.labels == ("u", "v", "w")
        assert net.layer_names == ("1", "2")
        layer2 = net.layers[1]
        assert pair_dict(layer2) == {(0, 1): 1.0, (1, 2): 1.0}

    def test_explicit_weight(self):
        net = parse_multiplex_edgelist("1 u v 3.5")
        assert pair_dict(net.layers[0]) == {(0, 1): 3.5}

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            parse_multiplex_edgelist("1 u v -2")

    @pytest.mark.parametrize("token", ["nan", "NaN", "inf", "-inf", "Infinity"])
    def test_non_finite_weight_has_position(self, token):
        with pytest.raises(ParseError) as err:
            parse_multiplex_edgelist(f"L1 a c 1\nL1 a b {token}\n")
        assert (err.value.line, err.value.column) == (2, 4)

    def test_zero_weight_is_measured(self):
        net = parse_multiplex_edgelist("1 u v 0\n1 u w 2\n")
        layer = net.layers[0]
        assert layer.measurable == frozenset({(0, 1), (0, 2)})
        assert pair_dict(layer) == {(0, 1): 0.0, (0, 2): 2.0}

    def test_comments_and_blank_lines_skipped(self):
        net = parse_multiplex_edgelist("# header\n\n1 u v\n")
        assert net.depth == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError):
            parse_multiplex_edgelist("1 u u")

    def test_bad_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_multiplex_edgelist("1 u\n")
        assert err.value.line == 1

    def test_duplicate_last_wins_with_counter(self):
        with pytest.warns(DuplicateEdgeWarning) as records:
            net = parse_multiplex_edgelist("1 u v 2\n1 v u 5\n1 u w 1\n1 u w 3\n")
        assert records[0].message.count == 2
        layer = net.layers[0]
        assert pair_dict(layer)[label_pair(net.universe, "u", "v")] == 5.0
        assert pair_dict(layer)[label_pair(net.universe, "u", "w")] == 3.0

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_multiplex_edgelist("# nothing here\n")


def dict_parse(text):
    """Per-line, dict-based edge-list reading (an oracle for the shared last
    step): the last line of a (layer, pair) wins, layers and labels sorted."""
    layers, labels, lines = {}, set(), 0
    for line in text.splitlines():
        fields = line.split()
        if fields and not fields[0].startswith("#"):
            pair = tuple(sorted(fields[1:3]))
            layers.setdefault(fields[0], {})[pair] = float(fields[3]) if len(fields) == 4 else 1.0
            labels.update(pair)
            lines += 1
    order = sorted(labels)
    n = len(order)
    coded = [sorted((order.index(u) * n + order.index(v), w) for (u, v), w in layer.items())
             for _, layer in sorted(layers.items())]
    return order, sorted(layers), coded, lines - sum(map(len, coded))


class TestSharedLastStep:
    @pytest.mark.parametrize("block", [1, 7, ingest._WRITE_ROWS])
    @pytest.mark.parametrize("seed", range(4))
    def test_shuffled_repeated_rows_match_dict_oracle(self, seed, block, monkeypatch):
        rng = np.random.default_rng(seed)
        labels = [f"v{i}" for i in rng.permutation(40)]
        rows = []
        for _ in range(600):
            u, v = rng.choice(labels, 2, replace=False)
            rows.append(f"L{rng.integers(1, 5)} {u} {v} {rng.integers(0, 4) / 4}\n")
        # pairs recur within and across layers, in both endpoint orders
        text = "".join(rows + rows[:50][::-1])
        monkeypatch.setattr(ingest, "_WRITE_ROWS", block)
        for fast in (True, False):
            if not fast:
                monkeypatch.setattr(ingest, "_chunk_rows", lambda chunks, sep, lines: None)
            with warnings.catch_warnings(record=True) as records:
                warnings.simplefilter("always")
                net = parse_multiplex_edgelist(text)
            order, names, coded, repeated = dict_parse(text)
            assert list(net.universe.labels) == order and list(net.layer_names) == names
            assert [list(zip(layer.codes.tolist(), layer.values.tolist()))
                    for layer in net.layers] == coded
            assert [r.message.count for r in records] == [repeated] and repeated > 50


class TestRoundTrip:
    def test_parse_serialize_parse_identity(self):
        text = "1 u v 2.0\n1 u w 0\n2 v w 1.5\n"
        net = parse_multiplex_edgelist(text)
        again = parse_multiplex_edgelist(serialize_multiplex_edgelist(net))
        assert again == net

    def test_round_trip_synthetic(self):
        net, _ = generate_synthetic(n=12, d=3, theta_star=1.0, coverage=0.5, seed=5)
        again = parse_multiplex_edgelist(serialize_multiplex_edgelist(net))
        assert again == net

    def test_layer_csv_round_trip(self):
        text = "node_u,node_v,weight\na,b,1.5\na,c,0.0\n"
        layer = parse_layer_csv(text)
        assert pair_dict(layer) == {(0, 1): 1.5, (0, 2): 0.0}
        assert layer.measurable == frozenset({(0, 1), (0, 2)})

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_layer_csv_non_finite_weight_has_position(self, token):
        with pytest.raises(ParseError) as err:
            parse_layer_csv(f"node_u,node_v,weight\na,b,1.5\na,c,{token}\n")
        assert (err.value.line, err.value.column) == (3, 3)

    def test_layer_csv_blank_lines_count_in_positions(self):
        with pytest.raises(ParseError) as err:
            parse_layer_csv("node_u,node_v,weight\na,b,1.5\n\n\na,c,x\n")
        assert (err.value.line, err.value.column) == (5, 3)
        with pytest.raises(ParseError) as err:
            parse_layer_csv("\nnode_u,node_v,weight\n , \na,b,1.5\nc,c,1\n")
        assert (err.value.line, err.value.column) == (5, None)
        with pytest.raises(NegativeWeight, match=r"^negative weight -1.0 \(line 4, column 3\)$"):
            parse_layer_csv("node_u,node_v,weight\n\na,b,1\na,c,-1\n")

    def test_aggregated_csv(self):
        text = "node_u,node_v,lambda\na,b,0.5\nb,c,0.0\n"
        agg = parse_aggregated_csv(text, {"theta": 2.0, "iterations": 7, "converged": True})
        assert pair_dict(agg) == {(0, 1): 0.5, (1, 2): 0.0}
        assert agg.theta == 2.0
        assert agg.converged
        # an integer objective beyond the float range reads as an infinity of its sign
        for objective, read in ((-1.5, -1.5), (-10**400, -math.inf), (10**400, math.inf)):
            meta = {"theta": 2.0, "iterations": 7, "converged": True, "final_objective": objective}
            assert parse_aggregated_csv(text, meta).final_objective == read


BAD_LINE = 50_001


def _good_rows(count, sep, layered):
    """``count`` distinct, valid rows over 400 nodes (pairs in row-major order)."""
    i, j = np.triu_indices(400, 1)
    rows = []
    for t in range(count):
        fields = [f"n{i[t]:03d}", f"n{j[t]:03d}", f"{t % 7}.5"]
        rows.append(sep.join([f"L{t % 3}", *fields] if layered else fields))
    return rows


class TestErrorsDeepInLargeInput:
    """Each error kind on line 50,001 of a large input reports that line."""

    @pytest.mark.parametrize(
        "bad, error, column",
        [
            ("L1 n001", ParseError, None),
            ("L1 n001 n002 3 4", ParseError, None),
            ("L1 n001 n001 2", ParseError, None),
            ("L1 n001 n002 2,5", ParseError, 4),
            ("L1 n001 n002 nan", ParseError, 4),
            ("L1 n001 n002 inf", ParseError, 4),
            ("L1 n001 n002 -2", NegativeWeight, 4),
        ],
    )
    def test_edgelist(self, bad, error, column):
        lines = _good_rows(BAD_LINE - 1, " ", layered=True) + [bad, "L1 n003 n004 1"]
        with pytest.raises(error) as err:
            parse_multiplex_edgelist("\n".join(lines) + "\n")
        assert (err.value.line, err.value.column) == (BAD_LINE, column)
        if error is NegativeWeight:
            assert str(err.value) == f"negative weight -2.0 (line {BAD_LINE}, column 4)"

    @pytest.mark.parametrize(
        "bad, error, column",
        [
            ("n001,n002", ParseError, None),
            ("n001,n002,3,4", ParseError, None),
            ("n001, n001,2", ParseError, None),
            ("n001,n002,x", ParseError, 3),
            ("n001,n002,nan", ParseError, 3),
            ("n001,n002,inf", ParseError, 3),
            ("n001,n002,-2", NegativeWeight, 3),
        ],
    )
    def test_layer_csv(self, bad, error, column):
        # line 1 is the header
        lines = ["node_u,node_v,weight"] + _good_rows(BAD_LINE - 2, ",", layered=False)
        lines += [bad, "n003,n004,1"]
        with pytest.raises(error) as err:
            parse_layer_csv("\n".join(lines) + "\n")
        assert (err.value.line, err.value.column) == (BAD_LINE, column)
        if error is NegativeWeight:
            assert str(err.value) == f"negative weight -2.0 (line {BAD_LINE}, column 3)"

    def test_duplicates_over_several_layers_keep_last(self):
        lines = _good_rows(BAD_LINE - 1, " ", layered=True)
        # repeats in L0 (three, one with its endpoints swapped), L1 (one) and
        # L2 (four); the same pair in a new layer L9 is no duplicate
        repeats = [lines[0], lines[1], lines[2], lines[5], lines[5], lines[5]]
        u, v = lines[3].split()[1:3]
        extra = ["L0 n000 n001 9", f"L0 {v} {u} 8", "L9 n000 n001 4"]
        with pytest.warns(DuplicateEdgeWarning) as records:
            net = parse_multiplex_edgelist("\n".join(lines + repeats + extra) + "\n")
        assert [r.message.count for r in records] == [8]
        assert net.layer_names == ("L0", "L1", "L2", "L9")
        layer0 = net.layers[0]
        assert pair_dict(layer0)[label_pair(net.universe, "n000", "n001")] == 9.0
        assert pair_dict(layer0)[label_pair(net.universe, u, v)] == 8.0
        assert sum(layer.codes.size for layer in net.layers) == (BAD_LINE - 1) + 1  # + L9


# (parser, separator, text with a repeated pair, whether the chunk reader takes it)
DUPLICATE_CASES = [
    (parse_multiplex_edgelist, " ", "L1 a b 1\nL1 b a 2\n", True),
    (parse_multiplex_edgelist, " ", "L1\ta\tb\t1\nL1 b a 2\n", False),
    (parse_layer_csv, ",", "node_u,node_v,weight\na,b,1\nb,a,2\n", True),
    (parse_layer_csv, ",", 'node_u,node_v,weight\n"a",b,1\nb,a,2\n', False),
]


@pytest.mark.parametrize("parse, sep, text, fast", DUPLICATE_CASES)
def test_duplicate_warning_points_at_the_caller(parse, sep, text, fast):
    """On either reader's path, the DuplicateEdgeWarning names the file and
    line that called the parser."""
    assert (_text_rows(text, sep) is not None) == fast
    with pytest.warns(DuplicateEdgeWarning) as records:
        line = inspect.currentframe().f_lineno + 1
        parse(text)
    assert [(r.filename, r.lineno) for r in records] == [(__file__, line)]


def _outcome(parse, text):
    """What ``parse(text)`` gives: the result or the error's type, message,
    line and column; and the counts of the DuplicateEdgeWarnings raised."""
    with warnings.catch_warnings(record=True) as records:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except Exception as err:  # noqa: BLE001 - compared below
            where = (getattr(err, "line", None), getattr(err, "column", None))
            result = (type(err), str(err), *where)
    counts = [r.message.count for r in records if issubclass(r.category, DuplicateEdgeWarning)]
    return result, counts


def _per_line(parse, text, monkeypatch):
    """``_outcome`` of the per-line reader, handed the whole text as one chunk."""
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_chunk_rows", lambda chunks, sep, lines: None)
        patch.setattr(ingest, "_CHUNK_BYTES", len(text) + 1)
        return _outcome(parse, text)


def _text_rows(text, sep):
    """What the chunk reader makes of a text: its rows, or None."""
    return ingest._chunk_rows(ingest._text_chunks(text), sep, text.count("\n"))


@pytest.mark.parametrize("parse, sep, text, message", [
    (parse_multiplex_edgelist, " ", "L1\ta\ta\tx\n", "self-loop on 'a' (line 1)"),
    (parse_multiplex_edgelist, " ", "L1\ta\tb\tx\tq\n",
     "expected 'layer u v [weight]', found 5 fields (line 1)"),
    (parse_layer_csv, ",", 'node_u,node_v,weight\n"a",a,x\n', "self-loop on 'a' (line 2)"),
    (parse_layer_csv, ",", 'node_u,node_v,weight\n"a",b\n', "expected 3 fields, found 2 (line 2)"),
    (parse_multiplex_edgelist, " ", "# comment\n\n# another\n\n", "no edges found"),
    (parse_layer_csv, ",", "node_u,node_v,weight\n", "expected a header and at least one edge row"),
], ids=["edge_self_loop", "edge_fields", "csv_self_loop", "csv_fields", "edge_none", "csv_none"])
def test_per_line_faults_in_order(parse, sep, text, message):
    """A line's faults are reported field count first, then self-loop, then weight."""
    assert _text_rows(text, sep) is None
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


EDGE = "# layer u v w\n"
# (text, whether the chunk reader takes it)
EDGELIST_CASES = [
    (EDGE + "L1 a b 1\nL1 b c 2.5\nL2 a c 0\n", True),
    ("L1 a b\nL2 b c\n", True),
    ("# one\n#two\n# three\nL1 a b 1\n", True),
    ("L1\ta\tb\t1\nL1 b c 2\n", False),
    ("L1 a b 1\r\nL1 b c 2\r\n", False),
    ("L1 a b 1\rL1 b c 2\n", False),
    ("L1  a b 1\n", False),
    ("L1 a b 1 \n", False),
    (" L1 a b 1\n", False),
    ("L1 a b 1", False),
    ("L1 a b 1\nL1 b c", False),
    (EDGE + "L1 a b 1\n# later\nL1 b c 2\n", False),
    ("L1 a b 1\n\nL1 b c 2\n", False),
    ("# h\n\nL1 a b 1\n", False),
    ("# h\x0bL1 a b 9\nL1 a b 1\n", False),
    ("L1 a b\nL1 b c 2\n", False),
    ("L1 a b 2\nL1 b c\n", False),
    ("L1 a b 1 2\n", False),
    ("L1 a\n", False),
    ("L1 é b 1\n", False),
    ("L1 a b 1\nL1 a b L1 b c 2\n", False),
    ("L1 abcdefgh abcdefgg 1\nL1 abcdefgh b 2\nlayer_08 b c 1\n", True),
    ("L1 abcdefghi abcdefgh 1\n", True),
    ("layer_009 a b 1\n", True),
    # labels and layer names of 9, 16 and 17 bytes, across the word boundaries
    ("L1 abcdefgh abcdefghi 0.30000000000000004\nlayer_0000000016 abcdefghijklmnop abcdefghi 2\n"
     "layer_00000000017 abcdefghijklmnopq abcdefghijklmnop 1.25e-300\nL1 abcdefghi b 3\n", True),
    ("L1 a ab 1\nL1 ab a~ 2\nL1 B a 3\nL1 a\x01 b 1\nL1 a,b 9 1\n", True),
    ("L1 a\x0cb c 1\n", False),
    ("L1 a\x1fb c 1\n", False),
    ("L1 a\x00b c 1\n", False),
    ('L1 "a" b 1\n', False),
    ("L1 a#b c 1\n", False),
    ("L1 a b +1\nL1 a c 1e3\nL1 b c 1_0\nL2 a b -0.0\nL2 a c .5\nL2 b c 7.\n", True),
    ("L1 a b 1\nL1 a c nan\n", False),
    ("L1 a b 1\nL1 a c inf\n", False),
    ("L1 a b 1\nL1 a c -1\n", False),
    ("L1 a b 1\nL1 a c 1,5\n", False),
    ("L1 a b 1\nL1 a c 0x1\n", False),
    ("L1 a b 1\nL1 c c 2\n", False),
    ("L1 a b 1\nL1 a c 1\x01\n", False),
    ("L1 a b 1\nL2 a b 2\nL1 b a 3\nL2 a b 4\nL1 a c 5\nL3 c a 6\nL1 a b 7\n", True),
    ("# only comments\n", False),
    ("", False),
]


LAYER_CSV_CASES = [
    ("node_u,node_v,weight\na,b,1.5\na,c,0\nb,c,2\n", True),
    ("x\nb,a,1\nc,a,+2\nc,b,1e3\nd,a,1_0\nd,b,-0.0\nd,c,.5\n", True),
    ("node_u,node_v,weight\nabcdefgh,a,1\nabcdefgh,abcdefgg,2\n", True),
    ("node_u,node_v,weight\nabcdefghi,a,1\n", True),
    ("u,v,lambda\nabcdefgh,abcdefghi,0.30000000000000004\nabcdefghijklmnop,abcdefghi,2\n"
     "abcdefghijklmnopq,abcdefghijklmnop,1.25e-300\nabcdefghi,b,3\n", True),
    ('node_u,node_v,weight\n"a",b,1\n', False),
    ('node_u,node_v,weight\n"a,b",c,1\n', False),
    ('"node_u,node_v",weight\na,b,1\n', False),
    ("node_u,node_v,weight\na, b,1\n", False),
    ("node_u,node_v,weight\n a,a ,1\n", False),
    ("node_u,node_v,weight\na\t,b,1\n", False),
    ("node_u,node_v,weight\na,b,1\n\nb,c,2\n", False),
    ("\nnode_u,node_v,weight\na,b,1\n", False),
    (",,\nnode_u,node_v,weight\na,b,1\n", False),
    (" , \nx,y,1\na,b,2\n", False),
    ("\nx,y,1\na,b,2\n", False),
    ("\x1f,\x1f\nx,y,1\na,b,2\n", False),
    ("node_u,node_v,weight\r\na,b,1\r\n", False),
    ("node_u,node_v,weight\na,b,1,2\n", False),
    ("node_u,node_v,weight\na,b\n", False),
    ("node_u,node_v,weight\n,b,1\n", False),
    ("node_u,node_v,weight\na,b,1\nb,a,2\na,c,3\na,b,4\n", True),
    ("node_u,node_v,weight\na,b,1\na,c,nan\n", False),
    ("node_u,node_v,weight\na,b,1\na,c,-inf\n", False),
    ("node_u,node_v,weight\na,b,1\na,c,-1\n", False),
    ("node_u,node_v,weight\na,b,1\nc,c,1\n", False),
    ("node_u,node_v,weight\na#,b,1\n", False),
    ("node_u,node_v,weight\nà,b,1\n", False),
    ("node_u,node_v,weight\n", False),
    ("node_u,node_v,weight\na,b,1", False),
    ("node_u,node_v,weight\na,b,1\nc", False),
]


class TestWholeTextReader:
    """The chunk reader of a text gives what the per-line reader gives, or leaves the text to it."""

    @pytest.mark.parametrize("chunk", [None, 12])
    @pytest.mark.parametrize("text, fast", EDGELIST_CASES)
    def test_edgelist(self, text, fast, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        assert (_text_rows(text, " ") is not None) == fast
        assert _outcome(parse_multiplex_edgelist, text) == _per_line(
            parse_multiplex_edgelist, text, monkeypatch
        )

    @pytest.mark.parametrize("chunk", [None, 12])
    @pytest.mark.parametrize("text, fast", LAYER_CSV_CASES)
    def test_layer_csv(self, text, fast, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        assert (_text_rows(text, ",") is not None) == fast
        assert _outcome(parse_layer_csv, text) == _per_line(parse_layer_csv, text, monkeypatch)

    def test_field_far_longer_than_its_lines(self, monkeypatch):
        """A label many times longer than the mean line of its chunk goes to
        the per-line reader: the key of every row of its column would be as
        long."""
        rows = "".join(f"L1 a{t} b{t} 1\n" for t in range(2000))
        for width, fast in [(50, True), (5000, False)]:
            text = rows + f"L1 {'x' * width} a1 2\n"
            assert (_text_rows(text, " ") is not None) == fast
            assert _outcome(parse_multiplex_edgelist, text) == _per_line(
                parse_multiplex_edgelist, text, monkeypatch
            )

    def test_benchmark_shaped_input_never_falls_back(self, monkeypatch):
        """Edge lists and layer CSVs as the CLI writes them, and the
        unweighted edge list of the benchmark's presence workload, are read
        whole; the weighted edge list spans several chunks."""
        net, truth = generate_synthetic(n=120, d=11, coverage=0.8, seed=4)
        edges = serialize_multiplex_edgelist(net)
        presence = "# layer node_u node_v\n" + "".join(
            " ".join(line.split()[:3]) + "\n" for line in edges.splitlines()[1:]
        )
        rates = truth_to_csv(truth)
        ave = layer_csv(net.layers[0], "weight")
        assert len(edges) > 4 * ingest._CHUNK_BYTES
        inputs = [(parse_multiplex_edgelist, edges), (parse_multiplex_edgelist, presence),
                  (parse_layer_csv, rates), (parse_layer_csv, ave)]
        expected = [_per_line(parse, text, monkeypatch) for parse, text in inputs]

        def per_line(lines):
            raise AssertionError("fell back to the per-line reader")

        monkeypatch.setattr(ingest, "_edgelist_rows", per_line)
        monkeypatch.setattr(ingest, "_layer_csv_rows", per_line)
        assert parse_multiplex_edgelist(edges) == net
        assert ingest.read_multiplex_edgelist(io.BytesIO(edges.encode())) == net
        assert ingest.read_multiplex_edgelist(_Pipe(edges.encode())) == net
        assert parse_layer_csv(rates) == plain(truth)
        assert [_outcome(parse, text) for parse, text in inputs] == expected


class _Pipe(io.BytesIO):
    def seekable(self):
        return False


class _Growing(io.BytesIO):
    """A file that gains ``extra`` bytes at its end once a pass has read it."""

    def __init__(self, data, extra):
        super().__init__(data)
        self.extra = extra

    def seek(self, *args):
        if self.extra and self.tell():
            super().seek(0, io.SEEK_END)
            self.write(self.extra)
            self.extra = b""
        return super().seek(*args)


def _read_file(file):
    return ingest.read_multiplex_edgelist(file)


def _file_rows(data, sep):
    return ingest._chunk_rows(ingest._file_chunks(io.BytesIO(data)), sep, data.count(b"\n"))


def _same_rows(a, b):
    if a is None or b is None:
        return a is b
    return a[:2] == b[:2] and all(np.array_equal(x, y) for x, y in zip(a[2:], b[2:]))


class TestChunkedFileReader:
    """The file entry point gives what the per-line reader gives: from an
    in-memory file, a real file and one that cannot seek, in chunks of
    ``_CHUNK_BYTES`` and of 12 bytes."""

    @pytest.mark.parametrize("chunk", [None, 12])
    @pytest.mark.parametrize("text, fast", EDGELIST_CASES)
    def test_edgelist(self, text, fast, chunk, tmp_path, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        data = text.encode("utf-8")
        assert _same_rows(_file_rows(data, " "), _text_rows(text, " "))
        expected = _per_line(parse_multiplex_edgelist, text, monkeypatch)
        path = tmp_path / "net.txt"
        path.write_bytes(data)
        with open(path, "rb") as file:
            assert _outcome(_read_file, file) == expected
        assert _outcome(_read_file, io.BytesIO(data)) == expected
        assert _outcome(_read_file, _Pipe(data)) == expected

    @pytest.mark.parametrize("chunk", [None, 12])
    @pytest.mark.parametrize("text, fast", LAYER_CSV_CASES)
    def test_layer_csv_chunks(self, text, fast, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        data = text.encode("utf-8")
        assert _same_rows(_file_rows(data, ","), _text_rows(text, ","))

    @pytest.mark.parametrize("sep", [" ", "\t"])  # the chunked and the per-line reader
    def test_layers_share_the_parsed_rows(self, sep):
        """Every layer holds read-only slices of the parse's one key array and
        one weight array, so no row is held twice."""
        net, _ = generate_synthetic(n=30, d=3, coverage=0.8, seed=2)
        text = serialize_multiplex_edgelist(net).replace(" ", sep)
        for read in (parse_multiplex_edgelist, lambda t: _read_file(io.BytesIO(t.encode()))):
            layers = read(text).layers
            assert layers == net.layers
            for arrays in ([layer.codes for layer in layers], [layer.values for layer in layers]):
                base = arrays[0].base
                assert base is not None and not base.flags.writeable
                assert all(array.base is base for array in arrays)

    @pytest.mark.parametrize("chunk", [None, 64])
    def test_file_grown_after_the_count(self, chunk, monkeypatch):
        """A body with more rows than the newlines counted (the file grew
        between the two passes) goes to the per-line reader."""
        if chunk is not None:
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        rows = [f"L{t % 3} {u} {v} {t % 7}.25\n" for t, (u, v) in
                enumerate(zip(*np.triu_indices(60, 1)))]
        head, tail = "".join(rows[:300]).encode(), "".join(rows[300:]).encode()
        assert _file_rows(head + tail, " ") is not None
        assert ingest._chunk_rows(ingest._file_chunks(io.BytesIO(head + tail)), " ",
                                  head.count(b"\n")) is None
        expected = _per_line(parse_multiplex_edgelist, (head + tail).decode(), monkeypatch)
        assert _outcome(_read_file, _Growing(head, tail)) == expected

    @pytest.mark.parametrize(
        "bad",
        [
            "L1 n001 n002 2,5",  # a ParseError
            "L1 n001 n002 -2",  # a NegativeWeight
            "L1\tn001\tn002\t2",  # valid, but not regular
            "L1 n001 n002 2\r",  # valid, but not regular
            "L1 n001 n002 1.25e+3000",  # a ParseError: a long token that float() reads as inf
            "L1 n001 n002 \u00e9",  # not ASCII
        ],
    )
    def test_irregular_line_many_chunks_in(self, bad, monkeypatch):
        """The per-line reader then reads the file's chunks again from the start."""
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 12)
        text = "\n".join(_good_rows(300, " ", layered=True) + [bad, "L1 n003 n004 1"]) + "\n"
        expected = _per_line(parse_multiplex_edgelist, text, monkeypatch)
        assert _outcome(_read_file, io.BytesIO(text.encode("utf-8"))) == expected
        assert _outcome(parse_multiplex_edgelist, text) == expected

    def test_non_utf8_file_raises_as_decoding_it_whole(self, monkeypatch):
        """Also before the ParseError of a malformed line in an earlier chunk."""
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 12)
        good = "\n".join(_good_rows(300, " ", layered=True))
        for text in (good + "\nL1 a \xff 1\n", "L1 n001\n" + good + "\nL1 a \xff 1\n"):
            data = text.encode("latin-1")
            with pytest.raises(UnicodeDecodeError) as whole:
                data.decode("utf-8")
            for file in (io.BytesIO(data), _Pipe(data)):
                with pytest.raises(UnicodeDecodeError) as err:
                    _read_file(file)
                assert str(err.value) == str(whole.value)

    @pytest.mark.parametrize("chunk", [None, 64])
    @pytest.mark.parametrize("repeats", [0, 30])
    def test_ordered_and_shuffled_rows_agree(self, repeats, chunk, monkeypatch):
        """Rising keys skip the sort; shuffled ones are sorted.  Repeated lines
        are exact copies, so either order keeps the same weight."""
        if chunk is not None:
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        net, _ = generate_synthetic(n=40, d=4, coverage=0.8, seed=repeats)
        lines = serialize_multiplex_edgelist(net).splitlines(keepends=True)[1:]
        rng = np.random.default_rng(repeats)
        copies = np.sort(rng.choice(len(lines), size=repeats))
        ordered = list(lines)
        for at in copies[::-1]:
            ordered.insert(at, lines[at])
        shuffled = [ordered[k] for k in rng.permutation(len(ordered))]
        for rows in (ordered, shuffled):
            text = "".join(rows)
            for read in (parse_multiplex_edgelist, lambda t: _read_file(io.BytesIO(t.encode()))):
                result, counts = _outcome(read, text)
                assert result == net
                assert counts == ([repeats] if repeats else [])


@pytest.mark.parametrize("chunk", [None, 12])
def test_lone_surrogate_keeps_its_label(chunk, monkeypatch):
    """Texts are read as UTF-8 with lone surrogates passed through, as str holds them."""
    if chunk is not None:
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
    assert parse_multiplex_edgelist("L1 a\ud800 b 1\n").universe.labels == ("a\ud800", "b")
    assert parse_layer_csv("u,v,w\na\ud800,b,1\n").universe.labels == ("a\ud800", "b")


@pytest.mark.parametrize("head", ["", "# layer node_u node_v weight\n", "# u v\n"],
                         ids=["no_head", "head", "three_token_head"])
def test_byte_order_mark_is_dropped(head, tmp_path):
    """One U+FEFF opening the text, as a utf-8-sig writer puts it, is read as
    the codec drops it: not as part of the first line's first field."""
    text = head + "L1 a b 1\nL1 b c 2\n"
    plain = parse_multiplex_edgelist(text)
    assert plain.layer_names == ("L1",)
    assert parse_multiplex_edgelist("\ufeff" + text) == plain
    path = tmp_path / "net.txt"
    path.write_text(text, encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    with open(path, "rb") as file:
        assert ingest.read_multiplex_edgelist(file) == plain


@pytest.mark.parametrize("nodes, chunk", [(300, None), (8, 12)])
def test_marked_text_takes_the_chunk_reader(nodes, chunk, monkeypatch, tmp_path):
    """Chunks are cut after a leading byte order mark, so a marked text or file
    with a regular body is read whole, into the network of the unmarked one."""
    net, truth = generate_synthetic(n=nodes, d=11, coverage=0.8, seed=1)
    edges, rates = serialize_multiplex_edgelist(net), truth_to_csv(truth)
    plain_edges, plain_rates = parse_multiplex_edgelist(edges), parse_layer_csv(rates)
    path = tmp_path / "net.txt"
    path.write_bytes(b"\xef\xbb\xbf" + edges.encode())

    def per_line(lines):
        raise AssertionError("a marked regular text left to the per-line reader")

    monkeypatch.setattr(ingest, "_edgelist_rows", per_line)
    monkeypatch.setattr(ingest, "_layer_csv_rows", per_line)
    if chunk is not None:
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
    assert parse_multiplex_edgelist("\ufeff" + edges) == plain_edges
    assert parse_layer_csv("\ufeff" + rates) == plain_rates
    with open(path, "rb") as file:
        assert ingest.read_multiplex_edgelist(file) == plain_edges


@pytest.mark.parametrize("parse, text, line, column", [
    (parse_multiplex_edgelist, "L1 a a 1\n", 1, None),
    (parse_multiplex_edgelist, "# head\nL1 a b 1\nL1 b c x\n", 3, 4),
    (parse_layer_csv, "u,v,w\na,b,1\nb,c,-1\n", 3, 3),
    (parse_layer_csv, "\nu,v,w\na,b,x\n", 3, 3),
])
def test_byte_order_mark_moves_no_error(parse, text, line, column):
    """An error after a byte order mark has the line and column it has without one."""
    for marked in (text, "\ufeff" + text):
        with pytest.raises(ParseError) as err:
            parse(marked)
        assert (err.value.line, err.value.column) == (line, column)


def test_byte_order_mark_alone_on_a_blank_first_line():
    """A mark on a blank first line goes with that line: the header below it is the header."""
    text = "node_u,node_v,weight\na,b,1\nb,c,2\n"
    assert parse_layer_csv("\ufeff\n" + text) == parse_layer_csv(text)
    assert parse_multiplex_edgelist("\ufeff\nL1 a b 1\n") == parse_multiplex_edgelist("L1 a b 1\n")


def test_quoted_line_break_across_chunks(monkeypatch):
    """A quoted CSV field whose line break ends a chunk reads as from the whole text,
    line break included."""
    text = 'node_u,node_v,weight\na,b,1\n"long label\nd",b,2\n'
    whole = _outcome(parse_layer_csv, text)
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", 12)
    assert list(ingest._text_chunks(text))[1].endswith(b'"long label\n')
    assert _outcome(parse_layer_csv, text) == whole
    assert whole[0].universe.labels == ("a", "b", "long label\nd")


def test_csv_line_breaks():
    """CSV lines end at every break str.splitlines knows; a quoted CR or LF
    stays in its field, as csv.QUOTE_MINIMAL writes it, and any other break
    is dropped."""
    for end in ["\x0b", "\x1c", "\x85", "\u2028"]:
        layer = parse_layer_csv(f'u,v,w{end}a,b,1{end}"c{end}d",a,2{end}')
        assert (layer.universe.labels, layer.values.tolist()) == (("a", "b", "cd"), [1.0, 2.0])
    layer = parse_layer_csv('u,v,w\n"c\r\nd",a,1\n"e\rf",a,2\r\n')
    assert layer.universe.labels == ("a", "c\r\nd", "e\rf")
    assert parse_expression_csv('gene,c1\n"g\n1",1\n').genes == ("g\n1",)


@pytest.mark.parametrize("parse, text", [
    (parse_layer_csv, 'node_u,node_v,weight\n"' + "x" * 200_000 + '",b,1\n'),
    (parse_expression_csv, "gene,c1\n" + "g" * 200_000 + ",1\n"),
], ids=["layer_csv", "expression_csv"])
def test_field_over_the_csv_limit(parse, text):
    with pytest.raises(ParseError, match=r"^field larger than field limit \(131072\) \(line 2\)$"):
        parse(text)


# Tokens that the chunk reader must either read as the per-line reader
# does or leave to it.  PLAIN tokens are regular; LONG ones are regular
# labels and layer names of 1 to 24 bytes, many the prefix of another, and
# repr floats of 9 to 23 bytes; SUBTLE ones are made of regular bytes but
# must still go to the per-line reader or be read as it reads them: weights
# that float() reads ('1_0', '-0.0', 'nan', '1e400') or rejects ('0x1', '-2',
# and a 24-byte repr float below 0).  ODD ones hold '#', tab, CR, quotes,
# commas, spaces or non-ASCII bytes.
PLAIN = {"layer": ["L1", "L2", "L3456789"],
         "label": ["a", "b", "c", "d", "e", "n0000001", "n0000002", "n0000003"],
         "weight": ["1", "2.5", "0", "7", "+4", "007"]}
GENE = "ENSG00000000000000000123"
LONG = {"layer": ["L", "L34567890", "L345678901234567", "L3456789012345678", "L" + GENE[1:]],
        "label": [GENE[:width] for width in range(1, 25)]
                 + [GENE[:width - 1] + "9" for width in (8, 9, 16, 17, 24)],
        "weight": ["1.25e-300", "123456789", "0.367090434467665", "1.2848165206368274",
                   "0.30000000000000004", "2.2250738585072014e-308", "1.7976931348623157e+308"]}
SUBTLE = {"layer": [], "label": [],
          "weight": ["1_0", "-0.0", "nan", "1e400", "0x1", "-2", "-2.2250738585072014e-308"]}
ODD = {"layer": ["#L", "L#", "é", '"L"'],
       "label": ["a#b", '"a"', "a'b", "é", "a\tb", "a\rb", '"a,b"', '"a""b"', " a", "a "],
       "weight": ["inf", "é", "", "1\r"]}


def _tokens(draw, clean):
    """A token drawer: PLAIN tokens eight times as often as the others, LONG
    ones in half the texts, no ODD token in a clean text, and a label other
    than ``unlike`` nine times in ten (a self-loop is an error)."""
    long = draw(st.booleans())
    pools = {kind: PLAIN[kind] * 8 + SUBTLE[kind] + (LONG[kind] if long else [])
             + ([] if clean else ODD[kind]) for kind in PLAIN}

    def token(kind, unlike=None):
        pool = pools[kind]
        return draw(st.sampled_from([t for t in pool if t != unlike] * 9 + [unlike] if unlike
                                    else pool))

    return token


@st.composite
def edgelist_texts(draw):
    clean = draw(st.booleans())
    token = _tokens(draw, clean)
    weighted = st.sampled_from([draw(st.booleans())] * 4 + [True, False])  # mostly one width
    lines = ["#" + draw(st.sampled_from(["", " layer u v", "#"]))
             for _ in range(draw(st.integers(0, 2)))]
    for _ in range(draw(st.integers(0, 10))):
        kind = "row" if clean else draw(st.sampled_from(["row"] * 4 + ["comment", "blank"]))
        if kind == "comment":
            lines.append("#" + draw(st.sampled_from(["", " c", "é \"q\""])))
        elif kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        else:
            u = token("label")
            fields = [token("layer"), u, token("label", u)]
            fields += [token("weight")] if draw(weighted) else []
            lines.append(" ".join(fields) if clean else
                         draw(st.sampled_from([" ", " ", " ", "\t", "  "])).join(fields))
    ends = ["\n" if clean else draw(st.sampled_from(FUZZ_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if draw(st.integers(0, 3)) == 0 and text.endswith("\n") else text


@st.composite
def layer_csv_texts(draw):
    clean = draw(st.booleans())
    token = _tokens(draw, clean)
    lines = [draw(st.sampled_from(["node_u,node_v,weight", "u,v,lambda"] +
                                  ([] if clean else ["", "a,b", "é,v,w", '"u",v,w'])))]
    for _ in range(draw(st.integers(0, 10))):
        if not clean and draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "#a,b,1", "a,b", "a,b,1,2"])))
        else:
            u = token("label")
            lines.append(",".join([u, token("label", u), token("weight")]))
    ends = ["\n" if clean else draw(st.sampled_from(FUZZ_ENDS)) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    return text[:-1] if draw(st.integers(0, 3)) == 0 and text.endswith("\n") else text


# line breaks of each kind str.splitlines knows (ASCII, C1, Unicode), for chunk ends to meet
FUZZ_ENDS = ["\n", "\n", "\n", "\n", "\r\n", "\r", "\x0b", "\x1c", "\x85", "\u2028"]
FUZZ_CHUNKS = [1, 7, 12, None]


class TestReadersAgreeOnGeneratedText:
    """On text built from tricky tokens, every reader gives what the per-line
    reader gives: the same result, or the same error type, message, line and
    column, with the same duplicate counts, at every chunk size."""

    @settings(max_examples=200, deadline=None)
    @given(text=edgelist_texts())
    def test_edgelist(self, text):
        with pytest.MonkeyPatch.context() as patch:
            expected = _per_line(parse_multiplex_edgelist, text, patch)
        data = text.encode("utf-8")
        for chunk in FUZZ_CHUNKS:
            with pytest.MonkeyPatch.context() as patch:
                if chunk is not None:
                    patch.setattr(ingest, "_CHUNK_BYTES", chunk)
                assert _outcome(parse_multiplex_edgelist, text) == expected
                assert _outcome(_read_file, io.BytesIO(data)) == expected
                assert _outcome(_read_file, _Pipe(data)) == expected
                assert _same_rows(_file_rows(data, " "), _text_rows(text, " "))

    @settings(max_examples=200, deadline=None)
    @given(text=layer_csv_texts())
    def test_layer_csv(self, text):
        with pytest.MonkeyPatch.context() as patch:
            expected = _per_line(parse_layer_csv, text, patch)
        for chunk in FUZZ_CHUNKS:
            with pytest.MonkeyPatch.context() as patch:
                if chunk is not None:
                    patch.setattr(ingest, "_CHUNK_BYTES", chunk)
                assert _outcome(parse_layer_csv, text) == expected
                assert _same_rows(_file_rows(text.encode("utf-8"), ","),
                                  _text_rows(text, ","))


def test_failing_generated_test_prints_its_example(tmp_path):
    """Under the project's pytest settings, a failing hypothesis test reports
    its falsifying example rather than ending in an internal error."""
    test = tmp_path / "test_fails.py"
    test.write_text("from hypothesis import given, strategies as st\n\n\n"
                    "@given(st.integers())\ndef test_fails(value):\n    assert value < 10\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-c", str(config),
                           "-p", "no:cacheprovider", str(test)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr

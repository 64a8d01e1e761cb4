import io
import warnings

import numpy as np
import pytest

from mapnet import (
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
from mapnet.ingest import serialize_layer_csv
from mapnet.synth import truth_to_csv
from conftest import label_pair, pair_dict


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

    def test_malformed_number_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_expression_csv("gene,c1,c2\ng1,1.0,2.0\ng2,abc,3.0")
        assert err.value.line == 3
        assert err.value.column == 2

    def test_duplicate_gene_rejected(self):
        with pytest.raises(DuplicateLabel):
            parse_expression_csv("gene,c1\ng1,1\ng1,2")

    def test_duplicate_condition_rejected(self):
        with pytest.raises(DuplicateLabel):
            parse_expression_csv("gene,c1,c1\ng1,1,2")

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
                monkeypatch.setattr(ingest, "_regular_rows", lambda text, sep: None)
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
        with pytest.raises(NegativeWeight, match="at line 4$"):
            parse_layer_csv("node_u,node_v,weight\n\na,b,1\na,c,-1\n")

    def test_aggregated_csv(self):
        text = "node_u,node_v,lambda\na,b,0.5\nb,c,0.0\n"
        agg = parse_aggregated_csv(text, {"theta": 2.0, "iterations": 7, "converged": True})
        assert pair_dict(agg) == {(0, 1): 0.5, (1, 2): 0.0}
        assert agg.theta == 2.0
        assert agg.converged


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
            ("L1 n001 n002 -2", NegativeWeight, None),
        ],
    )
    def test_edgelist(self, bad, error, column):
        lines = _good_rows(BAD_LINE - 1, " ", layered=True) + [bad, "L1 n003 n004 1"]
        with pytest.raises(error) as err:
            parse_multiplex_edgelist("\n".join(lines) + "\n")
        if error is ParseError:
            assert (err.value.line, err.value.column) == (BAD_LINE, column)
        else:
            assert str(err.value) == f"negative weight -2.0 at line {BAD_LINE}"

    @pytest.mark.parametrize(
        "bad, error, column",
        [
            ("n001,n002", ParseError, None),
            ("n001,n002,3,4", ParseError, None),
            ("n001, n001,2", ParseError, None),
            ("n001,n002,x", ParseError, 3),
            ("n001,n002,nan", ParseError, 3),
            ("n001,n002,inf", ParseError, 3),
            ("n001,n002,-2", NegativeWeight, None),
        ],
    )
    def test_layer_csv(self, bad, error, column):
        # line 1 is the header
        lines = ["node_u,node_v,weight"] + _good_rows(BAD_LINE - 2, ",", layered=False)
        lines += [bad, "n003,n004,1"]
        with pytest.raises(error) as err:
            parse_layer_csv("\n".join(lines) + "\n")
        if error is ParseError:
            assert (err.value.line, err.value.column) == (BAD_LINE, column)
        else:
            assert str(err.value) == f"negative weight -2.0 at line {BAD_LINE}"

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
    with monkeypatch.context() as patch:
        patch.setattr(ingest, "_regular_rows", lambda text, sep: None)
        return _outcome(parse, text)


EDGE = "# layer u v w\n"
# (text, whether the whole-text reader takes it)
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
    ("L1 abcdefghi abcdefgh 1\n", False),
    ("layer_009 a b 1\n", False),
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
    ("node_u,node_v,weight\nabcdefghi,a,1\n", False),
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
    """The whole-text reader gives what the per-line reader gives, or leaves the text to it."""

    @pytest.mark.parametrize("chunk", [None, 12])
    @pytest.mark.parametrize("text, fast", EDGELIST_CASES)
    def test_edgelist(self, text, fast, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        assert (ingest._regular_rows(text, " ") is not None) == fast
        assert _outcome(parse_multiplex_edgelist, text) == _per_line(
            parse_multiplex_edgelist, text, monkeypatch
        )

    @pytest.mark.parametrize("chunk", [None, 12])
    @pytest.mark.parametrize("text, fast", LAYER_CSV_CASES)
    def test_layer_csv(self, text, fast, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(ingest, "_CHUNK_BYTES", chunk)
        assert (ingest._regular_rows(text, ",") is not None) == fast
        assert _outcome(parse_layer_csv, text) == _per_line(parse_layer_csv, text, monkeypatch)

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
        ave = serialize_layer_csv(net.layers[0], "weight")
        assert len(edges) > 4 * ingest._CHUNK_BYTES
        inputs = [(parse_multiplex_edgelist, edges), (parse_multiplex_edgelist, presence),
                  (parse_layer_csv, rates), (parse_layer_csv, ave)]
        expected = [_per_line(parse, text, monkeypatch) for parse, text in inputs]

        def per_line(text):
            raise AssertionError("fell back to the per-line reader")

        monkeypatch.setattr(ingest, "_edgelist_rows", per_line)
        monkeypatch.setattr(ingest, "_layer_csv_rows", per_line)
        assert parse_multiplex_edgelist(edges) == net
        assert ingest._read_multiplex_edgelist(io.BytesIO(edges.encode())) == net
        assert parse_layer_csv(rates) == truth.rates
        assert [_outcome(parse, text) for parse, text in inputs] == expected


class _Pipe(io.BytesIO):
    def seekable(self):
        return False


def _read_file(file):
    return ingest._read_multiplex_edgelist(file)


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
        rows = ingest._chunk_rows(ingest._file_chunks(io.BytesIO(data)), " ", len(data))
        assert _same_rows(rows, ingest._regular_rows(text, " "))
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
        rows = ingest._chunk_rows(ingest._file_chunks(io.BytesIO(data)), ",", len(data))
        assert _same_rows(rows, ingest._regular_rows(text, ","))

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

    @pytest.mark.parametrize("size", [0, None])
    def test_rows_outgrow_the_slab(self, size, monkeypatch):
        """Lines that get shorter than the first chunk's, or a size too small,
        outgrow the first slab, which is then grown."""
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 64)
        rows = [f"L{t % 3} {u} {v} {t % 7}.25\n" for t, (u, v) in
                enumerate(zip(*np.triu_indices(60, 1)))]
        text = "".join(rows[:20]) + "".join(row.replace(".25", "") for row in rows[20:])
        data = text.encode()
        chunked = ingest._chunk_rows(ingest._file_chunks(io.BytesIO(data)), " ",
                                     len(data) if size is None else size)
        assert _same_rows(chunked, ingest._edgelist_rows(text))

    @pytest.mark.parametrize(
        "bad",
        [
            "L1 n001 n002 2,5",  # a ParseError
            "L1 n001 n002 -2",  # a NegativeWeight
            "L1\tn001\tn002\t2",  # valid, but not regular
            "L1 n001 n002 2\r",  # valid, but not regular
            "L1 n001 n002 1.25e-300",  # regular, but too long a weight token to look up
            "L1 n001 n002 \u00e9",  # not ASCII
        ],
    )
    def test_irregular_line_many_chunks_in(self, bad, monkeypatch):
        """The per-line reader then reads the whole file again from the start."""
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 12)
        text = "\n".join(_good_rows(300, " ", layered=True) + [bad, "L1 n003 n004 1"]) + "\n"
        expected = _per_line(parse_multiplex_edgelist, text, monkeypatch)
        assert _outcome(_read_file, io.BytesIO(text.encode("utf-8"))) == expected
        assert _outcome(parse_multiplex_edgelist, text) == expected

    def test_non_utf8_file_raises_as_decoding_it_whole(self, monkeypatch):
        monkeypatch.setattr(ingest, "_CHUNK_BYTES", 12)
        data = ("\n".join(_good_rows(300, " ", layered=True)) + "\nL1 a \xff 1\n").encode("latin-1")
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

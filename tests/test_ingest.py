import numpy as np
import pytest

from mapnet import (
    generate_synthetic,
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
        assert layer2.weights == {(0, 1): 1.0, (1, 2): 1.0}

    def test_explicit_weight(self):
        net = parse_multiplex_edgelist("1 u v 3.5")
        assert net.layers[0].weights == {(0, 1): 3.5}

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
        assert layer.weights == {(0, 2): 2.0}

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
        assert layer.weight(net.universe.pair("u", "v")) == 5.0
        assert layer.weight(net.universe.pair("u", "w")) == 3.0

    def test_empty_input_rejected(self):
        with pytest.raises(ParseError):
            parse_multiplex_edgelist("# nothing here\n")


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
        assert layer.weights == {(0, 1): 1.5}
        assert layer.measurable == frozenset({(0, 1), (0, 2)})

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_layer_csv_non_finite_weight_has_position(self, token):
        with pytest.raises(ParseError) as err:
            parse_layer_csv(f"node_u,node_v,weight\na,b,1.5\na,c,{token}\n")
        assert (err.value.line, err.value.column) == (3, 3)

    def test_aggregated_csv(self):
        text = "node_u,node_v,lambda\na,b,0.5\nb,c,0.0\n"
        agg = parse_aggregated_csv(text, {"theta": 2.0, "iterations": 7, "converged": True})
        assert agg.lam == {(0, 1): 0.5, (1, 2): 0.0}
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
        assert layer0.weight(net.universe.pair("n000", "n001")) == 9.0
        assert layer0.weight(net.universe.pair(u, v)) == 8.0
        assert sum(layer.codes.size for layer in net.layers) == (BAD_LINE - 1) + 1  # + L9

import numpy as np
import pytest

from mapnet import (
    AggregationInput,
    LayerGraph,
    MultilayerNetwork,
    NodeUniverse,
    observation_summaries,
    presence_summaries,
    relabel,
    union_nodes,
)
from mapnet.errors import EmptyNetwork


def two_layer_net():
    uni = NodeUniverse(("a", "b", "c"))
    layer1 = LayerGraph(uni, {(0, 1): 3.0})
    layer2 = LayerGraph(uni, {(0, 1): 5.0, (1, 2): 2.0})
    return MultilayerNetwork(uni, (layer1, layer2), ("one", "two"))


class TestUnionNodes:
    def test_basic_union(self):
        uni = union_nodes([["a", "b"], ["b", "c"]])
        assert uni.labels == ("a", "b", "c")
        assert uni.size == 3

    def test_singleton(self):
        assert union_nodes([["x"]]).labels == ("x",)

    def test_empty(self):
        assert union_nodes([[], []]).size == 0

    def test_sorted_output(self):
        assert union_nodes([["z", "m"], ["a"]]).labels == ("a", "m", "z")

    def test_duplicate_within_layer_rejected(self):
        with pytest.raises(ValueError):
            union_nodes([["a", "a"]])


class TestNodeUniverse:
    def test_index_bijection(self):
        uni = NodeUniverse(("a", "b", "c"))
        assert [uni.index(l) for l in uni.labels] == [0, 1, 2]

    def test_pair_orders_indices(self):
        uni = NodeUniverse(("a", "b"))
        assert uni.pair("b", "a") == (0, 1)
        with pytest.raises(ValueError):
            uni.pair("a", "a")

    def test_unique_labels_required(self):
        with pytest.raises(ValueError):
            NodeUniverse(("a", "a"))


class TestLayerGraph:
    def test_zero_weight_moves_to_measurable(self):
        uni = NodeUniverse(("a", "b", "c"))
        g = LayerGraph(uni, {(0, 1): 0.0, (1, 2): 4.0})
        assert g.weights == {(1, 2): 4.0}
        assert g.measurable == frozenset({(0, 1), (1, 2)})
        assert g.weight((0, 1)) == 0.0
        assert g.weight((0, 2)) == 0.0

    def test_negative_weight_rejected(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError):
            LayerGraph(uni, {(0, 1): -1.0})

    def test_self_loop_and_bad_order_rejected(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError):
            LayerGraph(uni, {(0, 0): 1.0})
        with pytest.raises(ValueError):
            LayerGraph(uni, {(1, 0): 1.0})


class TestObservationSummaries:
    def test_counts_and_sums(self):
        inp = observation_summaries(two_layer_net())
        assert inp.k[(0, 1)] == 2
        assert inp.s[(0, 1)] == 8.0
        assert inp.k[(1, 2)] == 1

    def test_measurable_vs_nonzero_modes(self):
        uni = NodeUniverse(("a", "b", "c"))
        layer1 = LayerGraph(uni, {(0, 1): 0.0, (1, 2): 1.0})
        layer2 = LayerGraph(uni, {(1, 2): 1.0})
        net = MultilayerNetwork(uni, (layer1, layer2), ("one", "two"))
        by_measure = observation_summaries(net, count_mode="measurable")
        assert by_measure.k[(0, 1)] == 1
        assert by_measure.s[(0, 1)] == 0.0
        by_nonzero = observation_summaries(net, count_mode="nonzero_only")
        assert (0, 1) not in by_nonzero.k

    def test_pair_count_modes(self):
        net = two_layer_net()
        assert observation_summaries(net, pair_count_mode="unordered").pair_count == 3
        assert observation_summaries(net, pair_count_mode="paper_n_squared").pair_count == 9

    def test_unknown_pair_count_mode_raises(self):
        net = two_layer_net()
        with pytest.raises(ValueError, match="pair_count_mode"):
            observation_summaries(net, pair_count_mode="ordered")
        with pytest.raises(ValueError, match="pair_count_mode"):
            presence_summaries(net, pair_count_mode="ordered")
        assert presence_summaries(net, pair_count_mode="paper_n_squared").pair_count == 9

    def test_empty_network_raises(self):
        uni = NodeUniverse(("a", "b"))
        net = MultilayerNetwork(uni, (LayerGraph(uni, {}),), ("one",))
        with pytest.raises(EmptyNetwork):
            observation_summaries(net)

    def test_conservation(self):
        rng = np.random.default_rng(7)
        uni = NodeUniverse(tuple(f"n{i}" for i in range(8)))
        layers = []
        total = 0.0
        for _ in range(4):
            weights = {}
            for i in range(8):
                for j in range(i + 1, 8):
                    if rng.random() < 0.4:
                        w = float(rng.integers(0, 5))
                        weights[(i, j)] = w
                        total += w
            layers.append(LayerGraph(uni, weights))
        net = MultilayerNetwork(uni, tuple(layers), tuple("abcd"))
        inp = observation_summaries(net)
        assert sum(inp.s.values()) == pytest.approx(total, abs=1e-12)

    def test_permutation_equivariance(self):
        net = two_layer_net()
        mapping = {"a": "zz", "b": "aa", "c": "mm"}
        permuted = relabel(net, mapping)
        base = observation_summaries(net)
        other = observation_summaries(permuted)

        def by_labels(inp, uni):
            return {
                frozenset((uni.labels[i], uni.labels[j])): (inp.k[(i, j)], inp.s[(i, j)])
                for i, j in inp.k
            }

        base_map = by_labels(base, net.universe)
        other_map = {
            frozenset(mapping[next(iter(key))] if len(key) == 1 else mapping[l] for l in key): v
            for key, v in base_map.items()
        }
        assert by_labels(other, permuted.universe) == other_map


class TestAggregationInput:
    def test_rejects_zero_count(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError):
            AggregationInput(uni, {(0, 1): 0}, {(0, 1): 1.0}, 1)

    @pytest.mark.parametrize("k", [1.5, float("nan"), float("inf")])
    def test_rejects_non_integer_count(self, k):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError):
            AggregationInput(uni, {(0, 1): k}, {(0, 1): 1.0}, 1)

    def test_accepts_integer_valued_counts(self):
        uni = NodeUniverse(("a", "b", "c"))
        k = {(0, 1): np.int64(2), (1, 2): 3.0}
        inp = AggregationInput(uni, k, {(0, 1): 1.0, (1, 2): 2.0}, 3)
        assert inp.k[(0, 1)] == 2

    def test_rejects_key_mismatch(self):
        uni = NodeUniverse(("a", "b", "c"))
        with pytest.raises(ValueError):
            AggregationInput(uni, {(0, 1): 1}, {(1, 2): 1.0}, 3)

    def test_rejects_negative_sum(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError):
            AggregationInput(uni, {(0, 1): 1}, {(0, 1): -0.5}, 1)

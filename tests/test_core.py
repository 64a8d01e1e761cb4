import numpy as np
import pytest

from mapnet import (
    AggregatedNetwork,
    AggregationInput,
    LayerGraph,
    MultilayerNetwork,
    NodeUniverse,
    observation_summaries,
    presence_summaries,
    relabel,
    union_nodes,
)
from mapnet.core import reindexed
from mapnet.errors import EmptyNetwork
from conftest import coded, pair_dict


def two_layer_net():
    uni = NodeUniverse(("a", "b", "c"))
    layer1 = LayerGraph(uni, *coded(uni, {(0, 1): 3.0}))
    layer2 = LayerGraph(uni, *coded(uni, {(0, 1): 5.0, (1, 2): 2.0}))
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

    def test_unique_labels_required(self):
        with pytest.raises(ValueError):
            NodeUniverse(("a", "a"))


class TestLayerGraph:
    def test_zero_weight_moves_to_measurable(self):
        uni = NodeUniverse(("a", "b", "c"))
        g = LayerGraph(uni, *coded(uni, {(0, 1): 0.0, (1, 2): 4.0}))
        assert pair_dict(g) == {(0, 1): 0.0, (1, 2): 4.0}
        assert g.measurable == frozenset({(0, 1), (1, 2)})
        assert (0, 2) not in pair_dict(g)

    def test_negative_weight_rejected(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError):
            LayerGraph(uni, *coded(uni, {(0, 1): -1.0}))

    def test_self_loop_and_bad_order_rejected(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError):
            LayerGraph(uni, *coded(uni, {(0, 0): 1.0}))
        with pytest.raises(ValueError):
            LayerGraph(uni, *coded(uni, {(1, 0): 1.0}))

    def test_array_constructor_and_equality(self):
        uni = NodeUniverse(("a", "b", "c", "d"))
        by_pairs = LayerGraph(uni, *coded(uni, {(2, 3): 1.5, (0, 1): 0.0, (0, 2): 2.0, (1, 3): 0.0}))
        # codes i*4 + j of (0, 1), (0, 2), (1, 3), (2, 3)
        by_codes = LayerGraph(uni, [1, 2, 7, 11], [0.0, 2.0, 0.0, 1.5])
        assert by_pairs == by_codes
        assert by_codes.codes.tolist() == [1, 2, 7, 11]
        assert pair_dict(by_codes) == {(0, 1): 0.0, (0, 2): 2.0, (1, 3): 0.0, (2, 3): 1.5}
        assert by_codes.measurable == frozenset({(0, 1), (0, 2), (1, 3), (2, 3)})
        assert by_pairs != LayerGraph(uni, [1, 2, 7, 11], [0.0, 2.0, 0.0, 1.25])
        assert by_pairs != LayerGraph(uni, [1, 2, 7], [0.0, 2.0, 0.0])

    @pytest.mark.parametrize(
        "codes",
        [
            [5],  # (1, 1): i == j
            [4],  # (1, 0): i > j
            [3 * 4 + 3 + 1],  # (4, 0): i out of range
            [-1],
            [16],
            [1, 1],  # repeated
            [2, 1],  # unsorted
            [[1, 2]],  # not one-dimensional
        ],
    )
    def test_invalid_codes_rejected(self, codes):
        uni = NodeUniverse(("a", "b", "c", "d"))
        with pytest.raises(ValueError):
            LayerGraph(uni, codes, np.ones(np.size(codes)))

    @pytest.mark.parametrize("values", [[-1.0, 1.0], [np.nan, 1.0], [np.inf, 1.0], [1.0]])
    def test_invalid_values_rejected(self, values):
        uni = NodeUniverse(("a", "b", "c"))
        with pytest.raises(ValueError):
            LayerGraph(uni, [1, 2], values)

    def test_arrays_and_views_are_read_only(self):
        uni = NodeUniverse(("a", "b", "c"))
        codes = np.array([1, 5])
        layer = LayerGraph(uni, codes, [-0.0, 2.0])
        codes[0] = 2  # the layer holds its own copy
        assert layer.codes.tolist() == [1, 5]
        assert np.signbit(layer.values).tolist() == [False, False]
        with pytest.raises(ValueError):
            layer.values[1] = 3.0
        inp = AggregationInput(uni, layer.codes, [1, 2], layer.values, 3)
        with pytest.raises(ValueError):
            inp.counts[0] = 3
        with pytest.raises(TypeError):
            inp.k[(0, 1)] = 3


def frozen(values, dtype):
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


class TestArrayAdoption:
    """A constructor keeps the arrays it is handed when nothing else can
    change them, and copies them otherwise."""

    uni = NodeUniverse(("a", "b", "c"))

    def test_writeable_input_is_copied(self):
        codes, values = np.array([1, 5]), np.array([1.0, 2.0])
        layer = LayerGraph(self.uni, codes, values)
        assert not np.shares_memory(layer.codes, codes)
        assert not np.shares_memory(layer.values, values)
        assert codes.flags.writeable and values.flags.writeable

    def test_read_only_input_is_shared(self):
        codes, values = frozen([1, 5], np.int64), frozen([1.0, 2.0], np.float64)
        layer = LayerGraph(self.uni, codes[:], values[:])  # views of read-only owners
        assert np.shares_memory(layer.codes, codes) and np.shares_memory(layer.values, values)
        estimate = AggregatedNetwork(self.uni, codes, values, 1.0, 1, True, 0.0)
        as_layer = estimate.to_layer()
        assert np.shares_memory(as_layer.codes, codes) and np.shares_memory(as_layer.values, values)

    def test_read_only_view_of_a_writeable_base_is_copied(self):
        codes, values = np.array([1, 5]), np.array([1.0, 2.0])
        code_view, value_view = codes[:], values[:]
        code_view.flags.writeable = value_view.flags.writeable = False
        layer = LayerGraph(self.uni, code_view, value_view)
        assert not np.shares_memory(layer.codes, codes)
        assert not np.shares_memory(layer.values, values)
        codes[0], values[0] = 2, 7.0
        assert layer.codes.tolist() == [1, 5] and layer.values.tolist() == [1.0, 2.0]

    @pytest.mark.parametrize("dtype", [np.int32, np.float32])
    def test_other_dtypes_are_copied(self, dtype):
        layer = LayerGraph(self.uni, frozen([1, 5], dtype), frozen([1, 2], dtype))
        assert layer.codes.dtype == np.int64 and layer.values.dtype == np.float64

    def test_negative_zero_reads_back_as_zero(self):
        values = frozen([-0.0, 2.0], np.float64)
        layer = LayerGraph(self.uni, frozen([1, 5], np.int64), values)
        assert not np.shares_memory(layer.values, values)
        assert layer.values.tolist() == [0.0, 2.0]
        assert np.signbit(layer.values).tolist() == [False, False]


class TestObservationSummaries:
    def test_counts_and_sums(self):
        inp = observation_summaries(two_layer_net())
        assert inp.k[(0, 1)] == 2
        assert pair_dict(inp, inp.sums)[(0, 1)] == 8.0
        assert inp.k[(1, 2)] == 1

    def test_measurable_vs_nonzero_modes(self):
        uni = NodeUniverse(("a", "b", "c"))
        layer1 = LayerGraph(uni, *coded(uni, {(0, 1): 0.0, (1, 2): 1.0}))
        layer2 = LayerGraph(uni, *coded(uni, {(1, 2): 1.0}))
        net = MultilayerNetwork(uni, (layer1, layer2), ("one", "two"))
        by_measure = observation_summaries(net, count_mode="measurable")
        assert by_measure.k[(0, 1)] == 1
        assert pair_dict(by_measure, by_measure.sums)[(0, 1)] == 0.0
        by_nonzero = observation_summaries(net, count_mode="nonzero_only")
        assert (0, 1) not in by_nonzero.k

    def test_sums_add_in_layer_order(self):
        # (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit
        uni = NodeUniverse(("a", "b", "c"))
        layers = tuple(LayerGraph(uni, [1, 5], [w, 1.0]) for w in (0.1, 0.2, 0.3))
        inp = observation_summaries(MultilayerNetwork(uni, layers, ("x", "y", "z")))
        assert pair_dict(inp, inp.sums)[(0, 1)] == (0.0 + 0.1 + 0.2) + 0.3 != 0.3 + 0.2 + 0.1
        assert inp.k == {(0, 1): 3, (1, 2): 3}

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
        net = MultilayerNetwork(uni, (LayerGraph(uni, [], []),), ("one",))
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
            layers.append(LayerGraph(uni, *coded(uni, weights)))
        net = MultilayerNetwork(uni, tuple(layers), tuple("abcd"))
        inp = observation_summaries(net)
        assert sum(pair_dict(inp, inp.sums).values()) == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("count_mode", ["measurable", "nonzero_only"])
    def test_fold_matches_concatenated_unique(self, seed, count_mode):
        # the summaries' earlier form, all layers at once, as an oracle for every bit
        rng = np.random.default_rng(seed)
        n = 30
        uni = NodeUniverse(tuple(f"n{i:02d}" for i in range(n)))
        every = np.flatnonzero(np.triu(np.ones((n, n), dtype=bool), 1))
        layers = []
        for keep in rng.uniform(0.0, 0.6, 7):  # later layers bring pairs before, between, after
            codes = every[rng.random(every.size) < keep]
            weights = rng.exponential(1.0, codes.size) * (rng.random(codes.size) < 0.8)
            layers.append(LayerGraph(uni, codes, weights))
        layers.insert(3, LayerGraph(uni, [], []))
        net = MultilayerNetwork(uni, tuple(layers), tuple("abcdefgh"))
        codes = np.concatenate([layer.codes for layer in layers])
        values = np.concatenate([layer.values for layer in layers])
        if count_mode == "nonzero_only":
            codes, values = codes[values > 0], values[values > 0]
        pairs, slot = np.unique(codes, return_inverse=True)
        inp = observation_summaries(net, count_mode)
        np.testing.assert_array_equal(inp.codes, pairs)
        np.testing.assert_array_equal(inp.counts, np.bincount(slot))
        assert inp.sums.tobytes() == np.bincount(slot, weights=values).tobytes()

    def test_permutation_equivariance(self):
        net = two_layer_net()
        mapping = {"a": "zz", "b": "aa", "c": "mm"}
        permuted = relabel(net, mapping)
        base = observation_summaries(net)
        other = observation_summaries(permuted)

        def by_labels(inp, uni):
            s = pair_dict(inp, inp.sums)
            return {
                frozenset((uni.labels[i], uni.labels[j])): (inp.k[(i, j)], s[(i, j)])
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
            AggregationInput(uni, [1], [0], [1.0], 1)

    @pytest.mark.parametrize("k", [1.5, float("nan"), float("inf")])
    def test_rejects_non_integer_count(self, k):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError):
            AggregationInput(uni, [1], [k], [1.0], 1)

    def test_accepts_integer_valued_counts(self):
        uni = NodeUniverse(("a", "b", "c"))
        inp = AggregationInput(uni, [1, 5], [np.int64(2), 3.0], [1.0, 2.0], 3)
        assert inp.k[(0, 1)] == 2
        assert inp.counts.dtype == np.int64

    def test_rejects_length_mismatch(self):
        uni = NodeUniverse(("a", "b", "c"))
        with pytest.raises(ValueError):
            AggregationInput(uni, [1], [1], [1.0, 2.0], 3)
        with pytest.raises(ValueError):
            AggregationInput(uni, [1, 5], [1], [1.0, 2.0], 3)

    def test_rejects_negative_sum(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError):
            AggregationInput(uni, [1], [1], [-0.5], 1)

    def test_count_view_matches_arrays(self):
        uni = NodeUniverse(("a", "b", "c"))
        codes, counts = coded(uni, {(1, 2): 3, (0, 1): 1})
        inp = AggregationInput(uni, codes, counts, coded(uni, {(0, 1): 2.0, (1, 2): 0.5})[1], 3)
        assert inp == AggregationInput(uni, [1, 5], [1, 3], [2.0, 0.5], 3)
        assert inp.k == {(0, 1): 1, (1, 2): 3}
        assert pair_dict(inp, inp.sums) == {(0, 1): 2.0, (1, 2): 0.5}
        assert sum(inp.k.values()) == inp.counts.sum() == 4

    def test_estimate_array_constructor(self):
        uni = NodeUniverse(("a", "b", "c"))
        est = AggregatedNetwork(uni, *coded(uni, {(1, 2): 0.5, (0, 1): 0.0}), 2.0, 7, True, -1.5)
        assert est == AggregatedNetwork(uni, [1, 5], [0.0, 0.5], 2.0, 7, True, -1.5)
        assert pair_dict(est) == {(0, 1): 0.0, (1, 2): 0.5}
        assert est.to_layer() == LayerGraph(uni, [1, 5], [0.0, 0.5])
        with pytest.raises(ValueError):
            AggregatedNetwork(uni, [5, 1], [0.5, 0.0], 2.0, 7, True, -1.5)


class TestReindexed:
    def test_pairs_follow_their_labels(self):
        small = NodeUniverse(("b", "d", "e"))
        layer = LayerGraph(small, *coded(small, {(0, 2): 1.5, (1, 2): 0.0, (0, 1): 2.5}))
        big = NodeUniverse(("a", "b", "c", "d", "e"))
        moved = reindexed(layer, big)
        assert moved == LayerGraph(big, *coded(big, {(1, 4): 1.5, (3, 4): 0.0, (1, 3): 2.5}))
        est = AggregatedNetwork(small, *coded(small, {(0, 2): 0.25}), 3.0, 4, False, -2.0)
        moved = reindexed(est, big)
        assert pair_dict(moved) == {(1, 4): 0.25}
        assert (moved.theta, moved.iterations, moved.converged) == (3.0, 4, False)

    def test_missing_label_raises_key_error(self):
        layer = LayerGraph(NodeUniverse(("a", "z")), [1], [1.0])
        with pytest.raises(KeyError):
            reindexed(layer, NodeUniverse(("a", "b")))

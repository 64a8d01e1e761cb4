import numpy as np
import pytest

from mapnet import (
    CorrelationConfig,
    EmConfig,
    ExpressionDataset,
    LayerGraph,
    MultilayerNetwork,
    NodeUniverse,
    build_avenet,
    build_connet,
    build_correlation_layer,
    build_correlation_network,
    em_aggregate,
    observation_summaries,
    zscore_normalize,
)
from mapnet.errors import DegenerateConditionWarning
from conftest import coded, label_pair, make_expression_dataset, pair_dict


class TestBuildConnet:
    def test_single_prenormalized_dataset_matches_plain_layer(self):
        rng = np.random.default_rng(21)
        ds = make_expression_dataset(rng, [f"g{i}" for i in range(8)], 10, name="only")
        ds = zscore_normalize(ds)
        plain = build_correlation_layer(ds, CorrelationConfig(quantize_levels=None))
        connet = build_connet([ds])
        assert connet.universe == plain.universe
        assert connet.measurable == plain.measurable
        for pair, weight in pair_dict(plain).items():
            assert pair_dict(connet)[pair] == pytest.approx(weight, abs=1e-12)

    def test_conflation_detects_pairs_no_layer_can(self):
        rng = np.random.default_rng(22)
        genes = ["a", "b", "c", "d"]
        ds1 = make_expression_dataset(rng, genes, 3, name="one", missing_rate=0.0)
        ds2 = make_expression_dataset(rng, genes, 3, name="two", missing_rate=0.0)
        cfg = CorrelationConfig(min_pairs=5)
        net = build_correlation_network([ds1, ds2], cfg)
        for layer in net.layers:
            assert layer.measurable == frozenset()
        connet = build_connet([ds1, ds2], cfg.min_pairs)
        assert label_pair(connet.universe, "a", "b") in connet.measurable

    def test_no_overlap_anywhere_gives_empty_layer(self):
        values = np.array([[1.0, np.nan], [np.nan, 2.0]])
        ds = ExpressionDataset(("a", "b"), ("c1", "c2"), values, name="sparse")
        with pytest.warns(DegenerateConditionWarning):
            connet = build_connet([ds], min_pairs=2)
        assert connet.measurable == frozenset()

    def test_connet_weights_are_raw_coefficients(self):
        rng = np.random.default_rng(23)
        ds = make_expression_dataset(rng, [f"g{i}" for i in range(6)], 12, name="raw")
        connet = build_connet([ds])
        values = list(pair_dict(connet).values())
        assert any(v != int(v) for v in values)
        assert all(0.0 <= v <= 1.0 for v in values)


class TestBuildAvenet:
    def make_net(self):
        uni = NodeUniverse(("a", "b", "c"))
        layers = (
            LayerGraph(uni, *coded(uni, {(0, 1): 4.0})),
            LayerGraph(uni, *coded(uni, {(0, 1): 6.0})),
            LayerGraph(uni, *coded(uni, {(1, 2): 9.0})),
        )
        return MultilayerNetwork(uni, layers, ("x", "y", "z"))

    def test_measurable_layers_mean(self):
        ave = build_avenet(self.make_net())
        assert pair_dict(ave)[(0, 1)] == pytest.approx(5.0)

    def test_all_layers_mean(self):
        ave = build_avenet(self.make_net(), denominator="all_layers")
        assert pair_dict(ave)[(0, 1)] == pytest.approx(10.0 / 3.0)

    def test_unknown_denominator_rejected(self):
        with pytest.raises(ValueError, match="unknown denominator 'x'"):
            build_avenet(self.make_net(), "x")

    def test_single_layer_identity(self):
        uni = NodeUniverse(("a", "b", "c"))
        layer = LayerGraph(uni, *coded(uni, {(0, 1): 2.5, (1, 2): 0.0}))
        net = MultilayerNetwork(uni, (layer,), ("only",))
        assert build_avenet(net) == layer

    def test_avenet_dominates_map_estimate(self, expression_collection):
        net = build_correlation_network(expression_collection, CorrelationConfig())
        ave = pair_dict(build_avenet(net))
        agg = em_aggregate(observation_summaries(net), EmConfig())
        assert agg.theta > 0
        for pair, lam in pair_dict(agg).items():
            assert lam <= ave.get(pair, 0.0) + 1e-15

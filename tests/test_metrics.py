import math

import networkx as nx
import numpy as np
import pytest

from mapnet import (
    EmConfig,
    LayerGraph,
    NodeUniverse,
    build_connet,
    em_aggregate,
    exponential_fit_r2,
    generate_synthetic,
    metrics,
    network_report,
    observation_summaries,
    von_neumann_entropy,
    weight_cdf,
)
from mapnet.errors import DegenerateValues, DomainError, EmptyGraph
from mapnet.metrics import _principal_eigenvector, adjacency_matrix
from conftest import coded, make_expression_collection, pair_dict


def star_labels(n):
    return NodeUniverse(tuple(f"n{i:02d}" for i in range(n)))


def random_layer(rng, n, p=0.4, max_w=5.0):
    uni = star_labels(n)
    weights = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                weights[(i, j)] = float(rng.uniform(0.1, max_w))
    if not weights:
        weights[(0, 1)] = 1.0
    return LayerGraph(uni, *coded(uni, weights))


class TestVonNeumannEntropy:
    def test_single_edge_pure_state(self):
        for w in (1.0, 4.2):
            uni = NodeUniverse(("a", "b"))
            spec = von_neumann_entropy(LayerGraph(uni, [1], [w]))
            assert sorted(spec.gammas) == [0.0, 1.0]
            assert spec.entropy == 0.0
            # -(1·log 1) is -0.0, which a report would write as "-0.0"
            assert math.copysign(1.0, spec.entropy) == 1.0
            assert math.copysign(1.0, network_report(LayerGraph(uni, [1], [w])).entropy) == 1.0

    def test_equal_triangle_closed_form(self):
        # raw Laplacian spectrum of K3 with equal weights w is {0, 3w, 3w}
        uni = NodeUniverse(("a", "b", "c"))
        layer = LayerGraph(uni, *coded(uni, {(0, 1): 2.0, (0, 2): 2.0, (1, 2): 2.0}))
        spec = von_neumann_entropy(layer)
        np.testing.assert_allclose(sorted(spec.gammas), [0.0, 0.5, 0.5], atol=1e-12)
        assert spec.entropy == pytest.approx(math.log(2), abs=1e-9)
        base2 = von_neumann_entropy(layer, log_base="base2")
        assert base2.entropy == pytest.approx(1.0, abs=1e-9)

    def test_unit_trace_and_max_entropy_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            layer = random_layer(rng, int(rng.integers(3, 30)))
            spec = von_neumann_entropy(layer)
            assert sum(spec.gammas) == pytest.approx(1.0, abs=1e-9)
            assert min(spec.gammas) == 0.0
            assert all(g >= 0 for g in spec.gammas)
            assert spec.entropy <= math.log(layer.universe.size) + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        layer = random_layer(rng, 12)
        h = von_neumann_entropy(layer).entropy
        scaled = LayerGraph(layer.universe, layer.codes, 37.5 * layer.values)
        assert von_neumann_entropy(scaled).entropy == pytest.approx(h, abs=1e-9)

    def test_disjoint_union_is_more_mixed(self):
        rng = np.random.default_rng(33)
        layer = random_layer(rng, 8)
        n = layer.universe.size
        double = NodeUniverse(tuple(f"a{l}" for l in layer.universe.labels)
                              + tuple(f"b{l}" for l in layer.universe.labels))
        weights = {}
        for (i, j), w in pair_dict(layer).items():
            weights[(i, j)] = w
            weights[(i + n, j + n)] = w
        union = LayerGraph(double, *coded(double, weights))
        assert von_neumann_entropy(union).entropy > von_neumann_entropy(layer).entropy

    def test_power_of_two_scaling_keeps_the_spectrum(self):
        # the weights are scaled by a power of two before the Laplacian is built, so any
        # power of two, up to the edge of the float range, gives the same bits
        layer = random_layer(np.random.default_rng(37), 12)
        spec = von_neumann_entropy(layer)
        for power in (-600, -3, 5, 1018):
            scaled = LayerGraph(layer.universe, layer.codes, np.ldexp(layer.values, power))
            assert von_neumann_entropy(scaled) == spec

    def test_weights_near_the_float_range(self):
        # the triangle's total weight overflows unless the weights are scaled first
        uni = NodeUniverse(("a", "b", "c"))
        for weight in (6e307, 1e308):
            spec = von_neumann_entropy(LayerGraph(uni, [1, 2, 5], [weight] * 3))
            assert spec.entropy == pytest.approx(math.log(2), rel=1e-15, abs=0)

    def test_empty_graph_rejected(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(EmptyGraph):
            von_neumann_entropy(LayerGraph(uni, [1], [0.0]))

    def test_unknown_log_base_rejected(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(ValueError, match="unknown log_base 'x'"):
            von_neumann_entropy(LayerGraph(uni, [1], [1.0]), "x")


def einsum_clustering_avg(a):
    """Geometric-mean clustering with the triangle sums as one einsum over
    index triples (kept as an oracle for metrics._weighted_clustering_avg)."""
    cbrt = np.cbrt(a / a.max())
    triangles = np.einsum("ij,jk,ki->i", cbrt, cbrt, cbrt)
    degree = (a > 0).sum(axis=1)
    coeff = np.zeros(a.shape[0])
    multi = degree >= 2
    coeff[multi] = triangles[multi] / (degree[multi] * (degree[multi] - 1))
    return float(coeff.mean())


def path_adjacency(n):
    a = np.zeros((n, n))
    a[np.arange(n - 1), np.arange(1, n)] = a[np.arange(1, n), np.arange(n - 1)] = 1.0
    return a


class TestNetworkReport:
    def test_path_graph(self):
        uni = NodeUniverse(("a", "b", "c"))
        layer = LayerGraph(uni, *coded(uni, {(0, 1): 1.0, (1, 2): 1.0}))
        report = network_report(layer)
        assert report.strength_min == 1.0
        assert report.strength_max == 2.0
        assert report.strength_avg == pytest.approx(4.0 / 3.0)
        assert report.clustering_avg == 0.0

    def test_triangle_clustering_is_one(self):
        uni = NodeUniverse(("a", "b", "c"))
        layer = LayerGraph(uni, *coded(uni, {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}))
        assert network_report(layer).clustering_avg == pytest.approx(1.0)

    def test_complete_graph_uniform_centrality(self):
        n = 7
        uni = star_labels(n)
        layer = LayerGraph(uni, *coded(uni, {(i, j): 2.0 for i in range(n) for j in range(i + 1, n)}))
        report = network_report(layer)
        assert report.eigencentrality_mean == pytest.approx(1.0 / math.sqrt(n), abs=1e-9)

    def test_clustering_matches_networkx(self):
        rng = np.random.default_rng(34)
        for _ in range(10):
            layer = random_layer(rng, int(rng.integers(5, 15)), p=0.5)
            g = nx.Graph()
            g.add_nodes_from(range(layer.universe.size))
            for (i, j), w in pair_dict(layer).items():
                g.add_edge(i, j, weight=w)
            expected = nx.average_clustering(g, weight="weight")
            assert network_report(layer).clustering_avg == pytest.approx(expected, abs=1e-10)

    def test_clustering_matches_the_einsum_triangles(self):
        """The matmul form of the triangle sums agrees with the einsum over
        index triples it replaced, within 1e-13 relative."""
        rng = np.random.default_rng(37)
        for n in (8, 40, 300):
            a = np.triu(rng.exponential(size=(n, n)) * (rng.random((n, n)) < 0.6), 1)
            a += a.T
            expected = einsum_clustering_avg(a)
            assert expected > 0
            assert metrics._weighted_clustering_avg(a) == pytest.approx(expected, rel=1e-13)

    def test_bipartite_graph_converges(self):
        # equal-magnitude extreme eigenvalues need the diagonal shift
        uni = star_labels(4)
        layer = LayerGraph(uni, *coded(uni, {(0, 2): 1.0, (0, 3): 1.0, (1, 2): 1.0, (1, 3): 1.0}))
        report = network_report(layer)
        assert report.eigencentrality_mean == pytest.approx(0.5, abs=1e-8)

    def test_empty_graph_rejected(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(EmptyGraph):
            network_report(LayerGraph(uni, [], []))

    @pytest.mark.parametrize("weight", [6e307, 1e308])
    def test_strengths_past_the_float_range_rejected(self, weight):
        # 1e308 overflows each strength; 6e307 only their sum, and with it the mean
        uni = NodeUniverse(("a", "b", "c"))
        with pytest.raises(DomainError, match="^node strengths overflow the float range$"):
            network_report(LayerGraph(uni, [1, 2, 5], [weight] * 3))

    def test_adjacency_built_once_for_the_entropy_and_once_for_the_rest(self, monkeypatch):
        # the entropy's matrices are freed before the report builds its own
        layer = random_layer(np.random.default_rng(36), 12)
        calls = []

        def counted(g):
            calls.append(g)
            return adjacency_matrix(g)

        monkeypatch.setattr(metrics, "adjacency_matrix", counted)
        report = network_report(layer)
        assert calls == [layer, layer]
        monkeypatch.undo()
        assert report.entropy == von_neumann_entropy(layer).entropy
        base2 = network_report(layer, "base2")
        assert base2.entropy == von_neumann_entropy(layer, "base2").entropy


def power_loop(a, tol=1e-10, max_iter=100000):
    """Shifted power iteration from the uniform vector, stopped once
    ‖Av − μv‖ ≤ tol·μ (the centrality's former implementation, kept as an
    oracle; it converges fast only on graphs with a wide spectral gap)."""
    n = a.shape[0]
    shift = 1.0 + a.sum(axis=1).max()
    v = np.full(n, 1.0 / math.sqrt(n))
    for _ in range(max_iter):
        w = a @ v + shift * v
        v = w / np.linalg.norm(w)
        mu = float(v @ a @ v)
        if np.linalg.norm(a @ v - mu * v) <= tol * mu:
            return v
    raise AssertionError(f"power loop did not converge in {max_iter} steps")


def networkx_centrality(a):
    """networkx's eigenvector_centrality_numpy of the adjacency ``a``, as an array."""
    n = a.shape[0]
    c = nx.eigenvector_centrality_numpy(nx.from_numpy_array(a), weight="weight")
    return np.array([c[i] for i in range(n)])


def two_components(b, scale):
    """Block-diagonal adjacency of ``b`` and ``scale``·``b``."""
    n = b.shape[0]
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = b
    a[n:, n:] = scale * b
    return a


def dense_adjacency(rng, n, p=0.5):
    a = np.triu(rng.uniform(0.1, 5.0, (n, n)) * (rng.random((n, n)) < p), 1)
    return a + a.T


class TestCentrality:
    """_principal_eigenvector against networkx and the power loop it replaced."""

    def test_random_connected_graphs(self):
        rng = np.random.default_rng(35)
        for n in (4, 9, 20, 60, 150):
            a = dense_adjacency(rng, n)
            assert nx.is_connected(nx.from_numpy_array(a))
            v = _principal_eigenvector(a)
            mu = float(v @ a @ v)
            assert np.linalg.norm(a @ v - mu * v) < 1e-12 * mu
            np.testing.assert_allclose(v, networkx_centrality(a), rtol=0, atol=1e-12)
            np.testing.assert_allclose(v, power_loop(a), rtol=0, atol=1e-8)

    def test_synth_aggregate_and_connet(self):
        net, _ = generate_synthetic(300, 11, coverage=0.8, seed=1)
        agg = em_aggregate(observation_summaries(net), EmConfig())
        connet = build_connet(make_expression_collection(seed=3, n_genes=150, presence=0.85,
                                                         missing=0.1, n_conditions=16))
        for g in (agg, connet):
            a = adjacency_matrix(g)
            np.testing.assert_allclose(_principal_eigenvector(a), networkx_centrality(a),
                                       rtol=0, atol=1e-12)

    def test_sign_of_the_eigh_basis_does_not_matter(self, monkeypatch):
        rng = np.random.default_rng(38)
        for a in (dense_adjacency(rng, 30), two_components(dense_adjacency(rng, 6, p=0.9), 1.0)):
            expected = _principal_eigenvector(a)
            eigh = np.linalg.eigh

            def negated(m):
                w, vecs = eigh(m)
                return w, -vecs

            monkeypatch.setattr(np.linalg, "eigh", negated)
            assert np.array_equal(_principal_eigenvector(a), expected)
            monkeypatch.undo()
            assert expected.sum() > 0

    def test_identical_components_share_the_mass(self):
        b = dense_adjacency(np.random.default_rng(39), 6, p=0.9)
        a = two_components(b, 1.0)
        v = _principal_eigenvector(a)
        np.testing.assert_allclose(v, power_loop(a), rtol=0, atol=1e-10)
        assert v[:6].sum() == pytest.approx(v[6:].sum(), abs=1e-12)
        np.testing.assert_allclose(v[:6], v[6:], rtol=0, atol=1e-12)

    def test_weaker_component_gets_zeros(self):
        b = dense_adjacency(np.random.default_rng(40), 6, p=0.9)
        for scale in (0.5, 0.999):
            v = _principal_eigenvector(two_components(b, scale))
            assert np.abs(v[6:]).max() <= 1e-12
            np.testing.assert_allclose(v[:6], networkx_centrality(b), rtol=0, atol=1e-12)

    def test_path_graph_matches_eigh(self):
        """The 1000-node path graph has a relative spectral gap of about 1e-5:
        the power loop ran 36.7 s and stopped 3.1e-3 off."""
        n = 1000
        a = path_adjacency(n)
        _, vecs = np.linalg.eigh(a)
        top = vecs[:, -1] * np.sign(vecs[:, -1].sum())
        v = _principal_eigenvector(a)
        np.testing.assert_allclose(v, top, rtol=0, atol=1e-10)
        uni = star_labels(n)
        layer = LayerGraph(uni, np.arange(n - 1) * (n + 1) + 1, np.ones(n - 1))
        assert network_report(layer).eigencentrality_mean == v.mean()


class TestWeightCdf:
    def test_counting(self):
        cdf = weight_cdf([1, 1, 2])
        assert (cdf.dtype, cdf.shape) == (np.float64, (2, 2))
        assert cdf.tolist() == [[1.0, pytest.approx(2 / 3)], [2.0, 1.0]]

    def test_degenerate_all_equal(self):
        assert weight_cdf([0, 0, 0]).tolist() == [[0.0, 1.0]]

    def test_measured_zeros_included(self):
        uni = NodeUniverse(("a", "b", "c"))
        layer = LayerGraph(uni, *coded(uni, {(0, 1): 2.0, (0, 2): 0.0}))
        assert weight_cdf(layer.values).tolist() == [[0.0, 0.5], [2.0, 1.0]]

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="need at least one value"):
            weight_cdf(np.array([]))


class TestExponentialFitR2:
    def test_quantile_samples_fit_perfectly(self):
        theta = 0.8
        n = 200
        values = [-math.log(1 - (i - 0.5) / n) / theta for i in range(1, n + 1)]
        assert exponential_fit_r2(values, theta) >= 0.999

    def test_misfit_probe(self):
        values = [1.0 + 1e-4 * i for i in range(10)]
        assert exponential_fit_r2(values, 1.0) < 0.5

    def test_duplication_invariance(self):
        values = [0.2, 0.5, 1.1, 2.0]
        assert exponential_fit_r2(values * 2, 0.9) == exponential_fit_r2(values, 0.9)

    def test_seeded_exponential_sample(self):
        rng = np.random.default_rng(36)
        theta = 0.7
        values = rng.exponential(scale=1.0 / theta, size=1000)
        assert exponential_fit_r2(values, theta) > 0.98

    def test_all_equal_rejected(self):
        with pytest.raises(DegenerateValues):
            exponential_fit_r2([2.0, 2.0, 2.0], 1.0)

    @pytest.mark.parametrize("values", [[], [np.nan], [np.nan, np.nan]])
    def test_fewer_than_two_distinct_rejected(self, values):
        with pytest.raises(DegenerateValues, match="two distinct values"):
            exponential_fit_r2(values, 1.0)

    @pytest.mark.parametrize("values, theta, message", [
        ([1.0, 2.0], 0.0, "theta must be positive"),
        ([1.0, 2.0], -0.5, "theta must be positive"),
        ([0.0, 2.0], 1.0, "values must be positive"),
        ([-1.0, 2.0], 1.0, "values must be positive"),
    ])
    def test_outside_the_domain_rejected(self, values, theta, message):
        with pytest.raises(DomainError, match=message):
            exponential_fit_r2(values, theta)

    @pytest.mark.parametrize("values", [[1.0, 2.0, np.nan], [1.0, np.nan], [1.0, 1.0, np.nan]])
    def test_nan_counts_as_a_distinct_value(self, values):
        """NaN counts as one more value, as np.unique counts it, and flows on into nan."""
        assert math.isnan(exponential_fit_r2(values, 1.0))

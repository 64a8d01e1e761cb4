import functools
import json
import math
import warnings

import networkx as nx
import numpy as np
import pytest

from mapnet import (
    LayerGraph,
    NodeUniverse,
    exponential_fit_r2,
    metrics,
    network_report,
    von_neumann_entropy,
    weight_cdf,
)
from mapnet.cli import main
from mapnet.errors import DegenerateValues, EmptyGraph, PowerIterationWarning
from mapnet.metrics import _principal_eigenvector, adjacency_matrix
from conftest import coded, pair_dict


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

    def test_empty_graph_rejected(self):
        uni = NodeUniverse(("a", "b"))
        with pytest.raises(EmptyGraph):
            von_neumann_entropy(LayerGraph(uni, [1], [0.0]))


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

    def test_power_iteration_residual(self):
        rng = np.random.default_rng(35)
        for _ in range(10):
            layer = random_layer(rng, int(rng.integers(4, 20)))
            a = adjacency_matrix(layer)
            v = _principal_eigenvector(a)
            mu = float(v @ a @ v)
            assert np.linalg.norm(a @ v - mu * v) < 1e-8 * mu

    def test_power_iteration_out_of_steps_warns(self):
        a = path_adjacency(12)
        with pytest.warns(PowerIterationWarning) as caught:
            v = _principal_eigenvector(a, max_iter=20)
        (warning,) = caught
        mu = float(v @ a @ v)
        assert warning.message.steps == 20
        assert warning.message.residual == pytest.approx(np.linalg.norm(a @ v - mu * v) / mu)
        assert warning.message.residual > 1e-10
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            v = _principal_eigenvector(a)
        mu = float(v @ a @ v)
        assert np.linalg.norm(a @ v - mu * v) <= 1e-10 * mu

    def test_power_iteration_warning_is_a_json_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(metrics, "_principal_eigenvector",
                            functools.partial(_principal_eigenvector, max_iter=5))
        path = tmp_path / "path.csv"
        path.write_text("node_u,node_v,weight\n" + "".join(f"v{i},v{i + 1},1.0\n" for i in range(9)))
        assert main(["metrics", str(path), "-o", str(tmp_path / "report.json")]) == 0
        (line,) = capsys.readouterr().err.splitlines()
        warning = json.loads(line)
        assert warning["warning"] == "PowerIterationWarning"
        assert warning["steps"] == 5 and warning["residual"] > 1e-10
        assert warning["message"].startswith("power iteration stopped unconverged after 5 steps")

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

    def test_adjacency_built_once(self, monkeypatch):
        layer = random_layer(np.random.default_rng(36), 12)
        calls = []

        def counted(g):
            calls.append(g)
            return adjacency_matrix(g)

        monkeypatch.setattr(metrics, "adjacency_matrix", counted)
        report = network_report(layer)
        assert calls == [layer]
        monkeypatch.undo()
        assert report.entropy == von_neumann_entropy(layer).entropy
        base2 = network_report(layer, "base2")
        assert base2.entropy == von_neumann_entropy(layer, "base2").entropy


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

    @pytest.mark.parametrize("values", [[1.0, 2.0, np.nan], [1.0, np.nan], [1.0, 1.0, np.nan]])
    def test_nan_counts_as_a_distinct_value(self, values):
        """NaN counts as one more value, as np.unique counts it, and flows on into nan."""
        assert math.isnan(exponential_fit_r2(values, 1.0))

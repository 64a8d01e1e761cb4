import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
import scipy.stats

from mapnet import (
    CorrelationConfig,
    ExpressionDataset,
    LayerGraph,
    NodeUniverse,
    build_correlation_layer,
    conflate,
    pearson_pairwise_complete,
    zscore_normalize,
)
from mapnet.correlation import _pearson_masked
from mapnet.errors import DegenerateConditionWarning, LengthMismatch
from conftest import coded, label_pair, make_expression_dataset, pair_dict

NAN = float("nan")


class TestPearsonPairwiseComplete:
    def test_perfect_correlation(self):
        assert pearson_pairwise_complete([1, 2, 3], [1, 2, 3], min_pairs=2) == 1.0

    def test_perfect_anticorrelation(self):
        assert pearson_pairwise_complete([1, 2, 3], [3, 2, 1], min_pairs=2) == -1.0

    def test_overlap_rule(self):
        x = [1, None, 3, 4, None]
        y = [None, 2, 3, 4, 5]
        assert pearson_pairwise_complete(x, y, min_pairs=5) is None
        # only positions 2 and 3 are shared
        assert pearson_pairwise_complete(x, y, min_pairs=2) is not None

    def test_textbook_oracle_value(self):
        # frozen from the plain covariance/variance formula: r = 10 / sqrt(148)
        x = [1, 2, 3, 4, 5]
        y = [2, 1, 4, 3, 6]
        r = pearson_pairwise_complete(x, y, min_pairs=2)
        assert r == pytest.approx(10 / math.sqrt(148), abs=1e-15)
        assert r == pytest.approx(scipy.stats.pearsonr(x, y).statistic, abs=1e-12)

    def test_against_scipy_on_masked_vectors(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            x[rng.random(n) < 0.25] = np.nan
            y[rng.random(n) < 0.25] = np.nan
            both = ~(np.isnan(x) | np.isnan(y))
            r = pearson_pairwise_complete(x, y, min_pairs=3)
            if both.sum() < 3:
                assert r is None
            else:
                expected = scipy.stats.pearsonr(x[both], y[both]).statistic
                assert r == pytest.approx(expected, abs=1e-12)

    def test_symmetry_and_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=20)
        y = rng.normal(size=20)
        r = pearson_pairwise_complete(x, y, min_pairs=2)
        assert pearson_pairwise_complete(y, x, min_pairs=2) == pytest.approx(r, abs=1e-15)
        assert pearson_pairwise_complete(3.7 * x + 2, y, min_pairs=2) == pytest.approx(
            r, abs=1e-12
        )
        assert pearson_pairwise_complete(x, 0.01 * y - 5, min_pairs=2) == pytest.approx(
            r, abs=1e-12
        )

    def test_zero_variance_gives_absent(self):
        assert pearson_pairwise_complete([1, 1, 1], [1, 2, 3], min_pairs=2) is None

    @pytest.mark.parametrize("value, n", [(0.1, 6), (0.7, 7)])
    def test_constant_whose_mean_does_not_round_exactly_is_absent(self, value, n):
        # the mean of n copies of value is not exactly value, so the
        # deviations are tiny but nonzero; this is still zero variance
        assert np.mean([value] * n) != value
        y = np.random.default_rng(5).normal(size=n)
        assert pearson_pairwise_complete([value] * n, y, min_pairs=5) is None
        assert pearson_pairwise_complete(y, [value] * n, min_pairs=5) is None

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            pearson_pairwise_complete([1, 2], [1, 2, 3], min_pairs=2)

    @pytest.mark.parametrize("scale", [1e-160, 1e160])
    def test_extreme_scale_gives_the_unscaled_r(self, scale):
        # sxx * syy under- or overflows at these scales
        x = np.array([1, 2, 3, 4, 5, 7], dtype=float)
        y = np.array([2, 1, 4, 3, 6, 5], dtype=float)
        r = pearson_pairwise_complete(x, y)
        assert abs(pearson_pairwise_complete(x * scale, y * scale) - r) <= 1e-12
        assert abs(pearson_pairwise_complete(x * scale, y) - r) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-78, 1e150])
    @pytest.mark.parametrize("levels", [10, None])
    def test_extreme_scale_dataset_on_the_gram_path(self, scale, levels):
        # unscaled, the Gram products go subnormal near 1e-78 and overflow near 1e150
        ds = make_expression_dataset(
            np.random.default_rng(0), [f"g{i:02d}" for i in range(30)], 12, "d", missing_rate=0.1
        )
        scaled = ExpressionDataset(ds.genes, ds.conditions, ds.values * scale, name="d")
        cfg = CorrelationConfig(quantize_levels=levels)
        layer = build_correlation_layer(ds, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = build_correlation_layer(scaled, cfg)
        assert np.array_equal(got.codes, layer.codes)
        if levels is None:
            assert np.abs(got.values - layer.values).max() <= 1e-15
        else:
            assert got == layer

    def test_tiny_scale_dataset_builds_the_unscaled_layer(self):
        ds = make_expression_dataset(
            np.random.default_rng(4), [f"g{i:02d}" for i in range(30)], 12, "d", missing_rate=0.1
        )
        tiny = ExpressionDataset(ds.genes, ds.conditions, ds.values * 1e-160, name="d")
        cfg = CorrelationConfig()
        layer = build_correlation_layer(ds, cfg)
        assert layer.codes.size == 30 * 29 // 2
        assert build_correlation_layer(tiny, cfg) == layer


class TestBuildCorrelationLayer:
    def make_dataset(self, values, genes=None):
        values = np.asarray(values, dtype=float)
        genes = genes or tuple(f"g{i}" for i in range(values.shape[0]))
        conditions = tuple(f"c{j}" for j in range(values.shape[1]))
        return ExpressionDataset(tuple(genes), conditions, values)

    def test_quantization_rounds_half_away_from_zero(self):
        # r = 0.84 -> 8 and r = 0.85 -> 9 via direct quantization arithmetic
        from mapnet.correlation import _round_half_away

        assert _round_half_away(10 * 0.84) == 8
        assert _round_half_away(10 * 0.85) == 9
        assert _round_half_away(10 * 1.0) == 10
        assert _round_half_away(0.0) == 0

    def test_negative_clamped_to_measured_zero(self):
        ds = self.make_dataset([[1, 2, 3, 4, 5], [5, 4, 3, 2, 1]])
        layer = build_correlation_layer(ds, CorrelationConfig(min_pairs=5))
        pair = label_pair(layer.universe, "g0", "g1")
        assert pair in layer.measurable
        assert pair_dict(layer)[pair] == 0.0

    def test_quantized_weight_range_and_monotonicity(self):
        rng = np.random.default_rng(9)
        base = rng.normal(size=12)
        rows = [base + sigma * rng.normal(size=12) for sigma in (0.05, 0.3, 1.0, 3.0)]
        ds = self.make_dataset(rows)
        cfg = CorrelationConfig(min_pairs=5)
        layer = build_correlation_layer(ds, cfg)
        values = list(pair_dict(layer).values())
        assert all(v == int(v) and 0 <= v <= 10 for v in values)
        raw = build_correlation_layer(ds, CorrelationConfig(min_pairs=5, quantize_levels=None))
        # quantization is monotone in the raw coefficient
        pairs = sorted(raw.measurable)
        raw_w = [pair_dict(raw)[p] for p in pairs]
        qua_w = [pair_dict(layer)[p] for p in pairs]
        order = np.argsort(raw_w)
        assert np.all(np.diff(np.asarray(qua_w)[order]) >= 0)

    def test_insufficient_overlap_not_measurable(self):
        ds = self.make_dataset([[1, 2, NAN, NAN, NAN], [1, 2, 3, 4, 5]])
        layer = build_correlation_layer(ds, CorrelationConfig(min_pairs=5))
        assert layer.measurable == frozenset()

    def test_constant_paired_subvector_not_measurable(self):
        # g0 is constant (0.1, not exactly representable as a mean) on the
        # six conditions it shares with g1, though not over all of its values
        ds = self.make_dataset(
            [
                [0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 5.0, 9.0],
                [0.3, 1.2, -0.4, 2.2, 0.9, -1.1, NAN, NAN],
                [1.0, 2.0, 4.0, 3.0, 5.0, 7.0, 6.0, 8.0],
            ]
        )
        layer = build_correlation_layer(ds, CorrelationConfig(min_pairs=5))
        assert label_pair(layer.universe, "g0", "g1") not in layer.measurable
        assert label_pair(layer.universe, "g0", "g2") in layer.measurable
        assert label_pair(layer.universe, "g1", "g2") in layer.measurable

    def test_config_fields(self):
        names = [f.name for f in fields(CorrelationConfig)]
        assert names == ["min_pairs", "quantize_levels", "zscore"]


def per_pair_layer(ds, cfg, universe=None):
    """Reference: the per-pair loop over the exact scalar formula."""
    if universe is None:
        universe = NodeUniverse(tuple(sorted(ds.genes)))
    data = ds.values if not cfg.zscore else zscore_normalize(ds).values
    weights = {}
    for a in range(ds.n_genes):
        for b in range(a + 1, ds.n_genes):
            r = _pearson_masked(data[a], data[b], cfg.min_pairs)
            if r is None:
                continue
            w = max(r, 0.0)
            if cfg.quantize_levels is not None:
                x = cfg.quantize_levels * w
                w = math.copysign(math.floor(abs(x) + 0.5), x)
            weights[label_pair(universe, ds.genes[a], ds.genes[b])] = w
    return LayerGraph(universe, *coded(universe, weights))


def assert_matches_reference(ds, cfg, universe=None):
    got = build_correlation_layer(ds, cfg, universe=universe)
    ref = per_pair_layer(ds, cfg, universe=universe)
    assert got.universe == ref.universe
    assert got.measurable == ref.measurable
    got_w, ref_w = pair_dict(got), pair_dict(ref)
    assert {p for p, w in got_w.items() if w > 0} == {p for p, w in ref_w.items() if w > 0}
    if cfg.quantize_levels is not None:
        assert got_w == ref_w
    else:
        for pair, w in ref_w.items():
            assert abs(got_w[pair] - w) <= 1e-12
    return got


def expression(values, genes=None):
    values = np.asarray(values, dtype=float)
    genes = genes or tuple(f"g{i:03d}" for i in range(values.shape[0]))
    conditions = tuple(f"c{j}" for j in range(values.shape[1]))
    return ExpressionDataset(tuple(genes), conditions, values)


def boundary_rows(x, y, seed, outlier=NAN, copies=12):
    """Random affine copies of x and y: every x-y pair has the same exact r.

    Two extra conditions per side, missing on the other side, hold
    ``outlier``; a large one moves each gene's mean far from the mean of
    the conditions it shares with the other side.
    """
    rng = np.random.default_rng(seed)
    rows = []
    for base in ([*x, outlier, outlier, NAN, NAN], [*y, NAN, NAN, outlier, outlier]):
        for _ in range(copies):
            scale = 10 ** rng.uniform(-3, 3)
            offset = rng.normal() * 10 ** rng.uniform(-2, 3)
            rows.append(scale * np.asarray(base, dtype=float) + offset)
    return np.array(rows)


class TestGramMatchesPerPairOracle:
    """build_correlation_layer against the per-pair loop it replaced."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("levels", [10, 3, None])
    def test_random_missing_patterns(self, seed, levels):
        rng = np.random.default_rng(seed)
        n_genes, n_cond = 30, int(rng.integers(6, 25))
        latent = rng.normal(size=(3, n_cond))
        values = rng.normal(size=(n_genes, 3)) @ latent + rng.normal(size=(n_genes, n_cond))
        values += rng.normal(scale=50.0, size=(n_genes, 1))
        values[rng.random(values.shape) < rng.uniform(0.0, 0.4)] = np.nan
        cfg = CorrelationConfig(min_pairs=int(rng.integers(2, 6)), quantize_levels=levels)
        assert_matches_reference(expression(values), cfg)

    def test_ordinary_data_needs_no_exact_recheck(self, monkeypatch):
        # offset genes with scattered missing values stay on the Gram path
        import mapnet.correlation as correlation

        calls = []
        monkeypatch.setattr(correlation, "_pearson_masked", lambda *a: calls.append(a))
        rng = np.random.default_rng(1)
        values = rng.normal(size=(40, 16)) + rng.normal(scale=100.0, size=(40, 1))
        values[rng.random(values.shape) < 0.1] = np.nan
        layer = build_correlation_layer(expression(values), CorrelationConfig(quantize_levels=None))
        assert calls == []
        assert len(layer.measurable) == 40 * 39 // 2

    def test_non_finite_gram_r_is_recomputed(self, monkeypatch):
        # each gene's largest values (0.5) lie outside the shared conditions,
        # so per-gene scaling leaves the shared values near 1e-85: both
        # paired variances (~1e-169) pass the variance rule but their product
        # underflows to 0, so the Gram r is infinite; it must go to the exact
        # path, not be clipped to 1
        import mapnet.correlation as correlation

        monkeypatch.setattr(correlation, "_pearson_masked", lambda *a: 0.5)
        shared = [1e-85, 2e-85, 3e-85, 4e-85]
        values = [[0.5, -0.5, NAN, NAN, *shared, 5e-85], [NAN, NAN, 0.5, -0.5, *shared, 6e-85]]
        layer = build_correlation_layer(expression(values), CorrelationConfig(quantize_levels=None))
        assert pair_dict(layer) == {(0, 1): 0.5}

    def test_min_pairs_threshold_is_exact(self):
        base = np.array([1.0, 3.0, 2.0, 5.0, 4.0, 7.0, 6.0])
        values = np.array(
            [
                base,
                base ** 2,  # shares 7 conditions with g000
                np.where(np.arange(7) < 5, base * 0.5 + 1, np.nan),  # 5 shared
                np.where(np.arange(7) < 4, -base, np.nan),  # 4 shared
            ]
        )
        cfg = CorrelationConfig(min_pairs=5)
        layer = assert_matches_reference(expression(values), cfg)
        u = layer.universe
        assert label_pair(u, "g000", "g002") in layer.measurable
        assert label_pair(u, "g001", "g002") in layer.measurable
        assert label_pair(u, "g000", "g003") not in layer.measurable
        assert label_pair(u, "g002", "g003") not in layer.measurable

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "x, y, r",
        [
            ([3, 3, 0, -3, -3, 0], [1, -1, 2, 1, -3, 0], 0.25),
            ([0, 0, -1, 2, 2, 3], [2, -1, -3, 3, -3, -2], 0.05),
        ],
    )
    @pytest.mark.parametrize("outlier", [NAN, 1e4])
    def test_exact_half_level_boundaries(self, x, y, r, seed, outlier):
        # 10 r lies exactly on a .5 rounding boundary; the computed r falls
        # on either side of it depending on the affine copy
        ds = expression(boundary_rows(x, y, seed, outlier))
        cross = [_pearson_masked(ds.values[a], ds.values[12 + b], 5) for a in range(12) for b in range(12)]
        assert all(abs(c - r) < 1e-10 for c in cross)
        levels = {math.floor(10 * c + 0.5) for c in cross}
        assert levels == {math.floor(10 * r), math.floor(10 * r) + 1}
        assert_matches_reference(ds, CorrelationConfig(min_pairs=5, quantize_levels=10))
        assert_matches_reference(ds, CorrelationConfig(min_pairs=5, quantize_levels=None))

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_zero_clamp_boundary(self, seed):
        # r = 0 exactly; the computed r has either sign depending on the copy,
        # which decides between a tiny positive weight and a measured zero
        ds = expression(boundary_rows([3, 3, 0, -3, -3, 0], [1, -1, 0, 1, -1, 0], seed))
        cross = [_pearson_masked(ds.values[a], ds.values[12 + b], 5) for a in range(12) for b in range(12)]
        assert min(cross) < 0 < max(cross)
        assert_matches_reference(ds, CorrelationConfig(min_pairs=5, quantize_levels=None))

    def test_constant_and_all_missing_rows(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=(8, 9))
        values[0] = 0.1
        values[1] = 0.7
        values[2] = np.nan
        values[3, :7] = 0.3  # constant except where g004 is missing
        values[4, 7:] = np.nan
        values[5] = 1e8 + values[5] * 1e-6
        layer = assert_matches_reference(expression(values), CorrelationConfig(min_pairs=5))
        u = layer.universe
        assert all(
            label_pair(u, f"g00{a}", f"g00{b}") not in layer.measurable
            for a in range(3)
            for b in range(8)
            if a != b
        )
        assert label_pair(u, "g003", "g004") not in layer.measurable
        assert label_pair(u, "g003", "g006") in layer.measurable

    def test_constant_on_shared_conditions_only(self):
        # every cross pair shares only the seven conditions where both genes
        # are constant, while each gene varies elsewhere
        rng = np.random.default_rng(0)
        values = np.full((40, 15), np.nan)
        values[:, :7] = np.round(rng.uniform(0, 1, size=40), 2)[:, None]
        values[:20, 7:11] = rng.normal(size=(20, 4))
        values[20:, 11:] = rng.normal(size=(20, 4))
        layer = assert_matches_reference(expression(values), CorrelationConfig(min_pairs=5))
        assert len(layer.measurable) == 2 * (20 * 19 // 2)

    @pytest.mark.parametrize("levels", [10, None])
    def test_zscore(self, levels):
        rng = np.random.default_rng(8)
        values = rng.normal(3.0, 2.0, size=(25, 12))
        values[rng.random(values.shape) < 0.15] = np.nan
        assert_matches_reference(
            expression(values), CorrelationConfig(min_pairs=4, quantize_levels=levels, zscore=True)
        )

    def test_unsorted_genes_in_larger_universe(self):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(10, 8))
        values[rng.random(values.shape) < 0.2] = np.nan
        genes = ("m", "c", "x", "a", "q", "e", "z", "b", "k", "f")
        universe = NodeUniverse(tuple(sorted(set(genes) | {"d", "h", "y"})))
        for levels in (10, None):
            layer = assert_matches_reference(
                expression(values, genes), CorrelationConfig(min_pairs=4, quantize_levels=levels), universe
            )
            assert layer.universe is universe
            assert all(i < j for i, j in layer.measurable)

    def test_single_gene(self):
        layer = assert_matches_reference(expression([[1.0, 2.0, 3.0, 4.0, 5.0]]), CorrelationConfig())
        assert layer.measurable == frozenset()
        assert pair_dict(layer) == {}


class TestZscoreNormalize:
    def test_small_condition_values(self):
        ds = ExpressionDataset(
            ("g1", "g2", "g3"), ("c1",), np.array([[1.0], [2.0], [3.0]])
        )
        out = zscore_normalize(ds)
        np.testing.assert_allclose(
            out.values[:, 0], [-1.224744871391589, 0.0, 1.224744871391589], atol=1e-12
        )

    def test_zero_variance_left_unchanged_and_flagged(self):
        ds = ExpressionDataset(("g1", "g2"), ("c1",), np.array([[5.0], [5.0]]))
        with pytest.warns(DegenerateConditionWarning) as records:
            out = zscore_normalize(ds)
        assert records[0].message.labels == ("c1",)
        np.testing.assert_array_equal(out.values, ds.values)

    def test_missing_preserved(self):
        ds = ExpressionDataset(("g1", "g2", "g3"), ("c1",), np.array([[4.0], [NAN], [6.0]]))
        out = zscore_normalize(ds)
        assert out.values[0, 0] == pytest.approx(-1.0)
        assert np.isnan(out.values[1, 0])
        assert out.values[2, 0] == pytest.approx(1.0)

    def test_present_values_standardized(self):
        rng = np.random.default_rng(4)
        values = rng.normal(5, 3, size=(20, 6))
        values[rng.random(values.shape) < 0.2] = np.nan
        ds = ExpressionDataset(
            tuple(f"g{i}" for i in range(20)), tuple(f"c{j}" for j in range(6)), values
        )
        out = zscore_normalize(ds)
        for j in range(6):
            col = out.values[:, j]
            present = col[~np.isnan(col)]
            assert present.mean() == pytest.approx(0.0, abs=1e-12)
            assert present.std() == pytest.approx(1.0, abs=1e-12)


class TestConflate:
    def make(self, genes, n_cond, name, fill=1.0):
        values = np.full((len(genes), n_cond), fill) + np.arange(n_cond)
        return ExpressionDataset(
            tuple(genes), tuple(f"c{j}" for j in range(n_cond)), values, name=name
        )

    def test_condition_concatenation(self):
        out = conflate([self.make(["a"], 17, "x"), self.make(["a"], 12, "y")])
        assert out.n_conditions == 29
        assert out.conditions[0] == "x:c0"
        assert out.conditions[17] == "y:c0"

    def test_union_semantics_fill_missing(self):
        out = conflate([self.make(["a", "b"], 3, "x"), self.make(["b", "c"], 4, "y")])
        assert out.genes == ("a", "b", "c")
        a_row = out.values[0]
        assert not np.isnan(a_row[:3]).any()
        assert np.isnan(a_row[3:]).all()

    def test_eleven_datasets_156_conditions(self):
        sizes = [12, 20, 13, 14, 15, 16, 12, 14, 13, 14, 13]
        assert sum(sizes) == 156
        datasets = [self.make(["a", "b"], s, f"d{i:02d}") for i, s in enumerate(sizes)]
        out = conflate(datasets)
        assert out.n_conditions == 156

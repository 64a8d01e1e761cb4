"""Unit tests of the benchmark's output checkers on hand-solvable cases.

Run with ``python3 -m pytest perfbench`` or ``python3 -m unittest discover perfbench``.
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
import unittest
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import (  # noqa: E402
    check_aggregate,
    check_avenet,
    check_identical,
    check_layers,
    check_recovery,
    pearson_level,
    read_edgelist,
    theta_bisection,
    theta_unweighted,
)


class FileCase(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.dir = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def write(self, name: str, text: str) -> Path:
        path = self.dir / name
        path.write_text(text, encoding="utf-8")
        return path


class TestTheta(unittest.TestCase):
    def test_single_pair(self):
        # theta * 8 / (2 + theta) = 1  =>  theta = 2/7
        theta = theta_bisection(np.array([2.0]), np.array([8.0]), 1)
        self.assertAlmostEqual(theta, 2 / 7, delta=1e-14)

    def test_no_root_when_weight_does_not_exceed_pairs(self):
        with self.assertRaises(ValueError):
            theta_bisection(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 1)

    def test_unweighted_closed_form(self):
        # P = 1, D = 3, sum(S) = 2  =>  theta = 1 * 3 / (2 - 1) = 3
        self.assertEqual(theta_unweighted(3, 2.0, 1), 3.0)
        with self.assertRaises(ValueError):
            theta_unweighted(3, 1.0, 1)
        # the bisection on k = D for every pair agrees with the closed form
        k = np.full(3, 3.0)
        s = np.array([2.0, 1.0, 1.0])
        self.assertAlmostEqual(theta_bisection(k, s, 3), theta_unweighted(3, 4.0, 3), delta=1e-12)


class TestAggregateCheck(FileCase):
    def setUp(self):
        super().setUp()
        # one pair a-b seen in two layers with weights 3 and 5: k = 2, S = 8, P = 1
        self.edges = self.write("net.txt", "# layer u v w\nL1 a b 3\nL2 b a 5\n")

    def run_check(self, theta: float, lam: float, converged: bool = True):
        agg = self.write("agg.csv", f"node_u,node_v,lambda\na,b,{lam!r}\n")
        meta = self.write("agg.json", json.dumps({"theta": theta, "converged": converged}))
        summaries = read_edgelist(self.edges)
        ref = theta_bisection(summaries.k, summaries.s, summaries.pair_count)
        return {c.name: c.ok for c in check_aggregate("agg", agg, meta, summaries, ref, 1e-8, False)}

    def test_exact_solution_passes(self):
        theta = 2 / 7
        self.assertEqual(set(self.run_check(theta, 8 / (2 + theta)).values()), {True})

    def test_wrong_theta_fails(self):
        self.assertFalse(self.run_check(0.3, 8 / 2.3)["agg.theta"])

    def test_lambda_off_the_fixed_point_fails(self):
        self.assertFalse(self.run_check(2 / 7, 3.0)["agg.lambda"])

    def test_not_converged_fails(self):
        theta = 2 / 7
        self.assertFalse(self.run_check(theta, 8 / (2 + theta), converged=False)["agg.converged"])

    def test_unweighted_covers_every_pair(self):
        # presence a-b 2, a-c 1, b-c 1 over D = 3 layers: P = 3, sum(S) = 4, theta = 9
        edges = self.write("u.txt", "L1 a b\nL2 a b\nL3 a c\nL2 b c\n")
        summaries = read_edgelist(edges)
        theta = theta_unweighted(summaries.depth, summaries.presence.sum(), summaries.pair_count)
        self.assertEqual(theta, 9.0)
        rows = [("a", "b", 2), ("a", "c", 1), ("b", "c", 1)]
        agg = self.write(
            "agg.csv", "node_u,node_v,lambda\n" + "".join(f"{u},{v},{p / (3 + theta)!r}\n" for u, v, p in rows)
        )
        meta = self.write("agg.json", json.dumps({"theta": theta, "converged": True}))
        checks = check_aggregate("u", agg, meta, summaries, theta, 1e-6, True, unweighted=True)
        self.assertTrue(all(c.ok for c in checks), checks)


class TestAveNetCheck(FileCase):
    def test_mean_over_measuring_layers(self):
        edges = self.write("net.txt", "L1 a b 3\nL2 a b 5\nL1 a c 0\n")
        summaries = read_edgelist(edges)
        good = self.write("ave.csv", "node_u,node_v,weight\na,b,4.0\na,c,0.0\n")
        bad = self.write("bad.csv", "node_u,node_v,weight\na,b,8.0\na,c,0.0\n")
        self.assertTrue(check_avenet(good, summaries)[0].ok)
        self.assertFalse(check_avenet(bad, summaries)[0].ok)


class TestPearsonLevel(unittest.TestCase):
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])

    def test_perfect_correlation_is_top_level(self):
        self.assertEqual(pearson_level(self.x, 2 * self.x + 1), 10.0)

    def test_anticorrelation_clamps_to_zero(self):
        self.assertEqual(pearson_level(self.x, -self.x), 0.0)

    def test_too_few_shared_values_is_unmeasurable(self):
        y = np.array([1.0, np.nan, 3.0, np.nan, 5.0, 6.0])
        self.assertIsNone(pearson_level(self.x, y))

    def test_constant_series_is_unmeasurable(self):
        self.assertIsNone(pearson_level(self.x, np.ones(6)))

    def test_missing_values_are_skipped_pairwise(self):
        y = np.array([2.0, 4.0, np.nan, 8.0, 10.0, 12.0])
        self.assertEqual(pearson_level(self.x, y), 10.0)

    def test_rounding_boundary_is_skipped(self):
        # y = x_c + sqrt(15) e with e orthogonal to 1 and x_c gives r = 10 / 40 = 0.25,
        # so 10 * r = 2.5 sits on a rounding boundary
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = x - 3.0 + math.sqrt(15.0) * np.array([1.0, -2.0, 0.0, 2.0, -1.0])
        self.assertAlmostEqual(float(np.corrcoef(x, y)[0, 1]), 0.25, delta=1e-12)
        self.assertTrue(math.isnan(pearson_level(x, y)))


class TestLayerCheck(FileCase):
    def test_sampled_pairs_match_written_levels(self):
        rng = np.random.default_rng(0)
        genes = ["g0", "g1", "g2", "g3"]
        values = rng.normal(size=(4, 8))
        csv_text = "gene," + ",".join(f"c{i}" for i in range(8)) + "\n"
        csv_text += "".join(g + "," + ",".join(repr(float(v)) for v in row) + "\n" for g, row in zip(genes, values))
        ds = self.write("ds1.csv", csv_text)
        lines = []
        for a in range(4):
            for b in range(a + 1, 4):
                lines.append(f"ds1 {genes[a]} {genes[b]} {pearson_level(values[a], values[b])!r}")
        good = self.write("layers.txt", "\n".join(lines) + "\n")
        self.assertTrue(check_layers(good, [ds], 20, 1)[0].ok)
        wrong = [line.rsplit(" ", 1)[0] + " 11.0" for line in lines]
        bad = self.write("bad.txt", "\n".join(wrong) + "\n")
        self.assertFalse(check_layers(bad, [ds], 20, 1)[0].ok)


class TestRecoveryCheck(FileCase):
    def test_threshold_and_reported_value(self):
        est = self.write("agg.csv", "node_u,node_v,lambda\na,b,1.0\na,c,2.0\nb,c,3.0\n")
        truth = self.write("truth.csv", "node_u,node_v,lambda_star\na,b,2.0\na,c,4.0\nb,c,6.0\n")
        score = self.write("score.json", json.dumps({"pearson_lambda": 1.0}))
        self.assertTrue(all(c.ok for c in check_recovery(est, truth, score)))
        low = self.write("low.csv", "node_u,node_v,lambda_star\na,b,2.0\na,c,6.0\nb,c,4.0\n")
        low_score = self.write("low.json", json.dumps({"pearson_lambda": 0.5}))
        self.assertEqual([c.ok for c in check_recovery(est, low, low_score)], [False, True])


class TestIdentical(unittest.TestCase):
    def test_any_differing_pass_fails(self):
        same = {"agg.csv": "aa", "agg.json": "bb"}
        self.assertTrue(check_identical([same, dict(same), dict(same)])[0].ok)
        self.assertFalse(check_identical([same, {"agg.csv": "aa", "agg.json": "cc"}])[0].ok)
        self.assertFalse(check_identical([same, {"agg.csv": "aa"}])[0].ok)


if __name__ == "__main__":
    unittest.main()

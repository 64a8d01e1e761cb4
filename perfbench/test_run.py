"""Unit tests of the span arithmetic and the compare verdicts in run.py."""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import trace_boot  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class TestLayerValues(unittest.TestCase):
    def test_self_time_subtracts_child_spans(self):
        with tempfile.TemporaryDirectory() as tmp:
            span_file = Path(tmp) / "0.json"
            spans = [
                ["cli.self", 10.0, 20.0, None, "aggregate_s"],
                ["ingest.parse_edgelist", 11.0, 15.0, 0, "aggregate_s"],
                ["aggregate.solve", 15.0, 19.0, 0, "aggregate_s"],
                ["core.summaries", 15.5, 16.5, 2, "aggregate_s"],
            ]
            span_file.write_text(json.dumps({"imported": 9.5, "spans": spans, "counts": {"aggregate.iterations": 7}}))
            child = run.Child("aggregate_s", 11.0, 42.0, 0, 9.0, span_file, "")
            values = run.layer_values(run.Pass(True, 11.0, [child]))
        self.assertAlmostEqual(values["cli.self_s"], 2.0)
        self.assertAlmostEqual(values["ingest.parse_edgelist_s"], 4.0)
        self.assertAlmostEqual(values["aggregate.solve_s"], 3.0)
        self.assertAlmostEqual(values["core.summaries_s"], 1.0)
        self.assertAlmostEqual(values["cli.startup_s"], 0.5)
        self.assertEqual(values["aggregate.iterations"], 7)
        self.assertEqual(values["cli.rss_mb.aggregate"], 42.0)
        self.assertEqual(values["cli.errors"], 0)


class TestSpec(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads(run.SPEC.read_text(encoding="utf-8"))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(WORKLOADS))
        layer_metrics = {m["name"] for m in spec["per_layer"]}
        spans = {f"{span}_s" for _, _, span, _ in trace_boot.WRAPPED} | {"cli.self_s"}
        self.assertLessEqual(spans, layer_metrics)


class TestCompare(unittest.TestCase):
    spec = {
        "end_to_end": [{"name": "pass_s", "unit": "s", "better": "lower", "bound": 0.1}],
        "per_layer": [],
    }

    def verdict(self, base: list[float], new: list[float]) -> tuple[int, str]:
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for side, values in (("base", base), ("new", new)):
                path = Path(tmp) / f"{side}.jsonl"
                records = [
                    {"workload": "w", "end_to_end": {"pass_s": {"value": v}}, "per_layer": {}} for v in values
                ]
                path.write_text("".join(json.dumps(r) + "\n" for r in records))
                paths.append(path)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.compare(*paths, self.spec)
        return code, out.getvalue().splitlines()[-1].split()[-1]

    def test_within_bound_is_ok(self):
        self.assertEqual(self.verdict([10.0, 10.1, 9.9, 10.0], [10.5, 10.4, 10.6, 10.5]), (0, "ok"))

    def test_beyond_bound_is_a_regression(self):
        self.assertEqual(self.verdict([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0]), (1, "REGRESSION"))

    def test_wide_spread_is_unresolved(self):
        self.assertEqual(self.verdict([10.0, 14.0, 7.0, 10.0], [12.0, 12.1, 11.9, 12.0]), (0, "unresolved"))


if __name__ == "__main__":
    unittest.main()

"""The benchmark's traced run wraps mapnet functions by module and name.

``perfbench/trace_boot.py`` lists each wrapped ``(module, function)`` and a
counter that reads attributes of the call's arguments and result; a
renamed function or attribute would only show when the benchmark runs.
"""

import importlib
import importlib.util
from collections import defaultdict
from pathlib import Path

import numpy as np

from conftest import expression_csv, layer_csv, make_expression_dataset
from mapnet import (
    CorrelationConfig,
    em_aggregate,
    generate_synthetic,
    observation_summaries,
    serialize_multiplex_edgelist,
)

TRACE_BOOT = Path(__file__).resolve().parents[1] / "perfbench" / "trace_boot.py"


def load_trace_boot():
    spec = importlib.util.spec_from_file_location("trace_boot", TRACE_BOOT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves():
    for module_name, fn_name, _, _ in load_trace_boot().WRAPPED:
        assert callable(getattr(importlib.import_module(module_name), fn_name, None)), fn_name


def test_counters_read_real_results():
    net, _ = generate_synthetic(n=12, d=3, coverage=0.8, seed=1)
    inp = observation_summaries(net)
    agg = em_aggregate(inp)
    ds = make_expression_dataset(np.random.default_rng(0), [f"g{i}" for i in range(8)], 10, "d")
    agg_csv = layer_csv(agg, "lambda")
    meta = {"theta": agg.theta, "iterations": agg.iterations, "converged": agg.converged}
    args = {
        "parse_multiplex_edgelist": (serialize_multiplex_edgelist(net),),
        "serialize_multiplex_edgelist": (net,),
        "parse_expression_csv": (expression_csv(ds),),
        "parse_layer_csv": (agg_csv,),
        "parse_aggregated_csv": (agg_csv, meta),
        "observation_summaries": (net,),
        "em_aggregate": (inp,),
        "build_correlation_layer": (ds, CorrelationConfig()),
        "network_report": (agg,),
    }
    counts = defaultdict(int)
    for module_name, fn_name, _, counter in load_trace_boot().WRAPPED:
        if counter is not None:
            fn = getattr(importlib.import_module(module_name), fn_name)
            counter(counts, args[fn_name], fn(*args[fn_name]))

    assert counts["core.observations"] == int(inp.counts.sum())
    assert counts["aggregate.iterations"] == agg.iterations > 0
    assert counts["correlation.layers_built"] == 1
    assert counts["correlation.pairs_tested"] == 8 * 7 // 2
    assert 0 < counts["correlation.pairs_measurable"] <= 8 * 7 // 2
    assert counts["metrics.reports"] == 1
    assert counts["ingest.edge_lines"] == 2 * sum(layer.codes.size for layer in net.layers)
    assert counts["ingest.bytes_in"] > 0 and counts["ingest.bytes_out"] > 0

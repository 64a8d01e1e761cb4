"""Run one mapnet CLI command with spans around each layer's public functions.

Usage: python3 trace_boot.py SPAN_FILE COMMAND_ID -- MAPNET_ARGS...

The mapnet modules import each other's functions by name, so every
function is replaced in each ``mapnet.*`` namespace that holds it.  Spans
(name, start, end, parent, command id) and counters stay in memory and
are written to SPAN_FILE as JSON when the command ends.  Times come from
CLOCK_MONOTONIC, which the parent process shares, so the parent can
measure start-up from its own spawn time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _data_lines(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.strip() and not line.lstrip().startswith("#"))


# Counters run after their span ends, so their cost shows in trace.overhead_s
# and not in any layer's self time.
def _count_parse_edgelist(counts, args, result):
    counts["ingest.edge_lines"] += _data_lines(args[0])
    counts["ingest.bytes_in"] += len(args[0].encode("utf-8"))


def _count_serialize(counts, args, result):
    counts["ingest.edge_lines"] += _data_lines(result)
    counts["ingest.bytes_out"] += len(result.encode("utf-8"))


def _count_parse_csv(counts, args, result):
    counts["ingest.bytes_in"] += len(args[0].encode("utf-8"))


def _count_summaries(counts, args, result):
    counts["core.observations"] += sum(result.k.values())


def _count_solve(counts, args, result):
    counts["aggregate.iterations"] += result.iterations


def _count_layer(counts, args, result):
    n = args[0].n_genes
    counts["correlation.layers_built"] += 1
    counts["correlation.pairs_tested"] += n * (n - 1) // 2
    counts["correlation.pairs_measurable"] += len(result.measurable)


def _count_report(counts, args, result):
    counts["metrics.reports"] += 1


# (module, function, span name, counter)
WRAPPED = [
    ("mapnet.ingest", "parse_multiplex_edgelist", "ingest.parse_edgelist", _count_parse_edgelist),
    ("mapnet.ingest", "serialize_multiplex_edgelist", "ingest.serialize_edgelist", _count_serialize),
    ("mapnet.ingest", "parse_expression_csv", "ingest.parse_csv", _count_parse_csv),
    ("mapnet.ingest", "parse_layer_csv", "ingest.parse_csv", _count_parse_csv),
    ("mapnet.ingest", "parse_aggregated_csv", "ingest.parse_csv", _count_parse_csv),
    ("mapnet.core", "observation_summaries", "core.summaries", _count_summaries),
    ("mapnet.aggregate", "em_aggregate", "aggregate.solve", _count_solve),
    ("mapnet.aggregate", "presence_summaries", "aggregate.presence_summaries", None),
    ("mapnet.correlation", "build_correlation_layer", "correlation.layer", _count_layer),
    ("mapnet.correlation", "zscore_normalize", "correlation.zscore", None),
    ("mapnet.correlation", "conflate", "correlation.conflate", None),
    ("mapnet.baselines", "build_avenet", "baselines.avenet", None),
    ("mapnet.baselines", "build_connet", "baselines.connet", None),
    ("mapnet.metrics", "network_report", "metrics.report", _count_report),
    ("mapnet.metrics", "von_neumann_entropy", "metrics.entropy", None),
    ("mapnet.metrics", "weight_cdf", "metrics.cdf", None),
    ("mapnet.synth", "generate_synthetic", "synth.generate", None),
    ("mapnet.synth", "truth_to_csv", "synth.truth_csv", None),
    ("mapnet.synth", "truth_from_csv", "synth.truth_csv", None),
    ("mapnet.synth", "recovery_metrics", "synth.score", None),
    ("mapnet.cli", "compare_networks", "cli.compare_networks", None),
    ("mapnet.cli", "run_subset_experiment", "cli.subset_experiment", None),
]


class Tracer:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, int] = defaultdict(int)

    def wrap(self, fn, name: str, counter):
        layer = name.split(".")[0]

        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else None
            span = [name, now(), None, parent, self.command_id]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = now()
                self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self.stack.pop()
            span[2] = now()
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced


def install(tracer: Tracer) -> None:
    mapnet_modules = [m for n, m in sys.modules.items() if n == "mapnet" or n.startswith("mapnet.")]
    for module_name, fn_name, span, counter in WRAPPED:
        original = getattr(sys.modules[module_name], fn_name)
        wrapper = tracer.wrap(original, span, counter)
        for module in mapnet_modules:
            if getattr(module, fn_name, None) is original:
                setattr(module, fn_name, wrapper)


def main() -> int:
    span_file, command_id, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: trace_boot.py SPAN_FILE COMMAND_ID -- MAPNET_ARGS...")
    import mapnet.cli

    imported = now()
    tracer = Tracer(command_id)
    install(tracer)
    root = tracer.wrap(mapnet.cli.main, "cli.self", None)
    try:
        code = root(argv)
    finally:
        with open(span_file, "w", encoding="utf-8") as fh:
            json.dump({"imported": imported, "spans": tracer.spans, "counts": tracer.counts}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())

"""MAP-based aggregation of weighted multilayer networks.

Builds weighted layers from expression datasets, collapses them into a
single-layer network by maximizing a Poisson-likelihood/exponential-prior
posterior (Newton steps on the prior rate), and evaluates the result
against conflation and averaging baselines.

Each public name is listed once below, under the module that defines it.
``import mapnet`` loads none of its modules and no numpy; a name's module is
imported on its first use (PEP 562), so the CLI can set the BLAS thread
count before numpy starts.
"""

from importlib import import_module

__version__ = "0.1.0"

_PUBLIC = {
    "aggregate": ("EmConfig", "aggregate_network", "em_aggregate", "presence_summaries"),
    "analysis": ("ComparisonBundle", "SubsetResult", "compare_networks", "run_subset_experiment"),
    "baselines": ("build_avenet", "build_connet"),
    "core": ("AggregatedNetwork", "AggregationInput", "LayerGraph", "MultilayerNetwork",
             "NodeUniverse", "observation_summaries", "union_nodes"),
    "correlation": ("CorrelationConfig", "build_correlation_layer", "build_correlation_network",
                    "conflate", "zscore_normalize"),
    "ingest": ("ExpressionDataset", "edgelist_chunks", "layer_csv_chunks", "parse_aggregated_csv",
               "parse_expression_csv", "parse_layer_csv", "parse_multiplex_edgelist",
               "read_multiplex_edgelist", "serialize_multiplex_edgelist", "table_chunks"),
    "metrics": ("EntropySpectrum", "NetworkReport", "exponential_fit_r2", "network_report",
                "node_strengths", "von_neumann_entropy", "weight_cdf"),
    "synth": ("RecoveryMetrics", "SyntheticTruth", "generate_synthetic", "recovery_metrics",
              "synthetic_layers"),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

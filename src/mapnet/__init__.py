"""MAP-based aggregation of weighted multilayer networks.

Builds weighted layers from expression datasets, collapses them into a
single-layer network by maximizing a Poisson-likelihood/exponential-prior
posterior (Newton steps on the prior rate), and evaluates the result
against conflation and averaging baselines.
"""

from .aggregate import (
    EmConfig,
    aggregate_network,
    em_aggregate,
    log_posterior,
    presence_summaries,
    theta_fixed_point_oracle,
)
from .analysis import ComparisonBundle, SubsetResult, compare_networks, run_subset_experiment
from .baselines import build_avenet, build_connet
from .core import (
    AggregatedNetwork,
    AggregationInput,
    LayerGraph,
    MultilayerNetwork,
    NodeUniverse,
    observation_summaries,
    union_nodes,
)
from .correlation import (
    CorrelationConfig,
    build_correlation_layer,
    build_correlation_network,
    conflate,
    zscore_normalize,
)
from .ingest import (
    ExpressionDataset,
    edgelist_chunks,
    layer_csv_chunks,
    parse_aggregated_csv,
    parse_expression_csv,
    parse_layer_csv,
    parse_multiplex_edgelist,
    read_multiplex_edgelist,
    serialize_multiplex_edgelist,
    table_chunks,
)
from .metrics import (
    EntropySpectrum,
    NetworkReport,
    exponential_fit_r2,
    network_report,
    node_strengths,
    von_neumann_entropy,
    weight_cdf,
)
from .synth import (
    RecoveryMetrics,
    SyntheticTruth,
    generate_synthetic,
    recovery_metrics,
    synthetic_layers,
)

__version__ = "0.1.0"

__all__ = [
    "AggregatedNetwork", "AggregationInput", "ComparisonBundle", "CorrelationConfig",
    "EmConfig", "EntropySpectrum", "ExpressionDataset", "LayerGraph", "MultilayerNetwork",
    "NetworkReport", "NodeUniverse", "RecoveryMetrics", "SubsetResult", "SyntheticTruth",
    "aggregate_network", "build_avenet", "build_connet", "build_correlation_layer",
    "build_correlation_network", "compare_networks", "conflate", "edgelist_chunks",
    "em_aggregate", "exponential_fit_r2", "generate_synthetic", "layer_csv_chunks",
    "log_posterior", "network_report", "node_strengths", "observation_summaries",
    "parse_aggregated_csv", "parse_expression_csv", "parse_layer_csv",
    "parse_multiplex_edgelist", "presence_summaries",
    "read_multiplex_edgelist", "recovery_metrics", "run_subset_experiment",
    "serialize_multiplex_edgelist", "synthetic_layers", "table_chunks",
    "theta_fixed_point_oracle", "union_nodes", "von_neumann_entropy", "weight_cdf",
    "zscore_normalize",
]

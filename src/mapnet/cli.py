"""Command-line surface tying the pipeline together.

Subcommands cover the whole workflow: build correlation layers from
expression CSVs, aggregate a multiplex edge list, build the reference
networks, compute metrics and plot data, run the subset-size experiment,
and generate/score synthetic instances.  Every subcommand is
deterministic given its flags and seed, emits plot *data* (CSV/JSON, not
images), and exits nonzero with a machine-readable error line on failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

from .aggregate import EmConfig, aggregate_network
from .baselines import build_avenet, build_connet
from .core import AggregatedNetwork, LayerGraph, NodeUniverse
from .correlation import CorrelationConfig, build_correlation_network
from .errors import MapnetError, UniverseMismatch
from .ingest import (
    ExpressionDataset,
    parse_aggregated_csv,
    parse_expression_csv,
    parse_layer_csv,
    parse_multiplex_edgelist,
    serialize_multiplex_edgelist,
)
from .metrics import (
    NetworkReport,
    exponential_fit_r2,
    measured_weight_values,
    network_report,
    node_strengths,
    weight_cdf,
)
from .synth import generate_synthetic, recovery_metrics, truth_from_csv, truth_meta, truth_to_csv

_LOG_BASES = {"e": "natural", "2": "base2"}
_COUNT_MODES = {"measurable": "measurable", "nonzero": "nonzero_only"}
_PAIR_COUNT_MODES = {"unordered": "unordered", "paper": "paper_n_squared"}


@dataclass(frozen=True)
class SubsetResult:
    """One row of the subset-size experiment table."""

    size: int
    mean_theta: float
    mean_r2: float


@dataclass(frozen=True)
class ComparisonBundle:
    """Plot data for the three-way network comparison.

    Scatter rows are (node_u, node_v, aggregated weight, other weight)
    with each network's weights normalized by its own maximum; strength
    CDFs and reports are keyed by network name.
    """

    scatter_con: list[tuple[str, str, float, float]]
    scatter_ave: list[tuple[str, str, float, float]]
    strength_cdfs: dict[str, list[tuple[float, float]]]
    reports: dict[str, NetworkReport]


def compare_networks(
    map_net: AggregatedNetwork,
    con_net: LayerGraph,
    ave_net: LayerGraph,
    log_base: str = "natural",
) -> ComparisonBundle:
    """Scatter data, strength CDFs, and reports for the three networks."""
    if con_net.universe != map_net.universe or ave_net.universe != map_net.universe:
        raise UniverseMismatch("networks must share one universe")
    labels = map_net.universe.labels
    map_max = max(map_net.lam.values(), default=0.0)

    def scatter(other: LayerGraph) -> list[tuple[str, str, float, float]]:
        other_max = max(other.weights.values(), default=0.0)
        rows = []
        for i, j in sorted(set(map_net.lam) | other.measurable):
            map_w = map_net.lam.get((i, j), 0.0)
            other_w = other.weight((i, j))
            rows.append(
                (
                    labels[i],
                    labels[j],
                    map_w / map_max if map_max > 0 else 0.0,
                    other_w / other_max if other_max > 0 else 0.0,
                )
            )
        return rows

    networks = {"map": map_net.to_layer(), "con": con_net, "ave": ave_net}
    return ComparisonBundle(
        scatter_con=scatter(con_net),
        scatter_ave=scatter(ave_net),
        strength_cdfs={
            name: weight_cdf(node_strengths(g)) for name, g in networks.items()
        },
        reports={name: network_report(g, log_base) for name, g in networks.items()},
    )


def run_subset_experiment(
    datasets: list[ExpressionDataset],
    subset_sizes: list[int],
    reps: int,
    seed: int,
    cfg: CorrelationConfig = CorrelationConfig(),
    em: EmConfig = EmConfig(),
) -> list[SubsetResult]:
    """Aggregate random dataset subsets and average theta and fit quality.

    For each size, ``reps`` distinct subsets are sampled without
    replacement (all of them when fewer exist, so the full-size row is a
    single deterministic combination).  The fit R-squared uses the
    positive aggregated weights against an exponential with the
    estimated rate; degenerate runs yield NaN.
    """
    if reps < 1:
        raise ValueError("reps must be at least 1")
    n = len(datasets)
    rng = np.random.default_rng(seed)
    results = []
    for size in subset_sizes:
        if not 1 <= size <= n:
            raise ValueError(f"subset size {size} out of range 1..{n}")
        if math.comb(n, size) <= reps:
            subsets = [tuple(c) for c in combinations(range(n), size)]
        else:
            subsets = []
            seen = set()
            while len(subsets) < reps:
                pick = tuple(sorted(rng.choice(n, size=size, replace=False).tolist()))
                if pick not in seen:
                    seen.add(pick)
                    subsets.append(pick)
        thetas = []
        r2s = []
        for subset in subsets:
            net = build_correlation_network([datasets[i] for i in subset], cfg)
            agg = aggregate_network(net, em)
            thetas.append(agg.theta)
            positive = [v for v in agg.lam.values() if v > 0]
            if len(set(positive)) >= 2:
                r2s.append(exponential_fit_r2(positive, agg.theta))
            else:
                r2s.append(float("nan"))
        results.append(
            SubsetResult(size, float(np.mean(thetas)), float(np.mean(r2s)))
        )
    return results


# -- file helpers -----------------------------------------------------------


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _write_json(path: str, obj) -> None:
    _write(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _layer_csv(g: LayerGraph, value_name: str = "weight") -> str:
    labels = g.universe.labels
    lines = [f"node_u,node_v,{value_name}"]
    for i, j in sorted(g.measurable):
        lines.append(f"{labels[i]},{labels[j]},{g.weight((i, j))!r}")
    return "\n".join(lines) + "\n"


def _aggregated_csv(agg: AggregatedNetwork) -> str:
    labels = agg.universe.labels
    lines = ["node_u,node_v,lambda"]
    for i, j in sorted(agg.lam):
        lines.append(f"{labels[i]},{labels[j]},{agg.lam[(i, j)]!r}")
    return "\n".join(lines) + "\n"


def _cdf_csv(points: list[tuple[float, float]], value_name: str = "value") -> str:
    lines = [f"{value_name},fraction"]
    lines.extend(f"{v!r},{f!r}" for v, f in points)
    return "\n".join(lines) + "\n"


def _scatter_csv(rows: list[tuple[str, str, float, float]], other_name: str) -> str:
    lines = [f"node_u,node_v,map_weight,{other_name}_weight"]
    lines.extend(f"{u},{v},{a!r},{b!r}" for u, v, a, b in rows)
    return "\n".join(lines) + "\n"


def _load_datasets(paths: list[str]) -> list[ExpressionDataset]:
    return [parse_expression_csv(_read(p), name=Path(p).stem) for p in paths]


def _reindex_layer(layer: LayerGraph, universe: NodeUniverse) -> LayerGraph:
    old = layer.universe.labels
    remap = lambda p: universe.pair(old[p[0]], old[p[1]])
    return LayerGraph(
        universe,
        {remap(p): w for p, w in layer.weights.items()},
        frozenset(remap(p) for p in layer.measurable),
    )


# -- subcommands ------------------------------------------------------------


def _corr_config(args) -> CorrelationConfig:
    levels = args.quantize if args.quantize else None
    return CorrelationConfig(
        min_pairs=args.min_pairs,
        quantize_levels=levels,
        zscore=getattr(args, "zscore", False),
    )


def _em_config(args) -> EmConfig:
    random_init = args.seed is not None
    return EmConfig(
        tol=args.tol,
        max_iter=args.max_iter,
        init="random" if random_init else "deterministic",
        seed=args.seed if random_init else 0,
        unweighted_mode=getattr(args, "unweighted", False),
    )


def _cmd_build_layers(args) -> None:
    datasets = _load_datasets(args.datasets)
    net = build_correlation_network(datasets, _corr_config(args))
    _write(args.output, serialize_multiplex_edgelist(net))


def _cmd_aggregate(args) -> None:
    net = parse_multiplex_edgelist(_read(args.network))
    count_mode = _COUNT_MODES[args.count_mode]
    pair_count_mode = _PAIR_COUNT_MODES[args.pair_count]
    agg = aggregate_network(net, _em_config(args), count_mode, pair_count_mode)
    _write(args.output, _aggregated_csv(agg))
    sidecar = args.sidecar or str(Path(args.output).with_suffix(".json"))
    _write_json(
        sidecar,
        {
            "theta": agg.theta,
            "iterations": agg.iterations,
            "converged": agg.converged,
            "pair_count_mode": pair_count_mode,
            "count_mode": count_mode,
            "final_objective": agg.final_objective,
        },
    )
    if not agg.converged:
        warning = {"warning": "NotConverged", "iterations": agg.iterations, "theta": agg.theta}
        print(json.dumps(warning), file=sys.stderr)


def _cmd_baseline(args) -> None:
    if args.kind == "con":
        datasets = _load_datasets(args.inputs)
        layer = build_connet(datasets, CorrelationConfig(min_pairs=args.min_pairs))
    else:
        if len(args.inputs) != 1:
            raise MapnetError("baseline ave takes exactly one multiplex edge list")
        net = parse_multiplex_edgelist(_read(args.inputs[0]))
        denominator = "measurable_layers" if args.denominator == "measurable" else "all_layers"
        layer = build_avenet(net, denominator)
    _write(args.output, _layer_csv(layer))


def _cmd_metrics(args) -> None:
    layer = parse_layer_csv(_read(args.network))
    report = network_report(layer, _LOG_BASES[args.log_base])
    _write_json(args.output, report.to_dict())
    if args.cdf:
        _write(args.cdf, _cdf_csv(weight_cdf(measured_weight_values(layer))))


def _cmd_compare(args) -> None:
    map_layer = parse_layer_csv(_read(args.map_csv))
    meta = json.loads(_read(args.map_meta))
    con = parse_layer_csv(_read(args.con))
    ave = parse_layer_csv(_read(args.ave))

    labels = sorted(
        set(map_layer.universe.labels) | set(con.universe.labels) | set(ave.universe.labels)
    )
    universe = NodeUniverse(tuple(labels))
    map_layer = _reindex_layer(map_layer, universe)
    agg = AggregatedNetwork(
        universe=universe,
        lam={pair: map_layer.weight(pair) for pair in sorted(map_layer.measurable)},
        theta=float(meta["theta"]),
        iterations=int(meta["iterations"]),
        converged=bool(meta["converged"]),
        final_objective=float(meta.get("final_objective", math.nan)),
    )
    bundle = compare_networks(
        agg,
        _reindex_layer(con, universe),
        _reindex_layer(ave, universe),
        _LOG_BASES[args.log_base],
    )

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write(str(out / "scatter_map_vs_con.csv"), _scatter_csv(bundle.scatter_con, "con"))
    _write(str(out / "scatter_map_vs_ave.csv"), _scatter_csv(bundle.scatter_ave, "ave"))
    for name, cdf in bundle.strength_cdfs.items():
        _write(str(out / f"strength_cdf_{name}.csv"), _cdf_csv(cdf, "strength"))
    _write_json(
        str(out / "reports.json"),
        {name: report.to_dict() for name, report in bundle.reports.items()},
    )


def _cmd_experiment(args) -> None:
    datasets = _load_datasets(args.datasets)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rows = run_subset_experiment(
        datasets, sizes, args.reps, args.seed, _corr_config(args), EmConfig(tol=args.tol, max_iter=args.max_iter)
    )
    lines = ["size,mean_theta,mean_r2"]
    lines.extend(f"{r.size},{r.mean_theta!r},{r.mean_r2!r}" for r in rows)
    _write(args.output, "\n".join(lines) + "\n")


def _cmd_synth_gen(args) -> None:
    net, truth = generate_synthetic(
        n=args.nodes, d=args.layers, theta_star=args.theta, coverage=args.coverage, seed=args.seed
    )
    _write(args.output, serialize_multiplex_edgelist(net))
    _write(args.truth, truth_to_csv(truth))
    meta_path = args.truth_meta or str(Path(args.truth).with_suffix(".json"))
    _write_json(meta_path, truth_meta(truth))


def _cmd_synth_score(args) -> None:
    truth = truth_from_csv(_read(args.truth), json.loads(_read(args.truth_meta)))
    est = parse_aggregated_csv(_read(args.est), json.loads(_read(args.est_meta)))
    est_labels = est.universe.labels
    try:
        lam = {
            truth.universe.pair(est_labels[i], est_labels[j]): w
            for (i, j), w in est.lam.items()
        }
    except KeyError as exc:
        raise UniverseMismatch(f"estimate node {exc.args[0]!r} missing from truth") from None
    est = AggregatedNetwork(
        universe=truth.universe,
        lam=lam,
        theta=est.theta,
        iterations=est.iterations,
        converged=est.converged,
        final_objective=est.final_objective,
    )
    _write_json(args.output, recovery_metrics(est, truth).to_dict())


# -- argument parsing -------------------------------------------------------


def _add_corr_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-pairs", type=int, default=5, help="minimum shared conditions per pair")
    p.add_argument("--quantize", type=int, default=10, help="integer weight levels; 0 keeps raw values")


def _add_em_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=1e-10, help="relative theta tolerance")
    p.add_argument("--max-iter", type=int, default=10000)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mapnet", description="Aggregate weighted multilayer networks by MAP estimation."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-layers", help="correlation layers from expression CSVs")
    p.add_argument("datasets", nargs="+")
    p.add_argument("-o", "--output", required=True)
    _add_corr_flags(p)
    p.add_argument("--zscore", action="store_true", help="z-score conditions before correlating")
    p.set_defaults(func=_cmd_build_layers)

    p = sub.add_parser("aggregate", help="MAP-aggregate a multiplex edge list")
    p.add_argument("network")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--sidecar", help="metadata JSON path (default: output with .json)")
    p.add_argument("--count-mode", choices=sorted(_COUNT_MODES), default="measurable")
    p.add_argument("--pair-count", choices=sorted(_PAIR_COUNT_MODES), default="unordered")
    p.add_argument("--seed", type=int, default=None, help="random-init seed (default: deterministic init)")
    p.add_argument("--unweighted", action="store_true", help="presence/absence mode")
    _add_em_flags(p)
    p.set_defaults(func=_cmd_aggregate)

    p = sub.add_parser("baseline", help="reference single-layer networks")
    p.add_argument("kind", choices=["con", "ave"])
    p.add_argument("inputs", nargs="+", help="expression CSVs (con) or a multiplex edge list (ave)")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--min-pairs", type=int, default=5, help="minimum shared conditions per pair (con)")
    p.add_argument("--denominator", choices=["measurable", "all"], default="measurable")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("metrics", help="report and weight CDF for a network CSV")
    p.add_argument("network")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--cdf", help="also write the weight CDF to this CSV")
    p.add_argument("--log-base", choices=sorted(_LOG_BASES), default="e")
    p.set_defaults(func=_cmd_metrics)

    p = sub.add_parser("compare", help="three-way comparison plot data")
    p.add_argument("--map-csv", required=True)
    p.add_argument("--map-meta", required=True)
    p.add_argument("--con", required=True)
    p.add_argument("--ave", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--log-base", choices=sorted(_LOG_BASES), default="e")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("experiment", help="experiments over the dataset collection")
    exp = p.add_subparsers(dest="experiment", required=True)
    ps = exp.add_parser("subsets", help="theta and fit quality vs number of datasets")
    ps.add_argument("datasets", nargs="+")
    ps.add_argument("-o", "--output", required=True)
    ps.add_argument("--sizes", required=True, help="comma-separated subset sizes")
    ps.add_argument("--reps", type=int, default=10)
    ps.add_argument("--seed", type=int, default=0)
    _add_corr_flags(ps)
    _add_em_flags(ps)
    ps.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("synth", help="synthetic ground-truth instances")
    syn = p.add_subparsers(dest="synth", required=True)
    pg = syn.add_parser("gen", help="generate a synthetic multiplex + truth")
    pg.add_argument("--nodes", type=int, required=True)
    pg.add_argument("--layers", type=int, required=True)
    pg.add_argument("--theta", type=float, default=1.0)
    pg.add_argument("--coverage", type=float, default=1.0)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--output", required=True, help="multiplex edge list path")
    pg.add_argument("--truth", required=True, help="ground-truth CSV path")
    pg.add_argument("--truth-meta", help="ground-truth JSON path (default: truth with .json)")
    pg.set_defaults(func=_cmd_synth_gen)
    pc = syn.add_parser("score", help="score an estimate against ground truth")
    pc.add_argument("--est", required=True)
    pc.add_argument("--est-meta", required=True)
    pc.add_argument("--truth", required=True)
    pc.add_argument("--truth-meta", required=True)
    pc.add_argument("-o", "--output", required=True)
    pc.set_defaults(func=_cmd_synth_score)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except (MapnetError, OSError, ValueError) as exc:
        line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
        print(line, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

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
import sys
import warnings
from pathlib import Path
from typing import Iterable

import numpy as np

from .aggregate import EmConfig, aggregate_network
from .analysis import compare_networks, run_subset_experiment
from .baselines import build_avenet, build_connet
from .core import MultilayerNetwork, NodeUniverse, reindexed
from .correlation import CorrelationConfig, build_correlation_network
from .errors import MapnetError, MapnetWarning, UniverseMismatch
from .ingest import (
    ExpressionDataset,
    _edgelist_chunks,
    _layer_csv_chunks,
    _read_multiplex_edgelist,
    _write_rows,
    parse_aggregated_csv,
    parse_expression_csv,
    parse_layer_csv,
)
from .metrics import network_report, weight_cdf
from .synth import _synthetic_layers, recovery_metrics, truth_from_csv, truth_meta

_LOG_BASES = {"e": "natural", "2": "base2"}
_COUNT_MODES = {"measurable": "measurable", "nonzero": "nonzero_only", "presence": "presence"}
_PAIR_COUNT_MODES = {"unordered": "unordered", "paper": "paper_n_squared"}


# -- file helpers -----------------------------------------------------------


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _read_edgelist(path: str) -> MultilayerNetwork:
    """The multiplex edge list at ``path``, read in chunks (see ingest)."""
    with open(path, "rb") as file:
        return _read_multiplex_edgelist(file)


def _write(path: str, chunks: Iterable[str]) -> None:
    """Write text chunks to ``path`` one at a time, so the whole text is never
    held; callers raise on bad content before the file is opened."""
    with open(path, "w", encoding="utf-8") as out:
        out.writelines(chunks)


def _write_json(path: str, obj) -> None:
    _write(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])


def _load_datasets(paths: list[str]) -> list[ExpressionDataset]:
    return [parse_expression_csv(_read(p), name=Path(p).stem) for p in paths]


# -- subcommands ------------------------------------------------------------


def _corr_config(args) -> CorrelationConfig:
    levels = args.quantize if args.quantize else None
    return CorrelationConfig(
        min_pairs=args.min_pairs,
        quantize_levels=levels,
        zscore=getattr(args, "zscore", False),
    )


def _cmd_build_layers(args) -> None:
    datasets = _load_datasets(args.datasets)
    net = build_correlation_network(datasets, _corr_config(args))
    _write(args.output, _edgelist_chunks(net.universe, net.layer_names, net.layers))


def _cmd_aggregate(args) -> None:
    net = _read_edgelist(args.network)
    count_mode = _COUNT_MODES[args.count_mode or "measurable"]
    pair_count_mode = _PAIR_COUNT_MODES[args.pair_count]
    em = EmConfig(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    agg = aggregate_network(net, em, count_mode, pair_count_mode)
    _write(args.output, _layer_csv_chunks(agg.to_layer(), "lambda"))
    sidecar = args.sidecar or str(Path(args.output).with_suffix(".json"))
    meta = {"theta": agg.theta, "iterations": agg.iterations, "converged": agg.converged,
            "pair_count_mode": pair_count_mode, "count_mode": count_mode,
            "final_objective": agg.final_objective}
    _write_json(sidecar, meta)
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
        net = _read_edgelist(args.inputs[0])
        denominator = "measurable_layers" if args.denominator == "measurable" else "all_layers"
        layer = build_avenet(net, denominator)
    _write(args.output, _layer_csv_chunks(layer))


def _cmd_metrics(args) -> None:
    layer = parse_layer_csv(_read(args.network))
    report = network_report(layer, _LOG_BASES[args.log_base])
    _write_json(args.output, report.to_dict())
    if args.cdf:
        _write(args.cdf, _write_rows("value,fraction", [*weight_cdf(layer.values).T], ","))


def _cmd_compare(args) -> None:
    agg = parse_aggregated_csv(_read(args.map_csv), json.loads(_read(args.map_meta)))
    con = parse_layer_csv(_read(args.con))
    ave = parse_layer_csv(_read(args.ave))
    labels = {*agg.universe.labels, *con.universe.labels, *ave.universe.labels}
    universe = NodeUniverse(tuple(sorted(labels)))
    networks = (reindexed(net, universe) for net in (agg, con, ave))
    bundle = compare_networks(*networks, _LOG_BASES[args.log_base])

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, (i, j, *weights) in (("con", bundle.scatter_con), ("ave", bundle.scatter_ave)):
        header = f"node_u,node_v,map_weight,{name}_weight"
        columns = [(universe.labels, i), (universe.labels, j), *weights]
        _write(str(out / f"scatter_map_vs_{name}.csv"), _write_rows(header, columns, ","))
    for name, cdf in bundle.strength_cdfs.items():
        _write(str(out / f"strength_cdf_{name}.csv"), _write_rows("strength,fraction", [*cdf.T], ","))
    reports = {name: report.to_dict() for name, report in bundle.reports.items()}
    _write_json(str(out / "reports.json"), reports)


def _cmd_experiment(args) -> None:
    datasets = _load_datasets(args.datasets)
    sizes = [int(s) for s in args.sizes.split(",") if s]
    rows = run_subset_experiment(
        datasets, sizes, args.reps, args.seed, _corr_config(args), EmConfig(tol=args.tol, max_iter=args.max_iter)
    )
    columns = [
        np.array([r.size for r in rows], dtype=np.int64),
        np.array([r.mean_theta for r in rows]),
        np.array([r.mean_r2 for r in rows]),
    ]
    _write(args.output, _write_rows("size,mean_theta,mean_r2", columns, ","))


def _cmd_synth_gen(args) -> None:
    truth, names, layers = _synthetic_layers(args.nodes, args.layers, args.theta, args.coverage,
                                             args.seed)
    _write(args.output, _edgelist_chunks(truth.universe, names, layers))
    _write(args.truth, _layer_csv_chunks(truth.rates, "lambda_star"))
    meta_path = args.truth_meta or str(Path(args.truth).with_suffix(".json"))
    _write_json(meta_path, truth_meta(truth))


def _cmd_synth_score(args) -> None:
    truth = truth_from_csv(_read(args.truth), json.loads(_read(args.truth_meta)))
    est = parse_aggregated_csv(_read(args.est), json.loads(_read(args.est_meta)))
    try:
        est = reindexed(est, truth.universe)
    except KeyError as exc:
        raise UniverseMismatch(f"estimate node {exc.args[0]!r} missing from truth") from None
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
    mode = p.add_mutually_exclusive_group()
    # no default here: argparse lets a flag equal to its default pass the exclusion check
    mode.add_argument("--count-mode", choices=sorted(_COUNT_MODES), help="default: measurable")
    mode.add_argument("--unweighted", action="store_const", const="presence", dest="count_mode",
                      help="presence/absence mode, the same as --count-mode presence")
    p.add_argument("--pair-count", choices=sorted(_PAIR_COUNT_MODES), default="unordered")
    p.add_argument("--seed", type=int, default=None, help="random-init seed (default: deterministic init)")
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
    """Run one subcommand.  Errors and mapnet's warnings go to stderr as JSON
    lines, so stderr does not depend on where the package is installed."""
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        show = warnings.showwarning

        def show_json(message, category, *where):
            if issubclass(category, MapnetWarning):
                line = {"warning": category.__name__, **vars(message), "message": str(message)}
                print(json.dumps(line), file=sys.stderr)
            else:
                show(message, category, *where)

        warnings.showwarning = show_json
        try:
            args.func(args)
        except (MapnetError, OSError, ValueError) as exc:
            line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
            print(line, file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line surface tying the pipeline together.

Subcommands cover the whole workflow: build correlation layers from
expression CSVs, aggregate a multiplex edge list, build the reference
networks, compute metrics and plot data, run the subset-size experiment,
and generate/score synthetic instances.  Every subcommand is
deterministic given its flags and seed, emits plot *data* (CSV/JSON, not
images), and exits nonzero with a machine-readable error line on failure.
``run`` is the process entry of both ``mapnet`` and ``python -m mapnet``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from dataclasses import asdict
from pathlib import Path
from typing import Iterable

# One BLAS thread unless the caller set a count, so that the spectral metrics
# write the same bytes on every machine; BLAS reads these when numpy loads.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_variable, "1")

import numpy as np

from .aggregate import EmConfig, aggregate_network
from .analysis import compare_networks, run_subset_experiment
from .baselines import build_avenet, build_connet
from .core import MultilayerNetwork, reindexed, stacked
from .correlation import CorrelationConfig, build_correlation_network, zscore_normalize
from .errors import MapnetError, NotConverged, UniverseMismatch
from .ingest import (
    ExpressionDataset,
    edgelist_chunks,
    layer_csv_chunks,
    parse_aggregated_csv,
    parse_expression_csv,
    parse_layer_csv,
    read_multiplex_edgelist,
    sidecar,
    table_chunks,
)
from .metrics import network_report, weight_cdf
from .synth import recovery_metrics, synthetic_layers, truth_from_csv

_LOG_BASES = {"e": "natural", "2": "base2"}
_COUNT_MODES = {"measurable": "measurable", "nonzero": "nonzero_only", "presence": "presence"}
_PAIR_COUNT_MODES = {"unordered": "unordered", "paper": "paper_n_squared"}


# -- file helpers -----------------------------------------------------------


def _read(path: str) -> str:
    """The text at ``path``; a byte order mark before it is skipped."""
    return Path(path).read_text(encoding="utf-8-sig")


def _read_edgelist(path: str) -> MultilayerNetwork:
    """The multiplex edge list at ``path``, read in chunks (see ingest)."""
    with open(path, "rb") as file:
        return read_multiplex_edgelist(file)


def _write(staged: dict[str, str], path: str, chunks: Iterable[str]) -> None:
    """Write text chunks one at a time, so no text is held whole: a new or regular file to a new
    file beside its real path, which ``staged`` maps there for ``main`` to move, else in place."""
    temp = path
    if os.path.isfile(path) or not os.path.lexists(path):
        target = os.path.realpath(path)
        staged[temp := f"{target}.{os.getpid()}.tmp"] = target
    try:
        with open(temp, "w", encoding="utf-8") as out:
            out.writelines(chunks)
    except OSError as exc:  # named by the path given, not the temporary file
        exc.filename = path
        raise


def _write_json(staged: dict[str, str], path: str, obj) -> None:
    _write(staged, path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])


def _distinct(inputs: list[str], *outputs: str | None) -> None:
    """Raise before any file is opened when two output paths name one file, or one names an input.
    Paths are compared as Path.resolve gives them; a symlink loop is left to open to report."""
    named = [p for p in outputs if p]
    resolved = [os.path.realpath(p) for p in named]
    if len(set(resolved)) < len(resolved):
        raise MapnetError("two output paths name one file: " + ", ".join(named))
    read = {os.path.realpath(p) for p in inputs}
    clash = next((p for p, target in zip(named, resolved) if target in read), None)
    if clash:
        raise MapnetError(f"an output path names an input file: {clash}")


def _load_datasets(paths: list[str]) -> list[ExpressionDataset]:
    return [parse_expression_csv(_read(p), name=Path(p).stem) for p in paths]


# -- subcommands ------------------------------------------------------------


def _corr_config(args) -> CorrelationConfig:
    return CorrelationConfig(args.min_pairs, args.quantize or None)


def _cmd_build_layers(args, staged) -> None:
    _distinct(args.datasets, args.output)
    datasets = _load_datasets(args.datasets)
    if args.zscore:
        datasets = [zscore_normalize(ds) for ds in datasets]
    net = build_correlation_network(datasets, _corr_config(args))
    _write(staged, args.output, edgelist_chunks(net.universe, net.layer_names, net.layers))


def _cmd_aggregate(args, staged) -> None:
    meta_path = args.sidecar or str(Path(args.output).with_suffix(".json"))
    _distinct([args.network], args.output, meta_path)
    net = _read_edgelist(args.network)
    count_mode = _COUNT_MODES[args.count_mode or "measurable"]
    pair_count_mode = _PAIR_COUNT_MODES[args.pair_count]
    em = EmConfig(tol=args.tol, max_iter=args.max_iter, seed=args.seed)
    agg = aggregate_network(net, em, count_mode, pair_count_mode)
    _write(staged, args.output, layer_csv_chunks(agg, "lambda"))
    _write_json(staged, meta_path, {**sidecar(agg), "pair_count_mode": pair_count_mode,
                                    "count_mode": count_mode})
    if not agg.converged:
        warning = {"warning": "NotConverged", "iterations": agg.iterations, "theta": agg.theta}
        print(json.dumps(warning), file=sys.stderr)


def _cmd_baseline(args, staged) -> None:
    _distinct(args.inputs, args.output)
    if args.kind == "con":
        datasets = _load_datasets(args.inputs)
        layer = build_connet(datasets, args.min_pairs)
    else:
        if len(args.inputs) != 1:
            raise MapnetError("baseline ave takes exactly one multiplex edge list")
        net = _read_edgelist(args.inputs[0])
        denominator = "measurable_layers" if args.denominator == "measurable" else "all_layers"
        layer = build_avenet(net, denominator)
    _write(staged, args.output, layer_csv_chunks(layer))


def _cmd_metrics(args, staged) -> None:
    _distinct([args.network], args.output, args.cdf)
    layer = parse_layer_csv(_read(args.network))
    report = network_report(layer, _LOG_BASES[args.log_base])
    _write_json(staged, args.output, asdict(report))
    if args.cdf:
        _write(staged, args.cdf, table_chunks("value,fraction", [*weight_cdf(layer.values).T]))


def _cmd_compare(args, staged) -> None:
    out = Path(args.out_dir)
    names = [f"scatter_map_vs_{name}.csv" for name in ("con", "ave")] + ["reports.json"]
    names += [f"strength_cdf_{name}.csv" for name in ("map", "con", "ave")]
    _distinct([args.map_csv, args.map_meta, args.con, args.ave], *(str(out / name) for name in names))
    agg = parse_aggregated_csv(_read(args.map_csv), json.loads(_read(args.map_meta)))
    con = parse_layer_csv(_read(args.con))
    ave = parse_layer_csv(_read(args.ave))
    net = stacked((agg, con, ave), ("map", "con", "ave"))
    bundle = compare_networks(*net.layers, _LOG_BASES[args.log_base])

    out.mkdir(parents=True, exist_ok=True)
    for name, (i, j, *weights) in (("con", bundle.scatter_con), ("ave", bundle.scatter_ave)):
        header = f"node_u,node_v,map_weight,{name}_weight"
        columns = [(net.universe.labels, i), (net.universe.labels, j), *weights]
        _write(staged, str(out / f"scatter_map_vs_{name}.csv"), table_chunks(header, columns))
    for name, cdf in bundle.strength_cdfs.items():
        _write(staged, str(out / f"strength_cdf_{name}.csv"), table_chunks("strength,fraction", [*cdf.T]))
    reports = {name: asdict(report) for name, report in bundle.reports.items()}
    _write_json(staged, str(out / "reports.json"), reports)


def _cmd_experiment(args, staged) -> None:
    _distinct(args.datasets, args.output)
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
    _write(staged, args.output, table_chunks("size,mean_theta,mean_r2", columns))


def _cmd_synth_gen(args, staged) -> None:
    meta_path = args.truth_meta or str(Path(args.truth).with_suffix(".json"))
    _distinct([], args.output, args.truth, meta_path)
    truth, names, layers = synthetic_layers(args.nodes, args.layers, args.theta, args.coverage,
                                            args.seed)
    _write(staged, args.output, edgelist_chunks(truth.universe, names, layers))
    _write(staged, args.truth, layer_csv_chunks(truth, "lambda_star"))
    _write_json(staged, meta_path, sidecar(truth))


def _cmd_synth_score(args, staged) -> None:
    _distinct([args.est, args.est_meta, args.truth, args.truth_meta], args.output)
    truth = truth_from_csv(_read(args.truth), json.loads(_read(args.truth_meta)))
    est = parse_aggregated_csv(_read(args.est), json.loads(_read(args.est_meta)))
    try:
        est = reindexed(est, truth.universe)
    except KeyError as exc:
        raise UniverseMismatch(f"estimate node {exc.args[0]!r} missing from truth") from None
    _write_json(staged, args.output, asdict(recovery_metrics(est, truth)))


# -- argument parsing -------------------------------------------------------


def _add_corr_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--min-pairs", type=int, default=CorrelationConfig.min_pairs,
                   help="minimum shared conditions per pair")
    p.add_argument("--quantize", type=int, default=CorrelationConfig.quantize_levels,
                   help="integer weight levels; 0 keeps raw values")


def _add_em_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=EmConfig.tol, help="relative theta tolerance")
    p.add_argument("--max-iter", type=int, default=EmConfig.max_iter)


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
    p.add_argument("--min-pairs", type=int, default=CorrelationConfig.min_pairs,
                   help="minimum shared conditions per pair (con)")
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
    """Run one subcommand, its outputs moved onto their paths once all are written.  Errors and
    warnings go to stderr as JSON lines, so stderr does not depend on where mapnet is installed."""
    args = _build_parser().parse_args(argv)
    staged: dict[str, str] = {}  # each output's temporary file: the path it is moved onto
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, category, *where: print(json.dumps(
            {"warning": category.__name__, **vars(message), "message": str(message)}), file=sys.stderr)
        warnings.simplefilter("always", NotConverged)  # one line a solve, if two read the same
        try:
            args.func(args, staged)
            for temp, target in staged.items():
                os.replace(temp, target)
        except (MapnetError, OSError, ValueError) as exc:
            line = json.dumps({"error": type(exc).__name__, "message": str(exc)})
            print(line, file=sys.stderr)
            return 1
        finally:  # on an error, no output path changes
            for temp in filter(os.path.lexists, staged):
                os.remove(temp)
    return 0


def run() -> int:
    """``main``, then the heap frozen, so that the cyclic collections of finalization skip it."""
    code = main()
    gc.freeze()
    return code

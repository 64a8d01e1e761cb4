"""Workload definitions: seeded input generators and the commands of one pass.

Each workload writes its inputs into a directory and lists the mapnet CLI
commands that one pass runs, in order, against an output directory.  The
generators use only numpy and the seed, so the same seed gives the same
bytes, and they never import mapnet: the program sees only the files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import (
    Check,
    Summaries,
    check_aggregate,
    check_avenet,
    check_layers,
    check_recovery,
    read_edgelist,
    theta_bisection,
    theta_unweighted,
)

# synth-dense: the C01 size of the acceptance suite.
DENSE_NODES = 300
DENSE_LAYERS = 11
DENSE_COVERAGE = 0.8

# coexpr: expression datasets drawn from one latent-factor model.
COEXPR_POOL = 150
COEXPR_DATASETS = 6
COEXPR_KEEP = 0.85
COEXPR_CONDITIONS = 16
COEXPR_MISSING = 0.10
COEXPR_FACTORS = 3

# presence-edge: sum(S) sits just above P, where EM converges slowly but
# still within the default max_iter.
PRESENCE_NODES = 600
PRESENCE_LAYERS = 5
PRESENCE_MARGIN = 1.003


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a pass; ``metric`` names its wall-time metric."""

    metric: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Path, int], None]
    commands: Callable[[Path, Path, int], list[Command]]
    check: Callable[[Path, Path], list[Check]]


# theta tolerances: absolute where EM converges fast; relative at the
# presence edge, where its linear rate ~P/sum(S) leaves ~3e-8 relative error.
THETA_ABS_TOL = 1e-8
THETA_EDGE_RTOL = 1e-6
LAYER_SAMPLE = 200
LAYER_SAMPLE_SEED = 12345


def _check_weighted(out: Path, edges: Path, tol: float, relative: bool) -> tuple[list[Check], Summaries]:
    summaries = read_edgelist(edges)
    theta = theta_bisection(summaries.k, summaries.s, summaries.pair_count)
    checks = check_aggregate(
        "aggregate", out / "agg.csv", out / "agg.json", summaries, theta, tol, relative
    )
    return checks, summaries


def _labels(prefix: str, n: int) -> list[str]:
    width = len(str(n - 1))
    return [f"{prefix}{i:0{width}d}" for i in range(n)]


# -- synth-dense ------------------------------------------------------------


def _dense_generate(inputs: Path, seed: int) -> None:
    """Nothing to write: ``synth gen`` makes the inputs inside the pass."""


def _dense_commands(inputs: Path, out: Path, seed: int) -> list[Command]:
    net, truth, agg = out / "net.txt", out / "truth.csv", out / "agg.csv"
    return [
        Command(
            "synth_gen_s",
            ("synth", "gen", "--nodes", str(DENSE_NODES), "--layers", str(DENSE_LAYERS),
             "--coverage", str(DENSE_COVERAGE), "--seed", str(seed),
             "-o", str(net), "--truth", str(truth)),
        ),
        Command("aggregate_s", ("aggregate", str(net), "-o", str(agg))),
        Command(
            "synth_score_s",
            ("synth", "score", "--est", str(agg), "--est-meta", str(out / "agg.json"),
             "--truth", str(truth), "--truth-meta", str(out / "truth.json"),
             "-o", str(out / "score.json")),
        ),
        Command("baseline_ave_s", ("baseline", "ave", str(net), "-o", str(out / "ave.csv"))),
        Command(
            "metrics_s",
            ("metrics", str(agg), "-o", str(out / "metrics.json"), "--cdf", str(out / "cdf.csv")),
        ),
    ]


def _dense_check(inputs: Path, out: Path) -> list[Check]:
    checks, summaries = _check_weighted(out, out / "net.txt", THETA_ABS_TOL, relative=False)
    checks += check_avenet(out / "ave.csv", summaries)
    return checks + check_recovery(out / "agg.csv", out / "truth.csv", out / "score.json")


# -- coexpr -----------------------------------------------------------------


def coexpr_dataset_names() -> list[str]:
    return [f"ds{d + 1}" for d in range(COEXPR_DATASETS)]


def _coexpr_generate(inputs: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    pool = _labels("g", COEXPR_POOL)
    loadings = rng.normal(size=(COEXPR_POOL, COEXPR_FACTORS))
    noise = rng.uniform(0.3, 1.0, size=COEXPR_POOL)
    conditions = [f"c{c + 1:02d}" for c in range(COEXPR_CONDITIONS)]
    keep = round(COEXPR_KEEP * COEXPR_POOL)
    for name in coexpr_dataset_names():
        genes = np.sort(rng.choice(COEXPR_POOL, size=keep, replace=False))
        scores = rng.normal(size=(COEXPR_FACTORS, COEXPR_CONDITIONS))
        values = loadings[genes] @ scores + noise[genes, None] * rng.normal(
            size=(keep, COEXPR_CONDITIONS)
        )
        cells = values.size
        missing = rng.choice(cells, size=round(COEXPR_MISSING * cells), replace=False)
        text = np.char.mod("%.6f", values).reshape(cells)
        text[missing] = ""
        text = text.reshape(values.shape)
        lines = ["gene," + ",".join(conditions)]
        lines.extend(pool[g] + "," + ",".join(row) for g, row in zip(genes, text))
        (inputs / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


def _coexpr_commands(inputs: Path, out: Path, seed: int) -> list[Command]:
    datasets = [str(inputs / f"{name}.csv") for name in coexpr_dataset_names()]
    layers, agg = out / "layers.txt", out / "agg.csv"
    con, ave = out / "con.csv", out / "ave.csv"
    return [
        Command("build_layers_s", ("build-layers", *datasets, "-o", str(layers))),
        Command("aggregate_s", ("aggregate", str(layers), "-o", str(agg))),
        Command("baseline_con_s", ("baseline", "con", *datasets, "-o", str(con))),
        Command("baseline_ave_s", ("baseline", "ave", str(layers), "-o", str(ave))),
        Command(
            "metrics_s",
            ("metrics", str(agg), "-o", str(out / "metrics.json"), "--cdf", str(out / "cdf.csv")),
        ),
        Command(
            "compare_s",
            ("compare", "--map-csv", str(agg), "--map-meta", str(out / "agg.json"),
             "--con", str(con), "--ave", str(ave), "--out-dir", str(out / "compare")),
        ),
        Command(
            "experiment_s",
            ("experiment", "subsets", *datasets, "-o", str(out / "experiment.csv"),
             "--sizes", "1,2,3", "--reps", "2", "--seed", str(seed)),
        ),
    ]


def _coexpr_check(inputs: Path, out: Path) -> list[Check]:
    checks, summaries = _check_weighted(out, out / "layers.txt", THETA_ABS_TOL, relative=False)
    checks += check_avenet(out / "ave.csv", summaries)
    datasets = [inputs / f"{name}.csv" for name in coexpr_dataset_names()]
    return checks + check_layers(out / "layers.txt", datasets, LAYER_SAMPLE, LAYER_SAMPLE_SEED)


# -- presence-edge ----------------------------------------------------------


def _presence_generate(inputs: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    pairs = PRESENCE_NODES * (PRESENCE_NODES - 1) // 2
    cells = rng.choice(pairs * PRESENCE_LAYERS, size=round(PRESENCE_MARGIN * pairs), replace=False)
    cells.sort()
    layer, pair = np.divmod(cells, pairs)
    i, j = np.triu_indices(PRESENCE_NODES, k=1)
    labels = np.array(_labels("n", PRESENCE_NODES))
    layer_names = np.array([f"L{d + 1}" for d in range(PRESENCE_LAYERS)])
    rows = zip(layer_names[layer], labels[i[pair]], labels[j[pair]])
    text = "".join(f"{a} {u} {v}\n" for a, u, v in rows)
    (inputs / "presence.txt").write_text("# layer node_u node_v\n" + text, encoding="utf-8")


def _presence_commands(inputs: Path, out: Path, seed: int) -> list[Command]:
    edges = str(inputs / "presence.txt")
    return [
        Command(
            "aggregate_unweighted_s",
            ("aggregate", "--unweighted", edges, "-o", str(out / "agg_unweighted.csv")),
        ),
        Command("aggregate_s", ("aggregate", edges, "-o", str(out / "agg.csv"))),
    ]


def _presence_check(inputs: Path, out: Path) -> list[Check]:
    checks, summaries = _check_weighted(out, inputs / "presence.txt", THETA_EDGE_RTOL, relative=True)
    theta = theta_unweighted(summaries.depth, summaries.presence.sum(), summaries.pair_count)
    return checks + check_aggregate(
        "aggregate_unweighted",
        out / "agg_unweighted.csv",
        out / "agg_unweighted.json",
        summaries,
        theta,
        THETA_EDGE_RTOL,
        relative=True,
        unweighted=True,
    )


# The reason for each workload is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("synth-dense", _dense_generate, _dense_commands, _dense_check),
        Workload("coexpr", _coexpr_generate, _coexpr_commands, _coexpr_check),
        Workload("presence-edge", _presence_generate, _presence_commands, _presence_check),
    )
}

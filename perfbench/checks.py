"""Independent output checks: references computed here, never by mapnet.

Each checker reads the files a pass wrote and the inputs it read, and
returns a list of ``Check`` results.  The references are written from the
model's definitions (bisection on the theta equation, its closed form in
unweighted mode, pairwise-complete Pearson), so they share no code with
the program under test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

MIN_PAIRS = 5
LEVELS = 10
BOUNDARY = 1e-9
LAMBDA_RTOL = 1e-9
RECOVERY_MIN = 0.9


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Summaries:
    """Per-pair observation count k and weight sum S over the observed pairs."""

    labels: list[str]
    pairs: dict[tuple[str, str], int]  # label pair (u < v) -> row in k and s
    k: np.ndarray
    s: np.ndarray
    presence: np.ndarray  # layers with a positive weight
    depth: int

    @property
    def pair_count(self) -> int:
        n = len(self.labels)
        return n * (n - 1) // 2


def read_edgelist(path: Path) -> Summaries:
    """``layer u v [weight]`` lines; a missing weight is 1."""
    rows: dict[tuple[str, str, str], float] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        fields = raw.split()
        if not fields or fields[0].startswith("#"):
            continue
        layer, u, v = fields[:3]
        key = (layer, u, v) if u < v else (layer, v, u)
        if key in rows:
            raise ValueError(f"duplicate edge {key} in {path.name}")
        rows[key] = float(fields[3]) if len(fields) == 4 else 1.0
    pairs: dict[tuple[str, str], int] = {}
    k, s, presence = [], [], []
    for (_, u, v), w in rows.items():
        row = pairs.setdefault((u, v), len(pairs))
        if row == len(k):
            k.append(0)
            s.append(0.0)
            presence.append(0)
        k[row] += 1
        s[row] += w
        presence[row] += w > 0
    labels = sorted({label for pair in pairs for label in pair})
    depth = len({layer for layer, _, _ in rows})
    return Summaries(labels, pairs, np.array(k, float), np.array(s), np.array(presence, float), depth)


def theta_bisection(k: np.ndarray, s: np.ndarray, pair_count: int) -> float:
    """Root of theta * sum(S / (k + theta)) = P; it exists iff sum(S) > P."""
    if s.sum() <= pair_count:
        raise ValueError("no finite theta: total weight does not exceed the pair count")

    def g(theta: float) -> float:
        return theta * float(np.sum(s / (k + theta))) - pair_count

    lo, hi = 0.0, 1.0
    while g(hi) <= 0:
        lo, hi = hi, 2.0 * hi
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if g(mid) > 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def theta_unweighted(depth: int, total_presence: float, pair_count: int) -> float:
    """Closed form when every pair counts in every layer: P * D / (sum(S) - P)."""
    if total_presence <= pair_count:
        raise ValueError("no finite theta: presence does not exceed the pair count")
    return float(pair_count * depth / (total_presence - pair_count))


def read_pair_csv(path: Path) -> dict[tuple[str, str], float]:
    """``u,v,value`` rows after a header, keyed by the ordered label pair."""
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return {((u, v) if u < v else (v, u)): float(x) for u, v, x in rows}


def check_aggregate(
    name: str,
    agg_csv: Path,
    sidecar: Path,
    summaries: Summaries,
    theta_ref: float,
    tol: float,
    relative: bool,
    unweighted: bool = False,
) -> list[Check]:
    """Theta against the reference, convergence, and lambda = S / (k + theta).

    In unweighted mode every pair of the universe is estimated, with k = D
    and S the pair's presence count.
    """
    meta = json.loads(sidecar.read_text(encoding="utf-8"))
    theta = float(meta["theta"])
    err = abs(theta - theta_ref) / (theta_ref if relative else 1.0)
    kind = "relative" if relative else "absolute"
    checks = [
        Check(f"{name}.theta", err <= tol, f"theta {theta!r} vs {theta_ref!r}: {kind} error {err:.3g} (tol {tol:g})"),
        Check(f"{name}.converged", meta.get("converged") is True, f"converged={meta.get('converged')}"),
    ]
    lam = read_pair_csv(agg_csv)
    if unweighted:
        n = len(summaries.labels)
        expected_pairs = n * (n - 1) // 2
        def expected(pair):
            row = summaries.pairs.get(pair)
            present = summaries.presence[row] if row is not None else 0.0
            return present / (summaries.depth + theta)
    else:
        expected_pairs = len(summaries.pairs)
        def expected(pair):
            row = summaries.pairs[pair]
            return summaries.s[row] / (summaries.k[row] + theta)
    bad = 0
    try:
        for pair, value in lam.items():
            want = expected(pair)
            if abs(value - want) > LAMBDA_RTOL * max(abs(want), 1e-300):
                bad += 1
    except KeyError as exc:
        return checks + [Check(f"{name}.lambda", False, f"unobserved pair {exc.args[0]} estimated")]
    ok = bad == 0 and len(lam) == expected_pairs
    detail = f"{len(lam)} pairs (expected {expected_pairs}), {bad} off S/(k+theta) by > {LAMBDA_RTOL:g}"
    return checks + [Check(f"{name}.lambda", ok, detail)]


def check_avenet(ave_csv: Path, summaries: Summaries) -> list[Check]:
    """AveNet weight of each measured pair is S / k."""
    ave = read_pair_csv(ave_csv)
    bad = 0
    for pair, row in summaries.pairs.items():
        got = ave.get(pair)
        want = summaries.s[row] / summaries.k[row]
        if got is None or abs(got - want) > 1e-12 * max(1.0, want):
            bad += 1
    ok = bad == 0 and len(ave) == len(summaries.pairs)
    return [Check("avenet", ok, f"{len(ave)} pairs, {bad} differ from S/k")]


def pearson_level(x: np.ndarray, y: np.ndarray) -> float | None:
    """Quantized clamped pairwise-complete Pearson, the layer weight of one pair.

    Returns None when the pair is unmeasurable (fewer than MIN_PAIRS shared
    values or zero spread) and NaN when ``LEVELS * r`` lies within
    BOUNDARY of a .5 rounding boundary, where rounding is ill-conditioned.
    """
    both = ~(np.isnan(x) | np.isnan(y))
    if both.sum() < MIN_PAIRS:
        return None
    xs, ys = x[both], y[both]
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        return None
    r = float(np.corrcoef(xs, ys)[0, 1])
    q = LEVELS * min(1.0, max(0.0, r))
    if abs(q - math.floor(q) - 0.5) < BOUNDARY:
        return math.nan
    return float(math.floor(q + 0.5))


def read_expression(path: Path) -> tuple[list[str], np.ndarray]:
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    genes = [row[0] for row in rows]
    values = np.array([[float(c) if c.strip() else math.nan for c in row[1:]] for row in rows])
    return genes, values


def check_layers(layers_txt: Path, datasets: list[Path], sample: int, seed: int) -> list[Check]:
    """A fixed sample of gene pairs per dataset against the written layer.

    A measurable pair must appear in the dataset's layer with the expected
    level; an unmeasurable pair must be absent.
    """
    written: dict[tuple[str, str, str], float] = {}
    for raw in layers_txt.read_text(encoding="utf-8").splitlines():
        fields = raw.split()
        if fields and not fields[0].startswith("#"):
            layer, u, v, w = fields
            written[(layer, u, v) if u < v else (layer, v, u)] = float(w)
    rng = np.random.default_rng(seed)
    compared = skipped = bad = 0
    for path in datasets:
        genes, values = read_expression(path)
        n = len(genes)
        for _ in range(sample):
            a, b = rng.choice(n, size=2, replace=False)
            want = pearson_level(values[a], values[b])
            if want is not None and math.isnan(want):
                skipped += 1
                continue
            u, v = sorted((genes[a], genes[b]))
            got = written.get((path.stem, u, v))
            compared += 1
            bad += got != want
    detail = f"{compared} sampled pairs, {bad} differ, {skipped} skipped at a rounding boundary"
    return [Check("layer_weights", bad == 0 and compared > 0, detail)]


def check_recovery(agg_csv: Path, truth_csv: Path, score_json: Path) -> list[Check]:
    """Pearson of estimate and truth over estimated pairs, and the scorer's value."""
    est = read_pair_csv(agg_csv)
    truth = read_pair_csv(truth_csv)
    pairs = sorted(est)
    r = float(np.corrcoef([est[p] for p in pairs], [truth[p] for p in pairs])[0, 1])
    reported = float(json.loads(score_json.read_text(encoding="utf-8"))["pearson_lambda"])
    return [
        Check("recovery.pearson", r >= RECOVERY_MIN, f"Pearson {r:.4f} (min {RECOVERY_MIN})"),
        Check("recovery.reported", abs(r - reported) <= 1e-9, f"scorer reports {reported!r}, here {r!r}"),
    ]


def digest_tree(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    return {
        str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def check_identical(digests: list[dict[str, str]]) -> list[Check]:
    """Every pass wrote the same files with the same bytes as the first."""
    first = digests[0]
    differing = sum(1 for d in digests[1:] if d != first)
    return [Check("outputs_identical", differing == 0, f"{len(digests)} passes, {differing} differ from the first")]

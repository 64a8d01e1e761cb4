"""Benchmark of the mapnet CLI: whole commands end to end, layers when traced.

Run from the root of a mapnet checkout:

    python3 perfbench/run.py --workload synth-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --out results.jsonl
    python3 perfbench/run.py --compare base.jsonl change.jsonl

A run generates the workload's inputs from the seed (set-up, repeated and
timed), runs one warm-up pass, then runs passes of the workload's CLI
commands, one child process at a time, until ``--seconds`` have passed.
Each pass writes into a fresh directory.  Outputs are then checked
against references computed in ``checks.py``.  With ``--trace 1`` the
passes alternate between plain children and children started through
``trace_boot.py``, which records spans around each layer's functions.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics of BENCHMARK.json, or its per-layer metrics when
traced).  ``--out`` appends the full record, environment included, to a
JSON-lines file that ``--compare`` reads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checks import Check, check_identical, digest_tree
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPEC = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s; children are killed past this
RECHECK_SEED = 7919  # re-check any claim on this seed too; never tune on it
UNGATED_BOUND = 0.25  # compare-mode bound for reported metrics BENCHMARK.json does not gate


def now() -> float:
    # CLOCK_MONOTONIC is shared with the children, so spawn times taken here
    # line up with the import time trace_boot.py records.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Child:
    metric: str
    wall_s: float
    rss_mb: float
    code: int
    spawned: float
    span_file: Path | None
    stderr: str


@dataclass
class Pass:
    traced: bool
    pass_s: float
    children: list[Child] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)

    @property
    def failures(self) -> list[Child]:
        return [c for c in self.children if c.code != 0]


class Runner:
    """Runs the passes of one workload into fresh directories under ``work``."""

    def __init__(self, workload: Workload, seed: int, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def child(self, metric: str, args: tuple[str, ...], span_file: Path | None) -> Child:
        if span_file is None:
            argv = [sys.executable, "-m", "mapnet", *args]
        else:
            argv = [sys.executable, str(HERE / "trace_boot.py"), str(span_file), metric, "--", *args]
        err_path = self.work / "stderr.txt"
        with err_path.open("wb") as err:
            spawned = now()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err, env=self.env, cwd=ROOT)
            watchdog = threading.Timer(max(0.0, self.deadline - now()), proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = now() - spawned
        proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = err_path.read_text(encoding="utf-8", errors="replace")[-400:]
        return Child(metric, wall, usage.ru_maxrss / 1024.0, proc.returncode, spawned, span_file, stderr)

    def run_pass(self, inputs: Path, traced: bool) -> tuple[Pass, Path]:
        self.count += 1
        out = self.work / f"pass{self.count}"
        out.mkdir()
        spans = self.work / f"spans{self.count}"
        if traced:
            spans.mkdir()
        commands = self.workload.commands(inputs, out, self.seed)
        result = Pass(traced, 0.0)
        start = now()
        for i, cmd in enumerate(commands):
            span_file = spans / f"{i}.json" if traced else None
            result.children.append(self.child(cmd.metric, cmd.args, span_file))
            if result.children[-1].code != 0:
                break
        result.pass_s = now() - start
        result.digests = digest_tree(out)
        return result, out


def probe_program(env: dict) -> None:
    """Import mapnet in a child, as every command does, and check its origin."""
    code = "import mapnet, sys; sys.stdout.write(mapnet.__file__)"
    found = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout
    if Path(found).resolve().parent != (SRC / "mapnet").resolve():
        raise RuntimeError(f"mapnet imported from {found}, not from {SRC}")


# -- statistics -------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p90 with at least ten samples beyond it."""
    for label, q in (("p99", 0.99), ("p90", 0.90)):
        if len(values) * (1 - q) >= 10:
            return label, float(np.quantile(values, q))
    return None


def summary(values: list[float], unit: str) -> dict:
    entry = {"value": median(values), "unit": unit, "n": len(values), "samples": values}
    found = tail(values)
    if found:
        entry[found[0]] = found[1]
    return entry


# -- one workload -----------------------------------------------------------


def layer_values(p: Pass) -> dict[str, float]:
    """Per-layer self times and counts of one traced pass."""
    values: dict[str, float] = defaultdict(float)
    for c in p.children:
        values[f"cli.rss_mb.{c.metric[:-2]}"] = c.rss_mb
        values["cli.errors"] += c.code != 0
        if c.span_file is None or not c.span_file.exists():
            continue
        data = json.loads(c.span_file.read_text(encoding="utf-8"))
        values["cli.startup_s"] += data["imported"] - c.spawned
        spans = data["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _, _), covered in zip(spans, child_time):
            values[f"{name}_s"] += end - start - covered
        for name, count in data["counts"].items():
            values[name] += count
    measurable = values.pop("correlation.pairs_measurable", 0.0)
    if values["correlation.pairs_tested"]:
        values["correlation.measurable_ratio"] = measurable / values["correlation.pairs_tested"]
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(workload, seed, work, now() + RUN_LIMIT_S)
    try:
        return _measure(runner, seconds, trace, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()


def _measure(runner: Runner, seconds: float, trace: bool, spec: dict) -> dict:
    workload = runner.workload
    setup_times = []
    for i in range(SETUP_REPEATS):
        inputs = runner.work / f"inputs{i}"
        start = now()
        probe_program(runner.env)
        inputs.mkdir()
        workload.generate(inputs, runner.seed)
        setup_times.append(now() - start)

    warmup, out = runner.run_pass(inputs, traced=False)
    passes: list[Pass] = []
    start = now()
    while not warmup.failures and (now() - start < seconds or not passes or (trace and len(passes) < 2)):
        if passes and passes[-1].failures:
            break
        shutil.rmtree(out)
        p, out = runner.run_pass(inputs, traced=trace and len(passes) % 2 == 0)
        passes.append(p)

    checks: list[Check] = []
    everything = [warmup] + passes
    if not any(p.failures for p in everything):
        try:
            checks = workload.check(inputs, out)
        except (OSError, ValueError, KeyError) as exc:
            checks = [Check("checks", False, f"{type(exc).__name__}: {exc}")]
        checks += check_identical([p.digests for p in everything])

    plain = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    attempted = sum(len(p.children) for p in everything)
    failed = sum(len(p.failures) for p in everything) + sum(not c.ok for c in checks)

    e2e = {
        "setup_s": summary(setup_times, "s"),
        "pass_s": summary([p.pass_s for p in plain], "s"),
        "peak_rss_mb": summary([max(c.rss_mb for c in p.children) for p in plain], "MB"),
        "warmup_pass_s": summary([warmup.pass_s], "s"),
        "error_rate": summary([failed / attempted], "ratio"),
    }
    for metric in dict.fromkeys(c.metric for p in plain for c in p.children):
        e2e[metric] = summary([c.wall_s for p in plain for c in p.children if c.metric == metric], "s")

    layers = {}
    if traced:
        per_pass = [layer_values(p) for p in traced]
        for m in spec["per_layer"]:
            if m["name"] != "trace.overhead_s":
                layers[m["name"]] = summary([v.get(m["name"], 0.0) for v in per_pass], m["unit"])
        layers["trace.overhead_s"] = summary(
            [median([p.pass_s for p in traced]) - median([p.pass_s for p in plain])], "s"
        )

    return {
        "workload": workload.name,
        "seed": runner.seed,
        "recheck_seed": RECHECK_SEED,
        "seconds": seconds,
        "trace": trace,
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "correct": failed == 0 and bool(checks),
        "end_to_end": e2e,
        "per_layer": layers,
        "checks": [c.__dict__ for c in checks],
        "command_failures": [
            {"metric": c.metric, "code": c.code, "stderr": c.stderr} for p in everything for c in p.failures
        ],
    }


# -- environment ------------------------------------------------------------


def blas_threads() -> int | None:
    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_commit() -> str | None:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((SRC / "mapnet").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu_model(),
        "mapnet_commit": source_commit(),
        "mapnet_src_sha256": digest.hexdigest(),
    }


# -- output -----------------------------------------------------------------


def print_record(record: dict) -> None:
    print(f"== {record['workload']} seed={record['seed']} passes={record['passes']}"
          f" traced_passes={record['traced_passes']} correct={record['correct']}")
    for section in ("end_to_end", "per_layer"):
        for name, m in record[section].items():
            tails = "".join(f" {q}={m[q]:.6g}" for q in ("p90", "p99") if q in m)
            print(f"  {name:36s} {m['value']:14.6g} {m['unit']:6s} (median of {m['n']}){tails}")
    for c in record["checks"]:
        print(f"  check {c['name']:28s} {'ok' if c['ok'] else 'FAIL'}  {c['detail']}")
    for f in record["command_failures"]:
        print(f"  command {f['metric']} exited {f['code']}: {f['stderr'].strip()}")


def result_line(record: dict, spec: dict) -> dict:
    section, names = (
        ("per_layer", spec["per_layer"]) if record["trace"] else ("end_to_end", spec["end_to_end"])
    )
    metrics = {}
    for m in names:
        got = record[section].get(m["name"])
        metrics[m["name"]] = {"value": got["value"] if got else 0.0, "unit": m["unit"]}
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


# -- compare mode -----------------------------------------------------------


def load_records(path: Path) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.strip():
            record = json.loads(line)
            by_workload[record["workload"]].append(record)
    return by_workload


def compare(base_path: Path, new_path: Path, spec: dict) -> int:
    """Per workload and metric: both medians, quartiles, ratio and a verdict.

    A side's values are the medians its runs reported.  A change worse than
    the metric's bound is a regression, unless either side's quartile spread
    is itself wider than the bound: then it is unresolved.
    """
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load_records(base_path), load_records(new_path)
    regressions = 0
    for workload in sorted(set(base) & set(new)):
        print(f"== {workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        print(f"  {'metric':36s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} {'ratio':>7s}  verdict")
        for section in ("end_to_end", "per_layer"):
            names = dict.fromkeys(n for r in base[workload] + new[workload] for n in r[section])
            for name in names:
                a = [r[section][name]["value"] for r in base[workload] if name in r[section]]
                b = [r[section][name]["value"] for r in new[workload] if name in r[section]]
                if not a or not b:
                    continue
                info = meta.get(name, {})
                better = info.get("better", "lower")
                bound = info.get("bound", UNGATED_BOUND if section == "end_to_end" else None)
                ma, mb = median(a), median(b)
                (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
                verdict = "-"
                if bound is not None and ma and mb:
                    spread = max((a3 - a1) / ma, (b3 - b1) / mb)
                    worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
                    if spread > bound:
                        verdict = "unresolved"
                    elif worse > bound:
                        verdict = "REGRESSION"
                        regressions += 1
                    else:
                        verdict = "ok"
                ratio = mb / ma if ma else float("nan")
                print(f"  {name:36s} {ma:10.4g} [{a1:9.4g}, {a3:9.4g}] {mb:10.4g} [{b1:9.4g}, {b3:9.4g}]"
                      f" {ratio:7.3f}  {verdict}")
    return 1 if regressions else 0


# -- entry point ------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="append the full record to this JSON-lines file")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if not SPEC.is_file():
        print(f"error: {SPEC.name} not found at the checkout root", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    if args.compare:
        return compare(*args.compare, spec)
    if args.workload is None:
        parser.error("--workload is required unless --compare is given")
    if not (SRC / "mapnet" / "__init__.py").is_file():
        print(f"error: mapnet sources not found under {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("environment " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), spec)
        record["environment"] = env
        print_record(record)
        if args.out:
            with args.out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        lines[name] = result_line(record, spec)
    if len(lines) == 1:
        line = lines[names[0]]
    else:
        line = {
            "correct": all(v["correct"] for v in lines.values()),
            "attempted": sum(v["attempted"] for v in lines.values()),
            "failed": sum(v["failed"] for v in lines.values()),
            "metrics": {name: v["metrics"] for name, v in lines.items()},
        }
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

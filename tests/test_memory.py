"""Peak memory budgets of the synth-dense stages (N=300, D=11, coverage 0.8).

Peaks are traced allocations (tracemalloc sees numpy's buffers) above what
the stage's inputs already hold.  Each bound sits about 20% above the
figure measured when it was set.  The whole-grid synth draw, the joined
writer text, the parser's second row copies and the summaries' concatenate
plus np.unique peaked 2 to 7 times higher (42.4, 30.7, 27.8 and 21.8 MB);
the edge-list writer that formatted all layers' columns at once peaked at
9.0 MB, and reading the file whole held its 8.3 MB text beside the parse;
a parse that kept 28 bytes a row and then copied them into the layers
peaked at 13.1 MB.  The commands' own peaks are ``ru_maxrss`` of each one
spawned from a small launcher, above what importing the CLI takes; the
N=1000 run of that launcher is marked ``slow`` and deselected by default
(``python -m pytest -m slow tests/test_memory.py`` runs it).
"""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import mapnet
from mapnet import (
    LayerGraph,
    MultilayerNetwork,
    NodeUniverse,
    generate_synthetic,
    observation_summaries,
    parse_multiplex_edgelist,
)
from mapnet.cli import _read_edgelist, _write
from mapnet.ingest import _edgelist_chunks, _layer_csv_chunks

MB = 2**20


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of what it allocated, in MB."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


def edge_chunks(net):
    return _edgelist_chunks(net.universe, net.layer_names, net.layers)


@pytest.fixture(scope="module")
def dense():
    return generate_synthetic(n=300, d=11, theta_star=1.0, coverage=0.8, seed=1)[0]


def test_synth_draws_one_layer_at_a_time():
    _, peak = traced_peak(generate_synthetic, 300, 11, 1.0, 0.8, 1)
    assert peak < 11.0  # 9.1 MB, of which the network it returns holds 7.5


def test_edge_list_streams_to_the_file(dense, tmp_path):
    path = tmp_path / "net.txt"
    _, peak = traced_peak(lambda: _write(path, edge_chunks(dense)))
    assert path.stat().st_size > 8 * MB
    assert peak < 1.2  # 1.0 MB, for a text of 8.3 MB


def test_truth_csv_streams_to_the_file(tmp_path):
    truth = generate_synthetic(n=300, d=11, theta_star=1.0, coverage=0.8, seed=1)[1]
    path = tmp_path / "truth.csv"
    _, peak = traced_peak(lambda: _write(path, _layer_csv_chunks(truth.rates, "lambda_star")))
    assert path.stat().st_size > 1 * MB
    assert peak < 1.9  # 1.6 MB, of which the label positions of its 44,850 pairs take 0.7


def test_file_read_holds_no_text(dense, tmp_path):
    path = tmp_path / "net.txt"
    _write(path, edge_chunks(dense))
    net, peak = traced_peak(_read_edgelist, path)
    assert net == dense
    assert peak < 12.8  # 10.7 MB in all; the text alone is 8.3, the network returned 6.1


def test_parse_holds_its_rows_once(dense):
    text = "".join(edge_chunks(dense))
    net, peak = traced_peak(parse_multiplex_edgelist, text)
    assert net == dense
    assert peak < 12.5  # 10.4 MB above the 8.3 MB text; the network it returns holds 6.1


def test_summaries_fold_the_layers(dense):
    inp, peak = traced_peak(observation_summaries, dense)
    assert inp.counts.sum() == sum(layer.codes.size for layer in dense.layers)
    assert peak < 4.2  # 3.5 MB; the summaries it returns hold 1.0


def test_summaries_allocate_nothing_per_grid_cell():
    # 50,000 nodes, 2.5e9 grid cells, 4 pairs in 2 layers
    n = 50_000
    universe = NodeUniverse(tuple(f"v{i:05d}" for i in range(n)))
    far = (n - 2) * n + n - 1
    layers = (LayerGraph(universe, [1, 2, far], [1.0, 0.0, 2.0]),
              LayerGraph(universe, [2, n + 2, far], [3.0, 1.0, 0.5]))
    net = MultilayerNetwork(universe, layers, ("L1", "L2"))
    inp, peak = traced_peak(observation_summaries, net)
    assert inp.codes.tolist() == [1, 2, n + 2, far]
    assert inp.counts.tolist() == [1, 2, 1, 2] and inp.sums.tolist() == [1.0, 3.0, 1.0, 2.5]
    assert peak < 0.1  # 3.4 KB; one int64 per node would take 0.4 MB


LAUNCHER = """
import json, os, subprocess, sys

def peak_mb(*argv):
    proc = subprocess.Popen([sys.executable, *argv])
    _, status, usage = os.wait4(proc.pid, 0)
    if status:
        raise SystemExit(f"{argv} exited with status {status}")
    return usage.ru_maxrss / 1024

out, nodes = sys.argv[1:]
net = os.path.join(out, "net.txt")
peaks = {"import": peak_mb("-c", "import mapnet.cli, numpy.random")}
peaks["synth gen"] = peak_mb("-m", "mapnet", "synth", "gen", "--nodes", nodes, "--layers", "11",
                             "--coverage", "0.8", "--seed", "1", "-o", net,
                             "--truth", os.path.join(out, "truth.csv"))
peaks["aggregate"] = peak_mb("-m", "mapnet", "aggregate", net, "-o", os.path.join(out, "agg.csv"))
peaks["baseline ave"] = peak_mb("-m", "mapnet", "baseline", "ave", net,
                                "-o", os.path.join(out, "ave.csv"))
print(json.dumps(peaks))
"""


def command_peaks(tmp_path, nodes: int) -> dict[str, float]:
    """Each command's peak in MB above the launcher's import of the CLI, at
    ``nodes`` nodes.  The launcher starts small, so its children do not
    inherit this process's high-water mark (Linux carries it across a vfork
    and exec into ``ru_maxrss``)."""
    src = str(Path(mapnet.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, str(tmp_path), str(nodes)],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
                          check=True)
    peaks = json.loads(proc.stdout)
    return {command: peak - peaks["import"] for command, peak in peaks.items()}


def test_command_peaks_above_the_import(tmp_path):
    above = command_peaks(tmp_path, 300)
    # 6.0, 5.5 and 5.0 MB above an import of 35.5 MB (Python 3.11, numpy 2.4); holding
    # every drawn layer, and the parse's second copy of its 28-byte rows, took 11.6, 8.1
    # and 8.4, and holding the text and re-sorting the rows took 18.6-18.9
    assert above["synth gen"] < 8.2
    assert above["aggregate"] < 6.6
    assert above["baseline ave"] < 6.1


@pytest.mark.slow
def test_command_peaks_above_the_import_at_1000_nodes(tmp_path):
    """The same at N=1000 (about 4.4M observations, a 92 MB edge list)."""
    above = command_peaks(tmp_path, 1000)
    # 51, 100 and 97 MB above the import; holding every drawn layer, and the
    # parse's second copy of its rows, took 112, 152 and 149
    assert above["synth gen"] < 62.0
    assert above["aggregate"] < 122.0
    assert above["baseline ave"] < 118.0

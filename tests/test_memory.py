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
spawned from a small launcher, above what importing numpy and the standard
library takes; the N=1000 run of that launcher is marked ``slow`` and
deselected by default (``python -m pytest -m slow tests/test_memory.py`` runs it).
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
from mapnet.cli import _read_edgelist
from mapnet.ingest import _chunk_rows, _text_chunks, edgelist_chunks, layer_csv_chunks

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
    return edgelist_chunks(net.universe, net.layer_names, net.layers)


def _write(path, chunks):
    """``cli._write`` to a temporary file, then the move onto ``path`` that ``cli.main`` makes."""
    staged = {}
    mapnet.cli._write(staged, str(path), chunks)
    os.replace(*staged.popitem())


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
    _, peak = traced_peak(lambda: _write(path, layer_csv_chunks(truth, "lambda_star")))
    assert path.stat().st_size > 1 * MB
    assert peak < 1.9  # 1.6 MB, of which the label positions of its 44,850 pairs take 0.7


def test_file_read_holds_no_text(dense, tmp_path):
    path = tmp_path / "net.txt"
    _write(path, edge_chunks(dense))
    net, peak = traced_peak(_read_edgelist, path)
    assert net == dense
    assert peak < 12.8  # 10.7 MB in all; the text alone is 8.3, the network returned 6.1


def test_file_read_of_long_labels_holds_no_text(dense, tmp_path):
    """Labels of 12 bytes, like gene ids, stay on the chunk reader."""
    universe = NodeUniverse(tuple("ENSG00000" + label[1:] for label in dense.universe.labels))
    layers = tuple(LayerGraph(universe, layer.codes, layer.values) for layer in dense.layers)
    long = MultilayerNetwork(universe, layers, dense.layer_names)
    path = tmp_path / "net.txt"
    _write(path, edge_chunks(long))
    net, peak = traced_peak(_read_edgelist, path)
    assert net == long
    assert peak < 12.8  # the budget of the 4-byte labels; 9.5 MB, and 62.4 by the per-line reader


def test_parse_holds_its_rows_once(dense):
    text = "".join(edge_chunks(dense))
    net, peak = traced_peak(parse_multiplex_edgelist, text)
    assert net == dense
    assert peak < 12.5  # 10.4 MB above the 8.3 MB text; the network it returns holds 6.1


def test_per_line_parse_of_tabbed_text(dense):
    """Tab-separated files, the commonest input the chunk reader leaves to
    the per-line reader, which reads the lines of one chunk at a time."""
    text = "".join(edge_chunks(dense)).replace(" ", "\t")
    net, peak = traced_peak(parse_multiplex_edgelist, text)
    assert net == dense
    # 10.8 MB; 15.4 when the row columns were copied all at once, 37.4 when the
    # text's lines were held as one list, and 42.0 when the rows were collected as id triples
    assert peak < 13.0


def test_per_line_file_read_of_tabbed_text(dense, tmp_path):
    path = tmp_path / "tabs.txt"
    path.write_text("".join(edge_chunks(dense)).replace(" ", "\t"), encoding="utf-8")
    net, peak = traced_peak(_read_edgelist, path)
    assert net == dense
    # 10.8 MB; 15.4 when the row columns were copied all at once, and 45.7 when the file
    # was read and decoded whole
    assert peak < 13.0


def test_chunk_reader_gives_up_before_making_its_slabs(dense):
    """A tabbed text is irregular at its first chunk, before any row slab is made: freed,
    the slabs would raise glibc's mmap threshold, so the per-line reader's columns would
    grow on the heap (16.5 MB above the import for launcher ``aggregate, tabs``)."""
    text = "".join(edge_chunks(dense)).replace(" ", "\t")
    lines = text.count("\n")
    rows, peak = traced_peak(_chunk_rows, _text_chunks(text), " ", lines)
    assert rows is None
    assert peak * MB < 20 * lines  # 0.50 MB, the first chunk and its copy; 8.03 with the slabs


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

# what a command loads besides mapnet's own modules, BLAS pinned as the CLI pins it, so
# that the reference does not move with how much code those modules hold
REFERENCE = '''
import os
for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(name, "1")
import argparse, array, collections, copy, csv, dataclasses, functools, gc, importlib, io
import itertools, json, math, pathlib, sys, types, typing, warnings
import numpy, numpy.random
'''

def peak_mb(*argv):
    proc = subprocess.Popen([sys.executable, *argv])
    _, status, usage = os.wait4(proc.pid, 0)
    if status:
        raise SystemExit(f"{argv} exited with status {status}")
    return usage.ru_maxrss / 1024

out, nodes = sys.argv[1:]
net = os.path.join(out, "net.txt")
peaks = {"import": peak_mb("-c", REFERENCE)}
peaks["synth gen"] = peak_mb("-m", "mapnet", "synth", "gen", "--nodes", nodes, "--layers", "11",
                             "--coverage", "0.8", "--seed", "1", "-o", net,
                             "--truth", os.path.join(out, "truth.csv"))
peaks["aggregate"] = peak_mb("-m", "mapnet", "aggregate", net, "-o", os.path.join(out, "agg.csv"))
peaks["baseline ave"] = peak_mb("-m", "mapnet", "baseline", "ave", net,
                                "-o", os.path.join(out, "ave.csv"))
long = os.path.join(out, "long.txt")  # each label nXXX as the 12-byte ENSG00000XXX
with open(net, "rb") as short, open(long, "wb") as relabelled:
    while chunk := short.read(1 << 20):
        relabelled.write((chunk + short.readline()).replace(b" n", b" ENSG00000"))
peaks["aggregate, 12-byte labels"] = peak_mb("-m", "mapnet", "aggregate", long,
                                             "-o", os.path.join(out, "long.csv"))
tabs = os.path.join(out, "tabs.txt")  # the per-line reader's commonest input
with open(net, "rb") as spaced, open(tabs, "wb") as tabbed:
    while chunk := spaced.read(1 << 20):
        tabbed.write(chunk.replace(b" ", b"\t"))
peaks["aggregate, tabs"] = peak_mb("-m", "mapnet", "aggregate", tabs,
                                   "-o", os.path.join(out, "tabs.csv"))
print(json.dumps(peaks))
"""


# What mapnet's own modules add to the launcher's reference, in MB: the median of 11 launcher
# runs read 35.5 MB (35.4-35.6) for ``import mapnet.cli, numpy.random`` and 33.8 MB (33.8-34.0)
# for REFERENCE (Python 3.11, numpy 2.4), 1.63 apart, rounded down; from another checkout
# directory they read 1.8-1.9 apart.  Each budget below was set above the first of these, and
# is raised by exactly this much, so no absolute ceiling rises.
CLI_MODULES_MB = 1.6


def command_peaks(tmp_path, nodes: int) -> dict[str, float]:
    """Each command's peak in MB above the launcher's reference import, at
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
    # figures above ``import mapnet.cli, numpy.random``: 6.0, 5.5 and 5.0 MB above an import
    # of 35.5 MB (Python 3.11, numpy 2.4); holding every drawn layer, and the parse's second
    # copy of its 28-byte rows, took 11.6, 8.1 and 8.4, and holding the text and re-sorting
    # the rows took 18.6-18.9
    assert above["synth gen"] < 8.2 + CLI_MODULES_MB
    assert above["aggregate"] < 6.6 + CLI_MODULES_MB
    assert above["baseline ave"] < 6.1 + CLI_MODULES_MB
    # 5.6-6.2 MB, as the 4-byte labels; the per-line reader, which held the
    # text and its lines, took 72.3
    assert (above["aggregate, 12-byte labels"] - CLI_MODULES_MB
            <= 1.5 * (above["aggregate"] - CLI_MODULES_MB))
    # 6.2-6.3 MB; 11.2-11.3 when the per-line reader copied its columns all at once, 13.7-13.8
    # (16.5 when this budget was set) when the chunk reader made its slabs before it gave up,
    # and 47.3-47.9 when the per-line reader held the text and its lines
    assert above["aggregate, tabs"] < 19.8 + CLI_MODULES_MB


@pytest.fixture(scope="module")
def peaks_at_1000_nodes(tmp_path_factory):
    """``command_peaks`` at N=1000 (about 4.4M observations, a 92 MB edge list)."""
    return command_peaks(tmp_path_factory.mktemp("n1000"), 1000)


@pytest.mark.slow
def test_command_peaks_above_the_import_at_1000_nodes(peaks_at_1000_nodes):
    """The same at N=1000."""
    above = peaks_at_1000_nodes
    # 51, 100 and 97 MB above ``import mapnet.cli, numpy.random``; holding every drawn
    # layer, and the parse's second copy of its rows, took 112, 152 and 149
    assert above["synth gen"] < 62.0 + CLI_MODULES_MB
    assert above["aggregate"] < 122.0 + CLI_MODULES_MB
    assert above["baseline ave"] < 118.0 + CLI_MODULES_MB
    # 165 MB; 561 when the per-line reader held the text and its lines
    assert above["aggregate, tabs"] < 198.0 + CLI_MODULES_MB


@pytest.mark.slow
def test_long_labels_peak_as_short_ones_at_1000_nodes(peaks_at_1000_nodes):
    """``aggregate`` of the N=1000 edge list with 12-byte labels (a 167 MB
    file) peaks, above the import, at most 1.5 times as high as with the
    4-byte ones, and so does its whole peak."""
    above = peaks_at_1000_nodes
    # 99.3-100.1 against 99.1-99.6 MB above ``import mapnet.cli, numpy.random``; the per-line
    # reader, which held the text and its lines, took 758
    assert (above["aggregate, 12-byte labels"] - CLI_MODULES_MB
            <= 1.5 * (above["aggregate"] - CLI_MODULES_MB))

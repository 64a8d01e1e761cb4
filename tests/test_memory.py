"""Peak memory budgets of the synth-dense stages (N=300, D=11, coverage 0.8).

Peaks are traced allocations (tracemalloc sees numpy's buffers) above what
the stage's inputs already hold.  Each bound sits about 20% above the
figure measured when it was set.  The whole-grid synth draw, the joined
writer text, the parser's second row copies and the summaries' concatenate
plus np.unique peaked 2 to 7 times higher (42.4, 30.7, 27.8 and 21.8 MB).
"""

import tracemalloc

import pytest

from mapnet import (
    LayerGraph,
    MultilayerNetwork,
    NodeUniverse,
    generate_synthetic,
    observation_summaries,
    parse_multiplex_edgelist,
)
from mapnet.cli import _write
from mapnet.ingest import _edgelist_chunks

MB = 2**20


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of what it allocated, in MB."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def dense():
    return generate_synthetic(n=300, d=11, theta_star=1.0, coverage=0.8, seed=1)[0]


def test_synth_draws_one_layer_at_a_time():
    _, peak = traced_peak(generate_synthetic, 300, 11, 1.0, 0.8, 1)
    assert peak < 11.0  # 9.1 MB, of which the network it returns holds 7.5


def test_edge_list_streams_to_the_file(dense, tmp_path):
    path = tmp_path / "net.txt"
    _, peak = traced_peak(lambda: _write(path, _edgelist_chunks(dense)))
    assert path.stat().st_size > 8 * MB
    assert peak < 11.0  # 9.0 MB, for a text of 8.3 MB


def test_parse_holds_its_rows_once(dense):
    text = "".join(_edgelist_chunks(dense))
    net, peak = traced_peak(parse_multiplex_edgelist, text)
    assert net == dense
    assert peak < 16.0  # 13.4 MB above the 8.3 MB text; the network it returns holds 6.1


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

"""The sweep's packed records: every generated graph round-trips through its
record, the parent of a forked sweep builds no graph at all, and bounds past
what a record holds are refused before any worker starts."""

import multiprocessing
import os

import pytest

from signedconn import SignedGraph, oracle, sweep

FORK = "fork" in multiprocessing.get_all_start_methods()


def test_every_graph_round_trips_through_its_record():
    graphs = oracle.generate_signed_graphs(4, 5)
    count = 0
    for (n, triples), g in zip(oracle.signed_graph_triples(4, 5), graphs):
        record = sweep._pack(n, triples)
        assert len(record) == 1 + 3 * g.m
        assert sweep._graph(record) == g
        count += 1
    assert count == 64_480
    assert next(graphs, None) is None


def _never(*args):
    raise AssertionError("the sweep built its graphs with generate_signed_graphs")


@pytest.mark.skipif(not FORK, reason="needs the fork start method")
def test_the_parent_of_a_forked_sweep_builds_no_graph(monkeypatch, tmp_path):
    parent = os.getpid()
    log = os.open(tmp_path / "built", os.O_WRONLY | os.O_CREAT | os.O_APPEND)
    validate = SignedGraph.__post_init__

    def logged(g):
        # one line per graph built, in whichever process builds it; the
        # forked workers inherit the descriptor
        os.write(log, b"%d\n" % os.getpid())
        validate(g)

    checked = []
    monkeypatch.setattr(SignedGraph, "__post_init__", logged)
    monkeypatch.setattr(oracle, "generate_signed_graphs", _never)
    monkeypatch.setattr(sweep, "_CHECKS", {1: lambda g, fail: checked.append(g)})
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    try:
        result = sweep.run_sweep(4, 4, seed=5)
    finally:
        os.close(log)
    assert result.workers == 2 and result.ok and result.graphs_checked == 13_888
    assert checked == []  # every graph was checked in a worker
    builders = (tmp_path / "built").read_text().split()
    assert len(builders) == 13_888
    assert str(parent) not in builders


@pytest.mark.parametrize("seed", [None, 1])
def test_bounds_past_a_record_are_refused_before_any_worker_starts(monkeypatch, seed):
    def no_pool(*args):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    monkeypatch.setattr(oracle, "signed_graph_triples", _never)
    with pytest.raises(ValueError, match=f"max_n 256 exceeds {sweep.RECORD_MAX}"):
        sweep.run_sweep(256, 1, seed=seed)
    assert sweep.RECORD_MAX == 255
    assert sweep._graph(sweep._pack(255, [(254, 0, -1), (7, 7, 1)])) == SignedGraph.from_triples(
        255, [(254, 0, -1), (7, 7, 1)]
    )

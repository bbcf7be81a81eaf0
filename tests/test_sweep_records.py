"""The sweep's graph ranks: every rank decodes to the graph the generator
yields at that position, the generator keeps the order of the nested loop it
replaced, the parent of a forked sweep builds no graph at all, and no bound
on n is refused."""

import multiprocessing
import os
import random
from itertools import combinations_with_replacement, product

import pytest

from signedconn import SignedGraph, oracle, sweep

FORK = "fork" in multiprocessing.get_all_start_methods()


def _nested_loop(max_n, max_m):
    """The enumeration as one nested loop: the reference order."""
    for n in range(1, max_n + 1):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(0, max_m + 1):
            for combo in combinations_with_replacement(slots, m):
                if any(combo.count(s) > 2 for s in set(combo)):
                    continue
                for signs in product((+1, -1), repeat=m):
                    yield n, tuple([(u, v, s) for (u, v), s in zip(combo, signs)])


def test_every_rank_decodes_to_the_generated_graph():
    # ranks are decoded in a seeded shuffled order, so that one decode
    # follows another from any group of the order
    reference = list(_nested_loop(4, 5))
    order = oracle.SignedGraphOrder(4, 5)
    assert len(order) == len(reference) == 64_480
    ranks = list(range(len(order)))
    random.Random(5).shuffle(ranks)
    for k in ranks:
        assert order[k] == reference[k]
    for (n, triples), g in zip(reference, oracle.generate_signed_graphs(4, 5), strict=True):
        assert g == SignedGraph.from_triples(n, triples)
    for k in (-1, len(order)):
        with pytest.raises(IndexError):
            order[k]


def test_the_triples_keep_the_nested_loop_order():
    assert list(oracle.SignedGraphOrder(4, 5)) == list(_nested_loop(4, 5))
    assert list(oracle.SignedGraphOrder(0, 3)) == []
    assert len(oracle.SignedGraphOrder(0, 3)) == 0


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
def test_a_bound_past_255_vertices_is_checked(monkeypatch, seed):
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    result = sweep.run_sweep(256, 0, seed=seed, suites=[7])
    assert result.ok and result.graphs_checked == 256

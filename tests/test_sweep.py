"""The sweep's block-parallel `run_sweep` gives what one process checking
every graph in order gives: the same counts, the same first counterexamples,
the same progress reports.  Suite 4's local submodularity check agrees with
the all-pairs definition, suite 6 checks each theta by definition, and
suite 2's five characterizations of a balancing edge agree."""

import multiprocessing
import random

import pytest
from hypothesis import given

from signedconn import SignedGraph, Theta, is_balanced, is_connected, oracle, structure, sweep
from signedconn.errors import PreconditionError
from signedconn.io import fixture

from conftest import graphs

FORK = "fork" in multiprocessing.get_all_start_methods()


def _cheap_suite_1(g, fail):
    # fails on a few hundred graphs, spread over the whole order
    if sum((e.id + 1) * (3 * e.u + 5 * e.v + (e.sign < 0)) for e in g.edges) % 29 == 7:
        fail(f"suite 1 on n={g.n} edges={[(e.u, e.v, e.sign) for e in g.edges]}")


def _cheap_suite_2(g, fail):
    negative = sum(e.sign < 0 for e in g.edges)
    if g.n == 4 and negative == 2 and any(e.u == e.v for e in g.edges):
        fail(f"suite 2 on {g.edges}")
        fail("suite 2 again")


@pytest.fixture
def cheap_checks(monkeypatch):
    monkeypatch.setattr(sweep, "_CHECKS", {1: _cheap_suite_1, 2: _cheap_suite_2})


def _in_order(seed):
    graphs = list(oracle.generate_signed_graphs(4, 4))
    if seed is not None:
        random.Random(seed).shuffle(graphs)
    return graphs


def _plain_loop(graphs):
    """One process, graph by graph: the result the sweep must reproduce,
    plus the indices of the failing graphs."""
    counts, first, failing = {}, {}, []
    for i, g in enumerate(graphs):
        found = sweep.check_graph(g)
        if found:
            failing.append(i)
        for v in found:
            counts[v.suite] = counts.get(v.suite, 0) + 1
            first.setdefault(v.suite, v)
    return counts, first, failing


def _assert_same(result, graphs):
    counts, first, failing = _plain_loop(graphs)
    assert {i // sweep.BLOCK for i in failing} == {0, 1, 2}
    assert result.graphs_checked == len(graphs) == 13_888
    assert result.failure_counts == counts
    assert result.first_failure.keys() == first.keys()
    for suite, v in first.items():
        got = result.first_failure[suite]
        assert (got.suite, got.message, got.graph) == (v.suite, v.message, v.graph)


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_merge_equals_one_process_in_order(cheap_checks, monkeypatch, seed, cpus):
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: cpus)
    reports = []
    result = sweep.run_sweep(4, 4, seed=seed, progress=reports.append)
    assert result.workers == (cpus if FORK else 1)
    _assert_same(result, _in_order(seed))
    assert reports == [5000, 10000]


def test_a_worker_error_comes_out_of_run_sweep(monkeypatch):
    def raising(g, fail):
        if g.n == 4 and g.m == 4 and all(e.sign < 0 for e in g.edges):
            raise PreconditionError("raised in a worker")

    monkeypatch.setattr(sweep, "_CHECKS", {1: raising})
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    with pytest.raises(PreconditionError, match="raised in a worker"):
        sweep.run_sweep(4, 4)


def _workers_of_a_sweep(queue):
    queue.put(sweep.run_sweep(2, 2).workers)


@pytest.mark.skipif(not FORK, reason="needs the fork start method")
def test_a_daemonic_process_checks_in_process(monkeypatch):
    # a daemonic process may not have children, so it checks on its own
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_workers_of_a_sweep, args=(queue,), daemon=True)
    child.start()
    workers = queue.get(timeout=60)
    child.join(60)
    assert not child.is_alive() and child.exitcode == 0
    assert workers == 1


def _submodular_by_all_pairs(tab, m):
    return all(
        tab[a | b] + tab[a & b] <= tab[a] + tab[b]
        for a in range(1 << m)
        for b in range(a, 1 << m)
    )


def _union(bits, mask):
    out = 0
    for e, b in enumerate(bits):
        if mask >> e & 1:
            out |= b
    return out


def _set_functions(rng, m):
    """Random tables, coverage functions (submodular) and capped weight sums
    (submodular), each also with one entry moved by one."""
    size = 1 << m
    yield [rng.randint(0, 4) for _ in range(size)]
    cover = [rng.getrandbits(5) for _ in range(m)]
    weight = [rng.randint(0, 3) for _ in range(m)]
    cap = rng.randint(1, 6)
    for tab in (
        [_union(cover, mask).bit_count() for mask in range(size)],
        [min(cap, sum(weight[e] for e in range(m) if mask >> e & 1)) for mask in range(size)],
    ):
        yield tab
        broken = list(tab)
        broken[rng.randrange(size)] += rng.choice((1, -1))
        yield broken


def test_local_submodularity_agrees_with_all_pairs():
    rng = random.Random(44)
    verdicts = []
    for _ in range(1500):
        m = rng.choice((3, 4))
        for tab in _set_functions(rng, m):
            local = sweep._submodularity_violation(tab, m) is None
            assert local == _submodular_by_all_pairs(tab, m), (m, tab)
            verdicts.append(local)
    assert verdicts.count(True) >= 1000 and verdicts.count(False) >= 1000


# THETA: edge 0 joins 0-1, edges 1, 2 run 0-2-1 and edges 3, 4 run 0-3-1
_BROKEN_THETAS = [
    Theta((0, 0), ((0,), (1, 2), (3, 4))),  # one end
    Theta((0, 1), ((0,), (1,), (3, 4))),  # a chain stops at 2
    Theta((0, 1), ((0,), (1, 2), (2, 1))),  # a chain breaks at its start
    Theta((0, 1), ((0,), (1, 2), (0,))),  # two chains share an edge
]


def test_suite_6_checks_each_theta_by_definition(monkeypatch):
    g = fixture("THETA")
    assert sweep._theta_defect(g, Theta((0, 1), ((0,), (1, 2), (3, 4)))) is None
    for theta in _BROKEN_THETAS:
        assert sweep._theta_defect(g, theta), theta
    # edges 3, 4 run 0-2-1 beside edges 1, 2: two chains share vertex 2
    twin = SignedGraph.from_triples(3, [(0, 1, 1), (0, 2, 1), (2, 1, 1), (0, 2, 1), (2, 1, -1)])
    assert "inner vertex" in sweep._theta_defect(twin, Theta((0, 1), ((0,), (1, 2), (3, 4))))

    monkeypatch.setattr(structure, "contains_theta", lambda g: _BROKEN_THETAS[1])
    assert [v.suite for v in sweep.check_graph(g) if "theta" in v.message] == [6]


class TestBalancingEdgeEquivalences:
    def test_negative_triangle_edge_satisfies_all(self):
        rep = sweep._balancing_edge_conditions(fixture("T-"), 2)
        assert rep == (True,) * 5

    def test_tight_pair_satisfies_none(self):
        for eid in range(6):
            rep = sweep._balancing_edge_conditions(fixture("TIGHT"), eid)
            assert rep == (False,) * 5

    def test_negative_loop_balances_on_deletion(self):
        rep = sweep._balancing_edge_conditions(fixture("NEGLOOP"), 0)
        assert rep[0]
        assert rep == (True,) * 5

    @given(graphs(4, 5))
    def test_conditions_always_agree(self, g):
        if not is_connected(g) or is_balanced(g):
            return
        for eid in range(g.m):
            rep = sweep._balancing_edge_conditions(g, eid)
            assert len(set(rep)) == 1

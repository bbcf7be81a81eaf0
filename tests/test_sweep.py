"""The sweep's block-parallel `run_sweep` gives what one process checking
every graph in order gives: the same counts, the same first counterexamples,
the same progress reports, and a bad suite selection or size bound is refused
up front.  A worker that dies stops the sweep with an error naming its exit
code, and no worker outlives the call; the parent runs no other thread and
holds no graphs.  Each suite reports at most one violation per graph, its
first.  Suite 4's local submodularity check agrees with the all-pairs
definition, its mask lists, rank table and axiom loops with reference loops,
its rank tables with the oracle's rank, and one wrong answer of the library
gives a suite-4 violation; so does one in suites 2, 3, 5, 8 and 9, also on a
deletion that another suite built first; suite 6 checks each theta by
definition, and suite 2's five characterizations of a balancing edge agree."""

import multiprocessing
import os
import random
import signal
import threading
import tracemalloc

import pytest
from hypothesis import given

from signedconn import (
    SignedGraph,
    Theta,
    is_balanced,
    is_connected,
    matroid,
    oracle,
    structure,
    sweep,
)
from signedconn.errors import PreconditionError
from signedconn.io import fixture

from conftest import fresh_copy, graphs

FORK = "fork" in multiprocessing.get_all_start_methods()


def _cheap_suite_1(g):
    # fails on a few hundred graphs, spread over the whole order
    if sum((e.id + 1) * (3 * e.u + 5 * e.v + (e.sign < 0)) for e in g.edges) % 29 == 7:
        return f"suite 1 on n={g.n} edges={[(e.u, e.v, e.sign) for e in g.edges]}"
    return None


def _cheap_suite_2(g):
    negative = sum(e.sign < 0 for e in g.edges)
    if g.n == 4 and negative == 2 and any(e.u == e.v for e in g.edges):
        return f"suite 2 on {g.edges}"
    return None


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
    def raising(g):
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


def _exits_on_one_graph(g):
    if g.n == 4 and g.m == 4 and all(e.sign < 0 for e in g.edges):
        os._exit(3)


def _alarm(signum, frame):
    raise TimeoutError("run_sweep still running")


@pytest.mark.skipif(not FORK, reason="needs the fork start method")
def test_a_worker_that_dies_stops_the_sweep(monkeypatch):
    monkeypatch.setattr(sweep, "_CHECKS", {1: _exits_on_one_graph})
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="exit code 3"):
            sweep.run_sweep(4, 4)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not FORK, reason="needs the fork start method")
def test_the_parent_runs_no_other_thread_during_a_sweep(cheap_checks, monkeypatch):
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    before = threading.enumerate()
    seen = []
    sweep.run_sweep(4, 4, seed=5, progress=lambda done: seen.append(threading.enumerate()))
    assert before == [threading.main_thread()]
    assert seen == [before, before]
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not FORK, reason="needs the fork start method")
def test_the_parent_of_a_seeded_sweep_holds_no_graphs(monkeypatch):
    # the graphs of (4, 5) would take several MB as tuples, and about
    # 1 MB even packed one byte per value
    monkeypatch.setattr(sweep, "_CHECKS", {1: lambda g: None})
    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    sweep.run_sweep(2, 1, seed=9)  # loads the modules a sweep imports on first use
    tracemalloc.start()
    try:
        result = sweep.run_sweep(4, 5, seed=9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok and result.graphs_checked == 64_480
    assert peak < 1.5 * 2**20


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


def _first_local_violation(tab, m):
    """The local submodularity check by masks alone: the reference that
    `sweep._submodularity_violation`, which reads each mask's missing
    elements off `sweep._members`, must match."""
    for mask in range(1 << m):
        rest = [e for e in range(m) if not mask >> e & 1]
        for i, e in enumerate(rest):
            with_e = tab[mask | 1 << e]
            for f in rest[i + 1:]:
                if with_e + tab[mask | 1 << f] < tab[mask | 1 << e | 1 << f] + tab[mask]:
                    return mask, e, f
    return None


def test_local_submodularity_agrees_with_all_pairs():
    rng = random.Random(44)
    verdicts = []
    for _ in range(1500):
        m = rng.choice((3, 4))
        for tab in _set_functions(rng, m):
            first = sweep._submodularity_violation(tab)
            assert first == _first_local_violation(tab, m), (m, tab)
            assert (first is None) == _submodular_by_all_pairs(tab, m), (m, tab)
            verdicts.append(first is None)
    assert verdicts.count(True) >= 1000 and verdicts.count(False) >= 1000


def _first_unit_increase_violation(tab, m):
    """The unit-increase scan by masks alone, the reference for
    `sweep._unit_increase_violation`."""
    for mask in range(1 << m):
        for e in range(m):
            if not mask >> e & 1 and not tab[mask] <= tab[mask | 1 << e] <= tab[mask] + 1:
                return mask, e
    return None


def _rank_table_by_closure(m, circuit_masks):
    """Circuit marks closed under supersets one element at a time, then each
    rank read off the marks: the reference for `sweep._rank_table`, which
    does both in one forward pass."""
    size = 1 << m
    dependent = [False] * size
    for cm in circuit_masks:
        dependent[cm] = True
    for e in range(m):
        for mask in range(size):
            if dependent[mask]:
                dependent[mask | 1 << e] = True
    table = [0] * size
    for mask in range(1, size):
        if dependent[mask]:
            table[mask] = max(table[mask ^ 1 << e] for e in range(m) if mask >> e & 1)
        else:
            table[mask] = mask.bit_count()
    return table


def test_suite_4_members_rank_table_and_axiom_loops_agree_with_reference_loops():
    rng = random.Random(46)
    found = {"unit": 0, "submodular": 0}
    for m in range(8):
        assert sweep._members(m) == tuple(
            tuple(e for e in range(m) if mask >> e & 1) for mask in range(1 << m)
        )
        for _ in range(60):
            circuits = [rng.randrange(1, 1 << m) for _ in range(rng.randint(0, 5))] if m else []
            rank = sweep._rank_table(m, circuits)
            assert rank == _rank_table_by_closure(m, circuits), (m, circuits)
            for tab in (rank, *_set_functions(rng, m)):
                unit = sweep._unit_increase_violation(tab)
                assert unit == _first_unit_increase_violation(tab, m), (m, tab)
                submodular = sweep._submodularity_violation(tab)
                assert submodular == _first_local_violation(tab, m), (m, tab)
                found["unit"] += unit is not None
                found["submodular"] += submodular is not None
    assert min(found.values()) >= 100


def _mask(edges):
    return sum(1 << e for e in edges)


def _random_circuit_lists(rng):
    """(m, circuits) with m <= 7: the empty list, then random lists, each
    with one circuit repeated and one superset of a circuit added."""
    yield rng.randint(0, 7), []
    for _ in range(120):
        m = rng.randint(1, 7)
        circuits = [
            frozenset(rng.sample(range(m), rng.randint(1, m))) for _ in range(rng.randint(1, 5))
        ]
        circuits.append(rng.choice(circuits))
        circuits.append(rng.choice(circuits) | {rng.randrange(m)})
        yield m, circuits


def _assert_rank_table_is_the_oracle_rank(m, circuits):
    table = sweep._rank_table(m, [_mask(c) for c in circuits])
    assert len(table) == 1 << m
    for mask in range(1 << m):
        subset = [e for e in range(m) if mask >> e & 1]
        assert table[mask] == oracle.rank_from_circuits(circuits, subset), (m, circuits, mask)


def test_rank_table_agrees_with_the_oracle_rank_on_random_circuits():
    for m, circuits in _random_circuit_lists(random.Random(12)):
        _assert_rank_table_is_the_oracle_rank(m, circuits)


def test_rank_table_agrees_with_the_oracle_rank_on_frame_and_lift_circuits():
    rng = random.Random(45)
    sample = [g for g in oracle.generate_signed_graphs(4, 5) if rng.random() < 0.004]
    assert len(sample) > 150
    for g in sample:
        _assert_rank_table_is_the_oracle_rank(g.m, oracle.enumerate_frame_circuits(g))
        _assert_rank_table_is_the_oracle_rank(g.m, oracle.enumerate_lift_circuits(g))


def _off_by_one_on(subset, real):
    def patched(g, edge_ids):
        edge_ids = list(edge_ids)
        return real(g, edge_ids) + (sorted(edge_ids) == subset)
    return patched


def _flipped_on(subset, real):
    def patched(g, edge_ids):
        edge_ids = list(edge_ids)
        if sorted(edge_ids) != subset:
            return real(g, edge_ids)
        return matroid.CircuitClassification(matroid.CircuitVerdict.DISJOINT_PAIR)
    return patched


def _split_lift_class(real):
    # the class {0, ..., 5} of LOOSE split in two; the coloop {6} is kept
    def patched(g):
        part = real(g)
        classes = [c for c in part.classes if len(c) == 1]
        return part._replace(classes=(frozenset({0, 1, 2}), frozenset({3, 4, 5}), *classes))
    return patched


# LOOSE: negative triangles 0-1-2 and 3-4-5 joined by the bridge 6
_SUITE_4_FAULTS = [
    ("frame_rank", lambda real: _off_by_one_on([0, 1], real),
     "rank mismatch on [0, 1]: frame 3 vs 2, lift 2 vs 2"),
    ("lift_rank", lambda real: _off_by_one_on([0, 1, 2, 3, 4, 5], real),
     "rank mismatch on [0, 1, 2, 3, 4, 5]: frame 6 vs 6, lift 6 vs 5"),
    ("classify_circuit", lambda real: _flipped_on([0, 1, 2, 3, 4, 5, 6], real),
     "classify_circuit([0, 1, 2, 3, 4, 5, 6]) = CircuitVerdict.DISJOINT_PAIR "
     "disagrees with oracle"),
    ("frame_isthmi", lambda real: lambda g: real(g) | {6},
     "frame coloops [6] != circuit-free edges"),
    ("lift_components", _split_lift_class,
     "lift components differ from circuit closure"),
]


@pytest.mark.parametrize(
    "name, fault, message", _SUITE_4_FAULTS, ids=[f[0] for f in _SUITE_4_FAULTS]
)
def test_suite_4_catches_one_wrong_answer(monkeypatch, name, fault, message):
    assert sweep.check_graph(fixture("LOOSE"), [4]) == []
    monkeypatch.setattr(matroid, name, fault(getattr(matroid, name)))
    found = sweep.check_graph(fixture("LOOSE"), [4])
    assert [(v.suite, v.message) for v in found] == [(4, message)]


# two faults on LOOSE: suite 4 walks the masks in increasing order and names
# the first disagreement, a rank before a verdict on the same mask
_SUITE_4_TWO_FAULTS = [
    ([0, 1], [0, 1, 2],
     "classify_circuit([0, 1]) = CircuitVerdict.DISJOINT_PAIR disagrees with oracle"),
    ([0, 1], [0, 1], "rank mismatch on [0, 1]: frame 3 vs 2, lift 2 vs 2"),
]


@pytest.mark.parametrize(
    "flipped, off_by_one, message", _SUITE_4_TWO_FAULTS, ids=["by-mask", "rank-first"]
)
def test_suite_4_names_only_the_first_of_two_faults(monkeypatch, flipped, off_by_one, message):
    monkeypatch.setattr(matroid, "classify_circuit", _flipped_on(flipped, matroid.classify_circuit))
    monkeypatch.setattr(matroid, "frame_rank", _off_by_one_on(off_by_one, matroid.frame_rank))
    found = sweep.check_graph(fixture("LOOSE"), [4])
    assert [(v.suite, v.message) for v in found] == [(4, message)]


def test_suite_4_asks_every_rank_and_verdict_of_a_sound_graph(monkeypatch):
    calls = {name: 0 for name in ("frame_rank", "lift_rank", "classify_circuit")}

    def counted(name, real):
        def patched(g, edge_ids):
            calls[name] += 1
            return real(g, edge_ids)
        return patched

    for name in calls:
        monkeypatch.setattr(matroid, name, counted(name, getattr(matroid, name)))
    assert sweep.check_graph(fixture("LOOSE"), [4]) == []
    assert calls == {name: 1 << 7 for name in calls}


@pytest.fixture
def fresh_family_memo():
    """Suite 4's circuit-family memo emptied before and after the test: an
    entry built from a patched oracle function reaches no later test and no
    worker forked later."""
    sweep._family.cache_clear()
    yield
    sweep._family.cache_clear()


def _twin(g, switched):
    """g with its vertices numbered backwards and the vertices `switched`
    switched: another graph whose oracle circuits are g's, edge for edge."""
    flip = {v: -1 if v in switched else 1 for v in range(g.n)}
    return SignedGraph.from_triples(
        g.n, [(g.n - 1 - e.u, g.n - 1 - e.v, e.sign * flip[e.u] * flip[e.v]) for e in g.edges]
    )


@pytest.mark.parametrize(
    "name, fault, message", _SUITE_4_FAULTS, ids=[f[0] for f in _SUITE_4_FAULTS]
)
def test_suite_4_memo_hides_no_fault_of_another_graph(
    monkeypatch, fresh_family_memo, name, fault, message
):
    # LOOSE fills its frame and lift families; its twin only reads them
    loose, twin = fixture("LOOSE"), _twin(fixture("LOOSE"), {1, 4})
    assert twin.edges != loose.edges
    assert sweep.check_graph(loose, [4]) == []
    filled = sweep._family.cache_info()
    assert filled.currsize == 2
    monkeypatch.setattr(matroid, name, fault(getattr(matroid, name)))
    found = sweep.check_graph(twin, [4])
    assert [(v.suite, v.message) for v in found] == [(4, message)]
    read = sweep._family.cache_info()
    assert (read.currsize, read.hits - filled.hits) == (2, 2)


def test_suite_4_memo_tells_families_on_as_many_edges_apart(fresh_family_memo):
    # a positive triangle has one circuit on its three edges; a path, none
    triangle = SignedGraph.from_triples(3, [(0, 1, 1), (1, 2, 1), (2, 0, 1)])
    path = SignedGraph.from_triples(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1)])
    assert sweep.check_graph(triangle, [4]) == []
    assert sweep.check_graph(path, [4]) == []
    assert sweep._family.cache_info().currsize == 2
    assert sweep._family(3, frozenset({0b111})).ranks == (0, 1, 1, 2, 1, 2, 2, 2)
    assert sweep._family(3, frozenset()).ranks == (0, 1, 1, 2, 1, 2, 2, 3)


def _less(ids):
    return lambda real: lambda g: real(g) - ids


def _more(ids):
    return lambda real: lambda g: real(g) | ids


def _singletons(real):
    return lambda g: real(g)._replace(classes=tuple(frozenset({v}) for v in range(g.n)))


# (suite, module holding the name the suite calls, name, fault, graph,
# message); T-: the negative triangle 0-1-2, every edge and vertex a sign
# isthmus and articulation vertex; LOOSE: only its bridge 6 is one
_SUITE_FAULTS = [
    (2, sweep, "balancing_edges", _less({0}), "T-",
     "balancing edges [1, 2] != deletion oracle [0, 1, 2]"),
    (3, sweep, "sign_isthmi", _less({0}), "T-",
     "sign isthmi [1, 2] != deletion oracle [0, 1, 2]"),
    (3, sweep, "sign_articulation_vertices", _less({0}), "T-",
     "sign articulation vertices [1, 2] != deletion oracle [0, 1, 2]"),
    (5, sweep, "sign_isthmi", _more({0}), "LOOSE",
     "sign isthmus that is no lift isthmus [0]"),
    (8, sweep, "positive_components", _singletons, "T-",
     "positive components differ from positive reachability classes"),
    (8, sweep, "negative_components", _singletons, "T-",
     "negative components differ from closed negative reachability classes"),
    (9, matroid, "is_quasibalanced", lambda real: lambda g: not real(g), "T-",
     "is_quasibalanced=False disagrees with pairwise intersection test"),
]


@pytest.mark.parametrize(
    "suite, module, name, fault, graph, message",
    _SUITE_FAULTS,
    ids=[f"{f[0]}-{f[2]}" for f in _SUITE_FAULTS],
)
def test_each_suite_catches_one_wrong_answer(monkeypatch, suite, module, name, fault, graph,
                                             message):
    assert sweep.check_graph(fixture(graph)) == []
    monkeypatch.setattr(module, name, fault(getattr(module, name)))
    found = sweep.check_graph(fixture(graph), [suite])
    assert [(v.suite, v.message) for v in found] == [(suite, message)]


def _break_suite_1(monkeypatch):
    """Both of suite 1's library answers wrong: the criterion negated and
    every sign component a single vertex."""
    real = sweep.is_sign_connected
    monkeypatch.setattr(sweep, "is_sign_connected", lambda g: not real(g))
    monkeypatch.setattr(sweep, "sign_components", _singletons(sweep.sign_components))


def test_a_suite_reports_only_its_first_failed_check(monkeypatch):
    _break_suite_1(monkeypatch)
    found = sweep.check_graph(fixture("T-"), [1])
    assert [(v.suite, v.message) for v in found] == [(1, "is_sign_connected=False, expected True")]


def test_a_suite_counts_each_failing_graph_once(monkeypatch):
    # the negated criterion fails on every graph, the singletons on a few too
    _break_suite_1(monkeypatch)
    result = sweep.run_sweep(2, 2, suites=[1])
    assert result.graphs_checked == 38
    assert result.failure_counts == {1: 38}


def test_suite_9_catches_a_wrong_answer_on_a_deletion_suite_2_built(monkeypatch):
    # a negative digon 0-1, then the path 1-2-3: deleting edge 2 leaves the
    # digon and the balanced piece 2-3, which is no sign-connected piece
    g = SignedGraph.from_triples(4, [(0, 1, 1), (0, 1, -1), (1, 2, 1), (2, 3, 1)])
    piece = SignedGraph.from_triples(2, [(0, 1, 1)])
    assert sweep.check_graph(g) == []
    g = fresh_copy(g)  # nothing kept from the clean check
    real_connected, real_subgraph = sweep.is_sign_connected, SignedGraph.subgraph_of_edges
    built = []
    monkeypatch.setattr(sweep, "is_sign_connected", lambda h: h == piece or real_connected(h))
    monkeypatch.setattr(
        SignedGraph, "subgraph_of_edges",
        lambda h, ids: built.append(real_subgraph(h, ids)) or built[-1],
    )
    found = sweep.check_graph(g, [2, 9])
    assert [(v.suite, v.message) for v in found] == [
        (9, "edge 2 splits into unbalanced sign-connected pieces yet graph is quasibalanced")
    ]
    assert len(built) == 4  # suite 2 built the four deletions, suite 9 none


# set functions that break one rank axiom each, and the first violation
# suite 4 reports for them
_BROKEN_RANKS = [
    (lambda mask: 1 + mask.bit_count(), "frame rank of empty set is 1"),
    (lambda mask: 2 * mask.bit_count(), "frame rank not unit-increasing at 0+0"),
    (lambda mask: max(0, mask.bit_count() - 1), "frame rank not submodular at 0+0+1"),
]


@pytest.mark.parametrize("rank, message", _BROKEN_RANKS, ids=["empty", "unit", "submodular"])
def test_suite_4_checks_the_rank_axioms(monkeypatch, fresh_family_memo, rank, message):
    # the library's ranks and the oracle's tables agree, but break an axiom
    for name in ("frame_rank", "lift_rank"):
        monkeypatch.setattr(matroid, name, lambda g, edge_ids: rank(_mask(edge_ids)))
    monkeypatch.setattr(sweep, "_rank_table", lambda m, masks: [rank(x) for x in range(1 << m)])
    assert [v.message for v in sweep.check_graph(fixture("LOOSE"), [4])] == [message]


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


@pytest.mark.parametrize(
    "suites, bad", [([], "no suite"), ([10], "unknown suite 10;"), ([0, 4], "unknown suite 0;")]
)
def test_a_bad_suite_selection_is_refused_before_any_worker_starts(monkeypatch, suites, bad):
    def no_pool(*args):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    with pytest.raises(ValueError, match=bad):
        sweep.run_sweep(2, 2, suites=suites)
    with pytest.raises(ValueError, match=bad):
        sweep.check_graph(fixture("T-"), suites)


@pytest.mark.parametrize("max_n, max_m", [(0, 2), (-1, 2), (2, -1)])
def test_a_bad_size_bound_is_refused_before_any_worker_starts(monkeypatch, max_n, max_m):
    def no_pool(*args):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    with pytest.raises(ValueError, match=f"max_n must be >= 1 and max_m >= 0, not {max_n} and"):
        sweep.run_sweep(max_n, max_m)


def test_a_suite_selection_runs_those_suites_in_order(monkeypatch):
    ran = []
    monkeypatch.setattr(
        sweep, "_CHECKS", {k: lambda g, k=k: ran.append(k) for k in sweep.SUITES}
    )
    sweep.check_graph(fixture("T-"), (8, 3, 8))
    sweep.check_graph(fixture("T-"))
    assert ran == [3, 8, *sweep.SUITES]


class TestBalancingEdgeEquivalences:
    def test_negative_triangle_edge_satisfies_all(self):
        g = fixture("T-")
        rep = sweep._balancing_edge_conditions(g, 2, oracle.brute_cycles(g))
        assert rep == (True,) * 5

    def test_tight_pair_satisfies_none(self):
        g = fixture("TIGHT")
        for eid in range(6):
            rep = sweep._balancing_edge_conditions(g, eid, oracle.brute_cycles(g))
            assert rep == (False,) * 5

    def test_negative_loop_balances_on_deletion(self):
        g = fixture("NEGLOOP")
        rep = sweep._balancing_edge_conditions(g, 0, oracle.brute_cycles(g))
        assert rep[0]
        assert rep == (True,) * 5

    @given(graphs(4, 5))
    def test_conditions_always_agree(self, g):
        if not is_connected(g) or is_balanced(g):
            return
        for eid in range(g.m):
            rep = sweep._balancing_edge_conditions(g, eid, oracle.brute_cycles(g))
            assert len(set(rep)) == 1

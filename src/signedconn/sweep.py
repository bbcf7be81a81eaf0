"""Exhaustive verification of the theory's claims on all small signed graphs.

Each numbered suite pits the analysis modules against the independent
brute-force oracles; `run_sweep` drives the generator and reports the first
counterexample per suite.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from . import matroid, oracle, structure
from .balance import (
    balancing_edges,
    check_balancing_edge_equivalences,
    component_balance,
    is_balanced,
)
from .core import SignedGraph, is_connected
from .errors import PreconditionError
from .sign_connectivity import (
    is_parity_connected,
    is_sign_connected,
    negative_components,
    positive_components,
    sign_articulation_vertices,
    sign_components,
    sign_isthmi,
)

SUITES: dict[int, str] = {
    1: "sign connection: criterion and components vs both-sign reachability",
    2: "balancing edges: deletion oracle, and the five characterizations agree edge by edge",
    3: "sign isthmi = isthmi union balancing edges, and sign articulation vertices, vs deletion",
    4: "matroid ranks, rank axioms, circuits, coloops, and components vs oracle",
    5: "frame/lift vs sign connection and isthmus comparisons",
    6: "contrabalance: cactus characterization and connection consequences",
    7: "parity connection equals connected non-bipartite",
    8: "positive/negative components vs single-sign reachability",
    9: "quasibalance: intersection test, block criterion, negative-loop coloops",
}


@dataclass(frozen=True)
class Violation:
    suite: int
    message: str
    graph: SignedGraph


@dataclass
class SweepResult:
    graphs_checked: int = 0
    first_failure: dict[int, Violation] = field(default_factory=dict)
    failure_counts: dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.first_failure

    def suite_passed(self, suite: int) -> bool:
        return suite not in self.first_failure


class _Lazy:
    """Per-graph shared context; everything computed at most once."""

    def __init__(self, g: SignedGraph):
        self.g = g
        self._cache: dict[str, object] = {}

    def _get(self, key: str, fn: Callable[[], object]):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    @property
    def comps_flags(self):
        return self._get("cf", lambda: component_balance(self.g))

    @property
    def connected(self) -> bool:
        return len(self.comps_flags[0]) <= 1

    @property
    def balanced(self) -> bool:
        return all(self.comps_flags[1])

    @property
    def dec(self) -> structure.BlockDecomposition:
        return self._get("dec", lambda: structure.block_decomposition(self.g))

    @property
    def sign_connected(self) -> bool:
        return self._get("sc", lambda: is_sign_connected(self.g))

    @property
    def sign_isthmi(self) -> frozenset[int]:
        return self._get("si", lambda: sign_isthmi(self.g))

    @property
    def balancing(self) -> frozenset[int]:
        return self._get("bal", lambda: balancing_edges(self.g))

    @property
    def frame_isthmi(self) -> frozenset[int]:
        return self._get("fi", lambda: matroid.frame_isthmi(self.g))

    @property
    def lift_isthmi(self) -> frozenset[int]:
        return self._get("li", lambda: matroid.lift_isthmi(self.g))

    @property
    def frame_circuits(self) -> list[frozenset[int]]:
        return self._get("fc", lambda: oracle.enumerate_frame_circuits(self.g))

    @property
    def lift_circuits(self) -> list[frozenset[int]]:
        return self._get("lc", lambda: oracle.enumerate_lift_circuits(self.g))

    @property
    def cycles(self):
        return self._get("cy", lambda: oracle.brute_cycles(self.g))


def _closure_classes(m: int, circuits: Iterable[frozenset[int]]) -> set[frozenset[int]]:
    parent = list(range(m))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for circ in circuits:
        ids = sorted(circ)
        for other in ids[1:]:
            parent[find(other)] = find(ids[0])
    classes: dict[int, set[int]] = {}
    for eid in range(m):
        classes.setdefault(find(eid), set()).add(eid)
    return {frozenset(c) for c in classes.values()}


def _rank_table(m: int, circuits: Iterable[frozenset[int]]) -> list[int]:
    """rank[mask] from the circuit list: largest circuit-free subset."""
    circ_masks = [sum(1 << e for e in c) for c in circuits]
    table = [0] * (1 << m)
    for mask in range(1, 1 << m):
        if not any(cm & mask == cm for cm in circ_masks):
            table[mask] = mask.bit_count()
        else:
            table[mask] = max(
                table[mask & ~(1 << e)] for e in range(m) if mask >> e & 1
            )
    return table


def _check_suite_1(ctx: _Lazy, fail):
    g = ctx.g
    expected = (ctx.connected and not ctx.balanced) or g.n == 1
    if ctx.sign_connected != expected:
        fail(f"is_sign_connected={ctx.sign_connected}, expected {expected}")
    got = set(sign_components(g).classes)
    want = set(oracle.brute_sign_components(g))
    if got != want:
        fail(f"sign components {got} != reachability classes {want}")


def _check_suite_2(ctx: _Lazy, fail):
    if ctx.balanced:
        return
    want = oracle.brute_balancing_edges(ctx.g)
    if ctx.balancing != want:
        fail(f"balancing edges {sorted(ctx.balancing)} != deletion oracle {sorted(want)}")
        return
    if not ctx.connected:
        return
    for eid in range(ctx.g.m):
        rep = check_balancing_edge_equivalences(ctx.g, eid)
        if len(set(rep)) != 1:
            fail(f"edge {eid}: conditions disagree {tuple(rep)}")
            return


def _check_suite_3(ctx: _Lazy, fail):
    g = ctx.g
    if not ctx.sign_connected or g.n <= 1:
        return
    want = oracle.brute_sign_isthmi(g)
    if ctx.sign_isthmi != want:
        fail(f"sign isthmi {sorted(ctx.sign_isthmi)} != deletion oracle {sorted(want)}")
        return
    expected = ctx.dec.bridges() | ctx.balancing
    if expected != want:
        fail(f"isthmi union balancing edges {sorted(expected)} != sign isthmi {sorted(want)}")
        return
    got = sign_articulation_vertices(g)
    want = oracle.brute_sign_articulation_vertices(g)
    if got != want:
        fail(f"sign articulation vertices {sorted(got)} != deletion oracle {sorted(want)}")


def _check_suite_4(ctx: _Lazy, fail):
    g = ctx.g
    m = g.m
    frame_set = set(ctx.frame_circuits)
    lift_set = set(ctx.lift_circuits)
    frame_tab = _rank_table(m, frame_set)
    lift_tab = _rank_table(m, lift_set)
    frame_lib = [0] * (1 << m)
    lift_lib = [0] * (1 << m)
    for mask in range(1 << m):
        subset = [e for e in range(m) if mask >> e & 1]
        fr = matroid.frame_rank(g, subset)
        lr = matroid.lift_rank(g, subset)
        frame_lib[mask], lift_lib[mask] = fr, lr
        if fr != frame_tab[mask] or lr != lift_tab[mask]:
            fail(
                f"rank mismatch on {subset}: frame {fr} vs {frame_tab[mask]}, "
                f"lift {lr} vs {lift_tab[mask]}"
            )
            return
        cls = matroid.classify_circuit(g, subset)
        fs = frozenset(subset)
        if cls.in_frame != (fs in frame_set) or cls.in_lift != (fs in lift_set):
            fail(f"classify_circuit({subset}) = {cls.verdict} disagrees with oracle")
            return
    for tab, label in ((frame_lib, "frame"), (lift_lib, "lift")):
        if tab[0] != 0:
            fail(f"{label} rank of empty set is {tab[0]}")
            return
        for mask in range(1 << m):
            for e in range(m):
                if mask >> e & 1:
                    continue
                up = tab[mask | 1 << e]
                if not tab[mask] <= up <= tab[mask] + 1:
                    fail(f"{label} rank not unit-increasing at {mask}+{e}")
                    return
        for a in range(1 << m):
            for b in range(a, 1 << m):
                if tab[a | b] + tab[a & b] > tab[a] + tab[b]:
                    fail(f"{label} rank not submodular on ({a},{b})")
                    return
    in_frame_circuit = set().union(*frame_set) if frame_set else set()
    in_lift_circuit = set().union(*lift_set) if lift_set else set()
    if ctx.frame_isthmi != frozenset(range(m)) - in_frame_circuit:
        fail(f"frame coloops {sorted(ctx.frame_isthmi)} != circuit-free edges")
        return
    if ctx.lift_isthmi != frozenset(range(m)) - in_lift_circuit:
        fail(f"lift coloops {sorted(ctx.lift_isthmi)} != circuit-free edges")
        return
    if set(matroid.frame_components(g).classes) != _closure_classes(m, frame_set):
        fail("frame components differ from circuit closure")
        return
    if set(matroid.lift_components(g).classes) != _closure_classes(m, lift_set):
        fail("lift components differ from circuit closure")


def _check_suite_5(ctx: _Lazy, fail):
    g = ctx.g
    # frame connection implies sign connection -- on unbalanced graphs; a
    # balanced graph can be frame connected (one positive cycle) while its
    # sign components are singletons, so the balanced case is excluded.
    if not ctx.balanced or g.n == 1:
        if matroid.is_frame_connected(g) and not ctx.sign_connected:
            fail("frame connected but not sign connected")
            return
        if matroid.is_lift_connected(g):
            for comp in ctx.comps_flags[0]:
                if len(comp) > 1:
                    sub = _induced(g, comp)
                    if not is_sign_connected(sub):
                        fail("lift connected but a component is not sign connected")
                        return
    if not ctx.sign_connected or g.n <= 1:
        return
    si = ctx.sign_isthmi
    if not ctx.frame_isthmi <= si:
        fail(f"frame isthmus outside sign isthmi {sorted(ctx.frame_isthmi - si)}")
        return
    if not ctx.lift_isthmi <= si:
        fail(f"lift isthmus outside sign isthmi {sorted(ctx.lift_isthmi - si)}")
        return
    if not si <= ctx.lift_isthmi:
        fail(f"sign isthmus that is no lift isthmus {sorted(si - ctx.lift_isthmi)}")
        return
    # bridge sign isthmi: sides both sign connected iff not a frame isthmus,
    # iff both sides unbalanced -- provided neither side is a single vertex
    # (a lone vertex counts as sign connected yet makes the bridge a frame
    # isthmus, so it is excluded).
    for eid in ctx.dec.bridges() & si:
        without = g.delete_edges([eid])
        comps, flags = component_balance(without)
        e = g.edges[eid]
        sides = [
            (comp, bal)
            for comp, bal in zip(comps, flags)
            if e.u in comp or e.v in comp
        ]
        if any(len(comp) == 1 for comp, _ in sides):
            continue
        both_sc = all(is_sign_connected(_induced(without, comp)) for comp, _ in sides)
        both_unbal = all(not bal for _, bal in sides)
        not_frame = eid not in ctx.frame_isthmi
        if both_sc != not_frame or both_sc != both_unbal:
            fail(
                f"bridge {eid}: sides sign connected={both_sc}, "
                f"unbalanced={both_unbal}, frame isthmus={not not_frame}"
            )
            return


def _induced(g: SignedGraph, comp: frozenset[int]) -> SignedGraph:
    """Standalone subgraph on one connected component's vertices."""
    order = sorted(comp)
    remap = {v: i for i, v in enumerate(order)}
    triples = [
        (remap[e.u], remap[e.v], e.sign) for e in g.edges if e.u in comp
    ]
    return SignedGraph.from_triples(len(order), triples)


def _check_suite_6(ctx: _Lazy, fail):
    g = ctx.g
    contra = structure.is_contrabalanced(g)
    no_pos = all(s == -1 for _, s in ctx.cycles)
    if contra != no_pos:
        fail(f"is_contrabalanced={contra} but positive-cycle-free={no_pos}")
        return
    cactus = structure.is_cactus_forest(g)
    theta = structure.contains_theta(g)
    if cactus != (theta is None):
        fail(f"cactus={cactus} but theta={'found' if theta else 'none'}")
        return
    if theta is not None:
        pos = _theta_positive_count(g, theta)
        if pos % 2 == 0:
            fail(f"theta {theta} has an even number ({pos}) of positive cycles")
            return
    if not contra:
        return
    ncyc = len(ctx.cycles)
    if ctx.connected and g.n >= 2:
        if ctx.sign_connected != (ncyc >= 1):
            fail(f"contrabalanced: sign connected={ctx.sign_connected}, cycles={ncyc}")
            return
        if ncyc == 1 and ctx.sign_isthmi != frozenset(range(g.m)):
            fail("one cycle but not every edge is a sign isthmus")
            return
        if ncyc >= 2 and ctx.sign_isthmi != ctx.dec.bridges():
            fail("several cycles but sign isthmi differ from isthmi")
            return
    if ctx.connected and g.m >= 2:
        pendant = any(len(g.adjacency[v]) == 1 and g.adjacency[v][0].u != g.adjacency[v][0].v
                      for v in range(g.n))
        cond = ncyc >= 2 and not pendant
        fconn = matroid.is_frame_connected(g)
        fempty = not ctx.frame_isthmi
        if not (fconn == fempty == cond):
            fail(f"frame connection triple ({fconn},{fempty},{cond}) not equal")
            return
        if ncyc < 2 and ctx.frame_isthmi != frozenset(range(g.m)):
            fail("fewer than two cycles but not every edge is a frame isthmus")
            return
    no_isolated = all(g.adjacency[v] for v in range(g.n))
    if g.m >= 2 and no_isolated:
        cond = ncyc >= 2 and not ctx.dec.bridges()
        lconn = matroid.is_lift_connected(g)
        lempty = not ctx.lift_isthmi
        if not (lconn == lempty == cond):
            fail(f"lift connection triple ({lconn},{lempty},{cond}) not equal")
            return
        if ncyc < 2 and ctx.lift_isthmi != frozenset(range(g.m)):
            fail("fewer than two cycles but not every edge is a lift isthmus")


def _theta_positive_count(g: SignedGraph, theta: structure.Theta) -> int:
    signs = []
    for chain in theta.chains:
        s = 1
        for eid in chain:
            s *= g.edges[eid].sign
        signs.append(s)
    return sum(
        1
        for i in range(3)
        for j in range(i + 1, 3)
        if signs[i] * signs[j] == +1
    )


def _check_suite_7(ctx: _Lazy, fail):
    g = ctx.g
    got = is_parity_connected(g)
    if g.n == 1:
        expected = True
    else:
        expected = ctx.connected and not oracle.brute_is_bipartite(g)
    if got != expected:
        fail(f"is_parity_connected={got}, expected {expected}")


def _check_suite_8(ctx: _Lazy, fail):
    g = ctx.g
    if set(positive_components(g).classes) != set(oracle.brute_positive_components(g)):
        fail("positive components differ from positive reachability classes")
        return
    if set(negative_components(g).classes) != set(oracle.brute_negative_components(g)):
        fail("negative components differ from closed negative reachability classes")


def _check_suite_9(ctx: _Lazy, fail):
    g = ctx.g
    qb = matroid.is_quasibalanced(g)
    if qb != oracle.brute_is_quasibalanced(g):
        fail(f"is_quasibalanced={qb} disagrees with pairwise intersection test")
        return
    unbal_blocks = sum(1 for b in ctx.dec.blocks if not b.balanced)
    if unbal_blocks >= 2 and qb:
        fail("two unbalanced blocks but reported quasibalanced")
        return
    if unbal_blocks == 0 and not qb:
        fail("no unbalanced block but reported not quasibalanced")
        return
    if ctx.connected and qb:
        for e in g.edges:
            if e.u == e.v and e.sign == -1:
                if e.id not in ctx.frame_isthmi or e.id not in ctx.lift_isthmi:
                    fail(f"negative loop {e.id} not a frame+lift coloop")
                    return
    # a sign-connected graph with an edge splitting it into two sign-connected
    # pieces that are unbalanced (size > 1 or negative loop) is not
    # quasibalanced; deletion must actually disconnect, otherwise the single
    # remaining piece may hold the only negative cycle
    if ctx.sign_connected and not qb:
        return
    if ctx.sign_connected:
        for eid in range(g.m):
            without = g.delete_edges([eid])
            comps, _ = component_balance(without)
            if len(comps) < 2:
                continue
            pieces = [_induced(without, c) for c in comps]
            if all(
                is_sign_connected(p)
                and (p.n > 1 or any(e.u == e.v and e.sign == -1 for e in p.edges))
                for p in pieces
            ):
                fail(f"edge {eid} splits into unbalanced sign-connected pieces "
                     "yet graph is quasibalanced")
                return


_CHECKS = {
    1: _check_suite_1,
    2: _check_suite_2,
    3: _check_suite_3,
    4: _check_suite_4,
    5: _check_suite_5,
    6: _check_suite_6,
    7: _check_suite_7,
    8: _check_suite_8,
    9: _check_suite_9,
}


def check_graph(g: SignedGraph, suites: Optional[Iterable[int]] = None) -> list[Violation]:
    """All suite violations on one graph (at most one per suite)."""
    ctx = _Lazy(g)
    out: list[Violation] = []
    for suite in sorted(suites or _CHECKS):
        msgs: list[str] = []
        _CHECKS[suite](ctx, msgs.append)
        for msg in msgs:
            out.append(Violation(suite, msg, g))
    return out


def run_sweep(
    max_n: int = 4,
    max_m: int = 5,
    seed: Optional[int] = None,
    suites: Optional[Iterable[int]] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> SweepResult:
    """Check every signed graph up to the size bounds.

    A seed shuffles the (otherwise deterministic) graph order, which only
    affects which counterexample is reported first.
    """
    result = SweepResult()
    graphs = oracle.generate_signed_graphs(max_n, max_m)
    if seed is not None:
        pool = list(graphs)
        random.Random(seed).shuffle(pool)
        pool.reverse()
        # popped as checked, so that no graph (nor what is kept on it, such
        # as its block decomposition) outlives its check
        graphs = (pool.pop() for _ in range(len(pool)))
    for g in graphs:
        result.graphs_checked += 1
        for violation in check_graph(g, suites):
            result.failure_counts[violation.suite] = (
                result.failure_counts.get(violation.suite, 0) + 1
            )
            result.first_failure.setdefault(violation.suite, violation)
        if progress is not None and result.graphs_checked % 5000 == 0:
            progress(result.graphs_checked)
    return result

"""Exhaustive verification of the theory's claims on all small signed graphs.

Each numbered suite pits the analysis modules against the independent
brute-force oracles: its check returns the message of its first failed check
on a graph, or None.  `run_sweep` drives the generator, checks the graphs on
every usable CPU and reports the first counterexample per suite.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterable, NamedTuple, Optional

from . import matroid, oracle, structure
from .balance import balancing_edges, component_balance, is_balanced
from .core import SignedGraph, connected_components, is_connected
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


class Violation(NamedTuple):
    suite: int
    message: str
    graph: SignedGraph


@dataclass
class SweepResult:
    graphs_checked: int = 0
    first_failure: dict[int, Violation] = field(default_factory=dict)
    failure_counts: dict[int, int] = field(default_factory=dict)
    workers: int = 1  # processes that checked the graphs

    @property
    def ok(self) -> bool:
        return not self.first_failure

    def suite_passed(self, suite: int) -> bool:
        return suite not in self.first_failure


@cache
def _members(m: int) -> tuple[tuple[int, ...], ...]:
    """Per mask on m elements, the elements it holds, in increasing order.

    It depends on m alone, so it is built once per edge count in a process
    and read by every graph with that many edges: at most max_m + 1 tables.
    `_family` is the one other cache, one entry per circuit family met.
    Neither holds graph data."""
    return tuple(tuple(e for e in range(m) if mask >> e & 1) for mask in range(1 << m))


def _rank_table(m: int, circuit_masks: Iterable[int]) -> list[int]:
    """rank[mask] from the circuits, given as nonempty masks: the size of a
    largest subset of the mask that contains no circuit.

    A mask that contains a circuit has the rank of its best one-element
    deletion; any other mask is independent, of rank its size, one more
    than its best deletion.  One forward pass by increasing mask closes the
    circuit marks under supersets and carries each rank up to the masks one
    element larger.  Every step goes from a mask to a larger one, so when
    the pass reaches a mask, every step into it has been taken: its mark and
    its best deletion are final.
    """
    size, full, members = 1 << m, (1 << m) - 1, _members(m)
    dependent = [False] * size
    for cm in circuit_masks:
        dependent[cm] = True
    best = [-1] * size  # the largest rank of a one-element deletion; -1: none
    for mask in range(size):
        closed = dependent[mask]
        rank = best[mask] if closed else best[mask] + 1
        for e in members[full ^ mask]:
            up = mask | 1 << e
            if closed:
                dependent[up] = True
            if rank > best[up]:
                best[up] = rank
    return [b if d else b + 1 for b, d in zip(best, dependent)]


def _unit_increase_violation(tab: list[int]) -> Optional[tuple[int, int]]:
    """The first (S, e), S a mask and e an element outside it, with r(S+e)
    neither r(S) nor r(S) + 1; None if the set function `tab` has none."""
    members, full = _members(len(tab).bit_length() - 1), len(tab) - 1
    for mask, r in enumerate(tab):
        for e in members[full ^ mask]:
            if not r <= tab[mask | 1 << e] <= r + 1:
                return mask, e
    return None


def _submodularity_violation(tab: list[int]) -> Optional[tuple[int, int, int]]:
    """The first (S, e, f), S a mask and e < f elements outside it, with
    r(S+e) + r(S+f) < r(S+e+f) + r(S); None if the set function `tab` is
    submodular.

    For any set function this local form is equivalent to
    r(A) + r(B) >= r(A | B) + r(A & B) for all A, B (Schrijver, Combinatorial
    Optimization, 2003, section 44.1).  Local implies global by telescoping:
    adding elements of Y - X to X one at a time, each step an instance of the
    local form, gives r(X+b) - r(X) >= r(Y+b) - r(Y) for X <= Y and b outside
    Y.  With B - A = {b1, ..., bq} and Bj = {b1, ..., bj},
    r(A | B) - r(A) = sum over j of r(A | Bj) - r(A | Bj-1)
                   <= sum over j of r((A & B) | Bj) - r((A & B) | Bj-1)
                    = r(B) - r(A & B).
    It takes C(m - |S|, 2) checks per S, 80 in all at m = 5, where the loop
    over all pairs of masks takes 528.
    """
    members, full = _members(len(tab).bit_length() - 1), len(tab) - 1
    for mask, r in enumerate(tab):
        rest = members[full ^ mask]
        for i, e in enumerate(rest):
            with_e = mask | 1 << e
            for f in rest[i + 1:]:
                if tab[with_e] + tab[mask | 1 << f] < tab[with_e | 1 << f] + r:
                    return mask, e, f
    return None


class _Family(NamedTuple):
    """What suite 4 reads off one circuit family on m edges."""

    ranks: tuple[int, ...]  # rank per mask, from `_rank_table`
    defect: Optional[str]  # the first broken rank axiom, or None
    free: frozenset[int]  # the edges in no circuit: the coloops
    closure: frozenset[frozenset[int]]  # the classes of `oracle.circuit_closure`


@cache
def _family(m: int, circuit_masks: frozenset[int]) -> _Family:
    """The oracle's rank table, its first rank-axiom defect, its coloops and
    its components for the circuits given as masks on m edges.

    These depend on m and the masks alone, so each family is built once in
    a process and read by every graph whose oracle circuits it holds: 89
    families among the 27,776 frame and lift lookups at (4, 4), 414 at
    (4, 5).  An entry holds no graph and no answer of the library."""
    tab = _rank_table(m, circuit_masks)
    defect = None
    if tab[0] != 0:
        defect = f"rank of empty set is {tab[0]}"
    elif (broken := _unit_increase_violation(tab)) is not None:
        defect = f"rank not unit-increasing at {broken[0]}+{broken[1]}"
    elif (broken := _submodularity_violation(tab)) is not None:
        defect = f"rank not submodular at {broken[0]}+{broken[1]}+{broken[2]}"
    members = _members(m)
    circuits = [frozenset(members[cm]) for cm in circuit_masks]
    covered = 0
    for cm in circuit_masks:
        covered |= cm
    return _Family(
        tuple(tab),
        defect,
        frozenset(members[((1 << m) - 1) ^ covered]),
        frozenset(oracle.circuit_closure(m, circuits)),
    )


def _check_suite_1(g: SignedGraph) -> Optional[str]:
    expected = (is_connected(g) and not is_balanced(g)) or g.n == 1
    sign_connected = is_sign_connected(g)
    if sign_connected != expected:
        return f"is_sign_connected={sign_connected}, expected {expected}"
    got = set(sign_components(g).classes)
    want = set(oracle.brute_sign_components(g))
    if got != want:
        return f"sign components {got} != reachability classes {want}"


def _check_suite_2(g: SignedGraph) -> Optional[str]:
    if is_balanced(g):
        return None
    want = oracle.brute_balancing_edges(g)
    balancing = balancing_edges(g)
    if balancing != want:
        return f"balancing edges {sorted(balancing)} != deletion oracle {sorted(want)}"
    if not is_connected(g):
        return None
    cycles = oracle.brute_cycles(g)
    for eid in range(g.m):
        rep = _balancing_edge_conditions(g, eid, cycles)
        if len(set(rep)) != 1:
            return f"edge {eid}: conditions disagree {rep}"


def _balancing_edge_conditions(
    g: SignedGraph, eid: int, cycles: list[tuple[frozenset[int], int]]
) -> tuple[bool, ...]:
    """The five equivalent characterizations of a balancing edge on a
    connected unbalanced graph, evaluated independently of each other:
    deleting the edge balances the graph; it lies on every negative cycle;
    on every negative cycle and on no positive one; it is no isthmus and its
    sign differs from that of the chains between its ends once it is
    deleted; switching can make it the lone negative edge.  `cycles` are
    the oracle's, `oracle.brute_cycles(g)`."""
    e = g.edge(eid)

    without = _without(g, eid)
    rest = without.spine
    cond1 = not rest.frustrated

    cond2 = all(eid in c for c, s in cycles if s == -1)
    cond3 = cond2 and not any(eid in c for c, s in cycles if s == +1)

    # isthmus test: deleting e must not disconnect
    pot = rest.pot  # a switching potential wherever `without` is balanced
    cond4 = False
    if is_connected(without) and cond1:
        chain_sign = pot[e.u] * pot[e.v]  # all chains agree in a balanced graph
        cond4 = e.sign != chain_sign

    cond5 = False
    if cond1:
        if rest.comp[e.u] == rest.comp[e.v]:
            # sign of e after switching everything else positive
            cond5 = e.sign * pot[e.u] * pot[e.v] == -1
        else:
            # endpoints in different components: flip one side freely
            cond5 = True
    return cond1, cond2, cond3, cond4, cond5


def _without(g: SignedGraph, eid: int) -> SignedGraph:
    """g less edge eid, built once per graph object and edge and kept on g:
    suites 2, 5 and 9 check the same deletion.  Every library answer is
    still asked of it by each suite."""
    kept = vars(g).setdefault("_sweep_without", {})
    if eid not in kept:
        kept[eid] = g.subgraph_of_edges(f for f in range(g.m) if f != eid)
    return kept[eid]


def _check_suite_3(g: SignedGraph) -> Optional[str]:
    if not is_sign_connected(g) or g.n <= 1:
        return None
    want = oracle.brute_sign_isthmi(g)
    si = sign_isthmi(g)
    if si != want:
        return f"sign isthmi {sorted(si)} != deletion oracle {sorted(want)}"
    expected = structure.block_decomposition(g).bridges | balancing_edges(g)
    if expected != want:
        return f"isthmi union balancing edges {sorted(expected)} != sign isthmi {sorted(want)}"
    got = sign_articulation_vertices(g)
    want = oracle.brute_sign_articulation_vertices(g)
    if got != want:
        return f"sign articulation vertices {sorted(got)} != deletion oracle {sorted(want)}"


def _check_suite_4(g: SignedGraph) -> Optional[str]:
    """The library's ranks and circuit verdicts on every edge subset, then
    its coloops and components, against the oracle's circuits.  The oracle's
    side is read off the memoized `_family` of its frame and lift circuits;
    every library answer is asked of g.  The masks are walked once, in
    increasing order, and the first disagreement is named: a rank, then a
    verdict, by mask."""
    m = g.m
    frame_masks = frozenset(_mask(c) for c in oracle.enumerate_frame_circuits(g))
    lift_masks = frozenset(_mask(c) for c in oracle.enumerate_lift_circuits(g))
    frame, lift = _family(m, frame_masks), _family(m, lift_masks)
    frame_rank, lift_rank = matroid.frame_rank, matroid.lift_rank
    classify = matroid.classify_circuit
    for mask, subset in enumerate(_members(m)):
        fr, lr, cls = frame_rank(g, subset), lift_rank(g, subset), classify(g, subset)
        if fr != frame.ranks[mask] or lr != lift.ranks[mask]:
            return (
                f"rank mismatch on {list(subset)}: frame {fr} vs {frame.ranks[mask]}, "
                f"lift {lr} vs {lift.ranks[mask]}"
            )
        if cls.in_frame != (mask in frame_masks) or cls.in_lift != (mask in lift_masks):
            return f"classify_circuit({list(subset)}) = {cls.verdict} disagrees with oracle"
    # the library's tables are the oracle's here, so their axioms are too
    for family, label in ((frame, "frame"), (lift, "lift")):
        if family.defect is not None:
            return f"{label} {family.defect}"
    fi, li = matroid.frame_isthmi(g), matroid.lift_isthmi(g)
    if fi != frame.free:
        return f"frame coloops {sorted(fi)} != circuit-free edges"
    if li != lift.free:
        return f"lift coloops {sorted(li)} != circuit-free edges"
    if set(matroid.frame_components(g).classes) != frame.closure:
        return "frame components differ from circuit closure"
    if set(matroid.lift_components(g).classes) != lift.closure:
        return "lift components differ from circuit closure"


def _mask(edge_ids: Iterable[int]) -> int:
    return sum(1 << e for e in edge_ids)


def _check_suite_5(g: SignedGraph) -> Optional[str]:
    sign_connected = is_sign_connected(g)
    # frame connection implies sign connection -- on unbalanced graphs; a
    # balanced graph can be frame connected (one positive cycle) while its
    # sign components are singletons, so the balanced case is excluded.
    if not is_balanced(g) or g.n == 1:
        if matroid.is_frame_connected(g) and not sign_connected:
            return "frame connected but not sign connected"
        if matroid.is_lift_connected(g):
            for comp in connected_components(g):
                if len(comp) > 1:
                    sub = _induced(g, comp)
                    if not is_sign_connected(sub):
                        return "lift connected but a component is not sign connected"
    if not sign_connected or g.n <= 1:
        return None
    si, fi, li = sign_isthmi(g), matroid.frame_isthmi(g), matroid.lift_isthmi(g)
    if not fi <= si:
        return f"frame isthmus outside sign isthmi {sorted(fi - si)}"
    if not li <= si:
        return f"lift isthmus outside sign isthmi {sorted(li - si)}"
    if not si <= li:
        return f"sign isthmus that is no lift isthmus {sorted(si - li)}"
    # bridge sign isthmi: sides both sign connected iff not a frame isthmus,
    # iff both sides unbalanced -- provided neither side is a single vertex
    # (a lone vertex counts as sign connected yet makes the bridge a frame
    # isthmus, so it is excluded).
    for eid in structure.block_decomposition(g).bridges & si:
        without = _without(g, eid)
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
        not_frame = eid not in fi
        if both_sc != not_frame or both_sc != both_unbal:
            return (
                f"bridge {eid}: sides sign connected={both_sc}, "
                f"unbalanced={both_unbal}, frame isthmus={not not_frame}"
            )


def _induced(g: SignedGraph, comp: frozenset[int]) -> SignedGraph:
    """Standalone subgraph on one connected component's vertices."""
    order = sorted(comp)
    remap = {v: i for i, v in enumerate(order)}
    triples = [
        (remap[e.u], remap[e.v], e.sign) for e in g.edges if e.u in comp
    ]
    return SignedGraph.from_triples(len(order), triples)


def _check_suite_6(g: SignedGraph) -> Optional[str]:
    cycles = oracle.brute_cycles(g)
    contra = structure.is_contrabalanced(g)
    no_pos = all(s == -1 for _, s in cycles)
    if contra != no_pos:
        return f"is_contrabalanced={contra} but positive-cycle-free={no_pos}"
    cactus = structure.is_cactus_forest(g)
    theta = structure.contains_theta(g)
    if cactus != (theta is None):
        return f"cactus={cactus} but theta={'found' if theta else 'none'}"
    if theta is not None:
        defect = _theta_defect(g, theta)
        if defect:
            return f"theta {theta}: {defect}"
        pos = _theta_positive_count(g, theta)
        if pos % 2 == 0:
            return f"theta {theta} has an even number ({pos}) of positive cycles"
    if not contra:
        return None
    ncyc = len(cycles)
    connected = is_connected(g)
    bridges = structure.block_decomposition(g).bridges
    if connected and g.n >= 2:
        sign_connected = is_sign_connected(g)
        if sign_connected != (ncyc >= 1):
            return f"contrabalanced: sign connected={sign_connected}, cycles={ncyc}"
        if ncyc == 1 and sign_isthmi(g) != frozenset(range(g.m)):
            return "one cycle but not every edge is a sign isthmus"
        if ncyc >= 2 and sign_isthmi(g) != bridges:
            return "several cycles but sign isthmi differ from isthmi"
    if connected and g.m >= 2:
        pendant = any(len(g.adjacency[v]) == 1 and g.adjacency[v][0][1] != v for v in range(g.n))
        cond = ncyc >= 2 and not pendant
        fconn = matroid.is_frame_connected(g)
        fi = matroid.frame_isthmi(g)
        fempty = not fi
        if not (fconn == fempty == cond):
            return f"frame connection triple ({fconn},{fempty},{cond}) not equal"
        if ncyc < 2 and fi != frozenset(range(g.m)):
            return "fewer than two cycles but not every edge is a frame isthmus"
    no_isolated = all(g.adjacency[v] for v in range(g.n))
    if g.m >= 2 and no_isolated:
        cond = ncyc >= 2 and not bridges
        lconn = matroid.is_lift_connected(g)
        li = matroid.lift_isthmi(g)
        lempty = not li
        if not (lconn == lempty == cond):
            return f"lift connection triple ({lconn},{lempty},{cond}) not equal"
        if ncyc < 2 and li != frozenset(range(g.m)):
            return "fewer than two cycles but not every edge is a lift isthmus"


def _theta_defect(g: SignedGraph, theta: structure.Theta) -> Optional[str]:
    """Why the theta is not one by definition, or None: its two ends differ,
    and its three chains are edge-disjoint paths between them whose inner
    vertices are pairwise disjoint."""
    a, b = theta.endpoints
    if a == b:
        return "both ends are one vertex"
    inner: list[set[int]] = []
    for path in theta.chains:
        at, seen = a, [a]
        for eid in path:
            e = g.edges[eid]
            if at not in (e.u, e.v):
                return f"chain {path} breaks at edge {eid}"
            at = e.other(at)
            seen.append(at)
        if at != b or len(set(seen)) != len(seen):
            return f"chain {path} is no path from {a} to {b}"
        inner.append(set(seen[1:-1]))
    if len(set().union(*theta.chains)) != sum(len(c) for c in theta.chains):
        return "two chains share an edge"
    if inner[0] & inner[1] or inner[0] & inner[2] or inner[1] & inner[2]:
        return "two chains share an inner vertex"
    return None


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


def _check_suite_7(g: SignedGraph) -> Optional[str]:
    got = is_parity_connected(g)
    expected = g.n == 1 or (is_connected(g) and not oracle.brute_is_bipartite(g))
    if got != expected:
        return f"is_parity_connected={got}, expected {expected}"


def _check_suite_8(g: SignedGraph) -> Optional[str]:
    if set(positive_components(g).classes) != set(oracle.brute_positive_components(g)):
        return "positive components differ from positive reachability classes"
    if set(negative_components(g).classes) != set(oracle.brute_negative_components(g)):
        return "negative components differ from closed negative reachability classes"


def _check_suite_9(g: SignedGraph) -> Optional[str]:
    qb = matroid.is_quasibalanced(g)
    if qb != oracle.brute_is_quasibalanced(g):
        return f"is_quasibalanced={qb} disagrees with pairwise intersection test"
    unbal_blocks = sum(1 for row in structure.block_decomposition(g).rows if not row[2])
    if unbal_blocks >= 2 and qb:
        return "two unbalanced blocks but reported quasibalanced"
    if unbal_blocks == 0 and not qb:
        return "no unbalanced block but reported not quasibalanced"
    if is_connected(g) and qb:
        coloops = matroid.frame_isthmi(g) & matroid.lift_isthmi(g)
        for e in g.edges:
            if e.u == e.v and e.sign == -1:
                if e.id not in coloops:
                    return f"negative loop {e.id} not a frame+lift coloop"
    # a sign-connected graph with an edge splitting it into two sign-connected
    # pieces that are unbalanced (size > 1 or negative loop) is not
    # quasibalanced; deletion must actually disconnect, otherwise the single
    # remaining piece may hold the only negative cycle
    if is_sign_connected(g) and qb:
        for eid in range(g.m):
            without = _without(g, eid)
            comps, _ = component_balance(without)
            if len(comps) < 2:
                continue
            pieces = [_induced(without, c) for c in comps]
            if all(
                is_sign_connected(p)
                and (p.n > 1 or any(e.u == e.v and e.sign == -1 for e in p.edges))
                for p in pieces
            ):
                return (f"edge {eid} splits into unbalanced sign-connected pieces "
                        "yet graph is quasibalanced")


_CHECKS: dict[int, Callable[[SignedGraph], Optional[str]]] = {
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


def _chosen(suites: Optional[Iterable[int]]) -> list[int]:
    """The suites to run, in increasing order: all of them for None.  An
    empty selection or an unknown suite raises ValueError."""
    if suites is None:
        return sorted(_CHECKS)
    chosen = set(suites)
    if not chosen:
        raise ValueError("no suite selected")
    for suite in chosen:
        if suite not in _CHECKS:
            raise ValueError(f"unknown suite {suite!r}; the suites are {sorted(_CHECKS)}")
    return sorted(chosen)


def check_graph(g: SignedGraph, suites: Optional[Iterable[int]] = None) -> list[Violation]:
    """The suite violations on one graph, in suite order: one per suite that
    fails, with the message of its first failed check."""
    out: list[Violation] = []
    for suite in _chosen(suites):
        msg = _CHECKS[suite](g)
        if msg is not None:
            out.append(Violation(suite, msg, g))
    return out


BLOCK = 5000  # graphs checked between two `progress` reports


def _check_positions(
    graphs: oracle.SignedGraphOrder, order, positions: Iterable[int], suites: list[int]
) -> list[tuple[int, list[tuple[int, str]]]]:
    """(position, [(suite, message), ...]) per failing graph among the given
    positions of `order`, in their order; each graph is decoded from its
    rank `order[position]`."""
    out = []
    for position in positions:
        n, triples = graphs[order[position]]
        found = check_graph(SignedGraph.from_triples(n, triples), suites)
        if found:
            out.append((position, [(v.suite, v.message) for v in found]))
    return out


def _worker(send, graphs, order, positions, suites) -> None:
    """A forked worker's body: the failures among `positions`, or the
    exception that stopped the check, sent once over `send`."""
    try:
        reply = (True, _check_positions(graphs, order, positions, suites))
    except Exception as exc:  # re-raised by the parent
        reply = (False, exc)
    send.send(reply)
    send.close()


def _check_block(ctx, graphs, order, lo: int, hi: int, suites: list[int], w: int):
    """(position, [(suite, message), ...]) per failing graph of the block
    [lo, hi) of `order`, in position order.  Worker j is a process forked
    for this block alone: it inherits the table and the rank order, checks
    the positions lo + j, lo + j + w, ... below hi, and sends back only its
    failures.  No worker outlives the call.  The sweep starts no thread, so
    no lock is held by another thread when a worker is forked."""
    procs, receivers = [], []
    try:
        for j in range(w):
            receive, send = ctx.Pipe(duplex=False)
            receivers.append(receive)
            proc = ctx.Process(
                target=_worker,
                args=(send, graphs, order, range(lo + j, hi, w), suites),
                daemon=True,
            )
            proc.start()
            procs.append(proc)
            # only the worker holds the send end now, so its end reads as EOF
            send.close()
        found = []
        for j, (proc, receive) in enumerate(zip(procs, receivers)):
            try:
                ok, value = receive.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(
                    f"sweep worker {j} ended with exit code {proc.exitcode} "
                    "before sending its results"
                ) from None
            if not ok:
                raise value
            found += value
        return sorted(found)
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
            proc.close()
        for receive in receivers:
            receive.close()


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_sweep(
    max_n: int = 4,
    max_m: int = 5,
    seed: Optional[int] = None,
    suites: Optional[Iterable[int]] = None,
    progress: Optional[Callable[[int], None]] = None,
) -> SweepResult:
    """Check every signed graph up to the size bounds, which must be
    max_n >= 1 and max_m >= 0.

    A seed shuffles the (otherwise deterministic) graph order, which only
    affects which counterexample is reported first.

    A graph is known by its rank in `oracle.SignedGraphOrder`, and the graph
    order is a sequence of ranks: `range(N)`, or, with a seed, an array of
    4 bytes per rank shuffled once.  The graphs are checked in blocks of
    BLOCK positions of that order.  Each block is split by position modulo
    w across w worker processes forked for that block, one per usable CPU;
    each decodes its own graphs from their ranks and sends back only its
    failures, which are merged in position order: the result is the one a
    single process gives.  A worker's exception is raised here, and a worker
    that ends without reporting raises RuntimeError naming its exit code;
    either way every worker is stopped and reaped before the call returns.
    `progress` is called after each full block, when no worker is running.
    With one usable CPU, without the fork start method, or inside a daemonic
    process (which may not have children), the blocks are checked in this
    process.  This process holds no graphs and builds one only for a
    counterexample.
    """
    # here, not at import: `multiprocessing` takes tens of ms to import, and
    # `array` is a shared library that only a seeded order needs
    import multiprocessing
    from array import array

    # a bad selection or bound fails here, before any worker starts
    suites = _chosen(suites)
    if max_n < 1 or max_m < 0:
        raise ValueError(f"max_n must be >= 1 and max_m >= 0, not {max_n} and {max_m}")
    graphs = oracle.SignedGraphOrder(max_n, max_m)
    order = range(len(graphs))
    if seed is not None:
        # the shuffle's draws depend on the length alone, so this is the
        # order a shuffled list of the graphs would have
        order = array("I", order)
        random.Random(seed).shuffle(order)
    w = _usable_cpus()
    if (
        "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        w = 1
    ctx = multiprocessing.get_context("fork") if w > 1 else None
    result = SweepResult(workers=w)
    for lo in range(0, len(order), BLOCK):
        hi = min(lo + BLOCK, len(order))
        if ctx is None:
            failing = _check_positions(graphs, order, range(lo, hi), suites)
        else:
            failing = _check_block(ctx, graphs, order, lo, hi, suites, w)
        for position, found in failing:
            n, triples = graphs[order[position]]
            g = SignedGraph.from_triples(n, triples)
            for suite, message in found:
                result.failure_counts[suite] = result.failure_counts.get(suite, 0) + 1
                result.first_failure.setdefault(suite, Violation(suite, message, g))
        result.graphs_checked = hi
        if progress is not None and hi % BLOCK == 0:
            progress(hi)
    return result

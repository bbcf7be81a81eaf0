"""Exhaustive verification of the theory's claims on all small signed graphs.

Each numbered suite pits the analysis modules against the independent
brute-force oracles; `run_sweep` drives the generator, checks the graphs on
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

    This table and the two below depend on m alone, so each is built once
    per edge count in a process and read by every graph with that many
    edges.  They hold no graph data, and there are at most max_m + 1 of
    each."""
    return tuple(tuple(e for e in range(m) if mask >> e & 1) for mask in range(1 << m))


@cache
def _steps(m: int) -> tuple[tuple[int, int, int], ...]:
    """(mask, e, mask + e) for every mask on m elements and every element e
    outside it, by increasing mask, then increasing e."""
    members, full = _members(m), (1 << m) - 1
    return tuple(
        (mask, e, mask | 1 << e) for mask in range(1 << m) for e in members[full ^ mask]
    )


@cache
def _quadruples(m: int) -> tuple[tuple[int, int, int, int, int, int], ...]:
    """(S, e, f, S+e, S+f, S+e+f) for every mask S on m elements and all
    elements e < f outside it, by increasing S, then e, then f."""
    members, full = _members(m), (1 << m) - 1
    out = []
    for mask in range(1 << m):
        rest = members[full ^ mask]
        for i, e in enumerate(rest):
            for f in rest[i + 1:]:
                out.append((mask, e, f, mask | 1 << e, mask | 1 << f, mask | 1 << e | 1 << f))
    return tuple(out)


def _rank_table(m: int, circuit_masks: Iterable[int]) -> list[int]:
    """rank[mask] from the circuits, given as nonempty masks: the size of a
    largest subset of the mask that contains no circuit.

    A mask that contains a circuit has the rank of its best one-element
    deletion; any other mask is independent, of rank its size, one more
    than its best deletion.  One forward pass over `_steps` closes the
    circuit marks under supersets and carries each rank up to the masks one
    element larger.  Every step goes from a mask to a larger one, so when
    the pass leaves a mask, every step into it has been taken: its mark and
    its best deletion are final.
    """
    size = 1 << m
    dependent = [False] * size
    for cm in circuit_masks:
        dependent[cm] = True
    best = [-1] * size  # the largest rank of a one-element deletion; -1: none
    for mask, _, up in _steps(m):
        if dependent[mask]:
            dependent[up] = True
            rank = best[mask]
        else:
            rank = best[mask] + 1
        if rank > best[up]:
            best[up] = rank
    return [b if d else b + 1 for b, d in zip(best, dependent)]


def _unit_increase_violation(tab: list[int]) -> Optional[tuple[int, int]]:
    """The first (S, e), S a mask and e an element outside it, with r(S+e)
    neither r(S) nor r(S) + 1; None if the set function `tab` has none."""
    for mask, e, up in _steps(len(tab).bit_length() - 1):
        if not tab[mask] <= tab[up] <= tab[mask] + 1:
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
    for mask, e, f, with_e, with_f, with_ef in _quadruples(len(tab).bit_length() - 1):
        if tab[with_e] + tab[with_f] < tab[with_ef] + tab[mask]:
            return mask, e, f
    return None


def _check_suite_1(g: SignedGraph, fail):
    expected = (is_connected(g) and not is_balanced(g)) or g.n == 1
    sign_connected = is_sign_connected(g)
    if sign_connected != expected:
        fail(f"is_sign_connected={sign_connected}, expected {expected}")
    got = set(sign_components(g).classes)
    want = set(oracle.brute_sign_components(g))
    if got != want:
        fail(f"sign components {got} != reachability classes {want}")


def _check_suite_2(g: SignedGraph, fail):
    if is_balanced(g):
        return
    want = oracle.brute_balancing_edges(g)
    balancing = balancing_edges(g)
    if balancing != want:
        fail(f"balancing edges {sorted(balancing)} != deletion oracle {sorted(want)}")
        return
    if not is_connected(g):
        return
    for eid in range(g.m):
        rep = _balancing_edge_conditions(g, eid)
        if len(set(rep)) != 1:
            fail(f"edge {eid}: conditions disagree {rep}")
            return


def _balancing_edge_conditions(g: SignedGraph, eid: int) -> tuple[bool, ...]:
    """The five equivalent characterizations of a balancing edge on a
    connected unbalanced graph, evaluated independently of each other:
    deleting the edge balances the graph; it lies on every negative cycle;
    on every negative cycle and on no positive one; it is no isthmus and its
    sign differs from that of the chains between its ends once it is
    deleted; switching can make it the lone negative edge.  The cycles are
    the oracle's."""
    e = g.edge(eid)

    without = g.subgraph_of_edges(f for f in range(g.m) if f != eid)
    rest = without.spine
    cond1 = not rest.frustrated

    cycles = oracle.brute_cycles(g)
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


def _check_suite_3(g: SignedGraph, fail):
    if not is_sign_connected(g) or g.n <= 1:
        return
    want = oracle.brute_sign_isthmi(g)
    si = sign_isthmi(g)
    if si != want:
        fail(f"sign isthmi {sorted(si)} != deletion oracle {sorted(want)}")
        return
    expected = structure.block_decomposition(g).bridges | balancing_edges(g)
    if expected != want:
        fail(f"isthmi union balancing edges {sorted(expected)} != sign isthmi {sorted(want)}")
        return
    got = sign_articulation_vertices(g)
    want = oracle.brute_sign_articulation_vertices(g)
    if got != want:
        fail(f"sign articulation vertices {sorted(got)} != deletion oracle {sorted(want)}")


def _check_suite_4(g: SignedGraph, fail):
    m = g.m
    frame_set = set(oracle.enumerate_frame_circuits(g))
    lift_set = set(oracle.enumerate_lift_circuits(g))
    frame_masks = {sum(1 << e for e in c) for c in frame_set}
    lift_masks = {sum(1 << e for e in c) for c in lift_set}
    frame_tab = _rank_table(m, frame_masks)
    lift_tab = _rank_table(m, lift_masks)
    frame_lib = [0] * (1 << m)
    lift_lib = [0] * (1 << m)
    for mask, subset in enumerate(_members(m)):
        fr = matroid.frame_rank(g, subset)
        lr = matroid.lift_rank(g, subset)
        frame_lib[mask], lift_lib[mask] = fr, lr
        if fr != frame_tab[mask] or lr != lift_tab[mask]:
            fail(
                f"rank mismatch on {list(subset)}: frame {fr} vs {frame_tab[mask]}, "
                f"lift {lr} vs {lift_tab[mask]}"
            )
            return
        cls = matroid.classify_circuit(g, subset)
        if cls.in_frame != (mask in frame_masks) or cls.in_lift != (mask in lift_masks):
            fail(f"classify_circuit({list(subset)}) = {cls.verdict} disagrees with oracle")
            return
    for tab, label in ((frame_lib, "frame"), (lift_lib, "lift")):
        if tab[0] != 0:
            fail(f"{label} rank of empty set is {tab[0]}")
            return
        broken = _unit_increase_violation(tab)
        if broken is not None:
            fail(f"{label} rank not unit-increasing at {broken[0]}+{broken[1]}")
            return
        broken = _submodularity_violation(tab)
        if broken is not None:
            fail(f"{label} rank not submodular at {broken[0]}+{broken[1]}+{broken[2]}")
            return
    in_frame_circuit = set().union(*frame_set) if frame_set else set()
    in_lift_circuit = set().union(*lift_set) if lift_set else set()
    fi, li = matroid.frame_isthmi(g), matroid.lift_isthmi(g)
    if fi != frozenset(range(m)) - in_frame_circuit:
        fail(f"frame coloops {sorted(fi)} != circuit-free edges")
        return
    if li != frozenset(range(m)) - in_lift_circuit:
        fail(f"lift coloops {sorted(li)} != circuit-free edges")
        return
    if set(matroid.frame_components(g).classes) != set(oracle.circuit_closure(m, frame_set)):
        fail("frame components differ from circuit closure")
        return
    if set(matroid.lift_components(g).classes) != set(oracle.circuit_closure(m, lift_set)):
        fail("lift components differ from circuit closure")


def _check_suite_5(g: SignedGraph, fail):
    sign_connected = is_sign_connected(g)
    # frame connection implies sign connection -- on unbalanced graphs; a
    # balanced graph can be frame connected (one positive cycle) while its
    # sign components are singletons, so the balanced case is excluded.
    if not is_balanced(g) or g.n == 1:
        if matroid.is_frame_connected(g) and not sign_connected:
            fail("frame connected but not sign connected")
            return
        if matroid.is_lift_connected(g):
            for comp in connected_components(g):
                if len(comp) > 1:
                    sub = _induced(g, comp)
                    if not is_sign_connected(sub):
                        fail("lift connected but a component is not sign connected")
                        return
    if not sign_connected or g.n <= 1:
        return
    si, fi, li = sign_isthmi(g), matroid.frame_isthmi(g), matroid.lift_isthmi(g)
    if not fi <= si:
        fail(f"frame isthmus outside sign isthmi {sorted(fi - si)}")
        return
    if not li <= si:
        fail(f"lift isthmus outside sign isthmi {sorted(li - si)}")
        return
    if not si <= li:
        fail(f"sign isthmus that is no lift isthmus {sorted(si - li)}")
        return
    # bridge sign isthmi: sides both sign connected iff not a frame isthmus,
    # iff both sides unbalanced -- provided neither side is a single vertex
    # (a lone vertex counts as sign connected yet makes the bridge a frame
    # isthmus, so it is excluded).
    for eid in structure.block_decomposition(g).bridges & si:
        without = g.subgraph_of_edges(f for f in range(g.m) if f != eid)
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


def _check_suite_6(g: SignedGraph, fail):
    cycles = oracle.brute_cycles(g)
    contra = structure.is_contrabalanced(g)
    no_pos = all(s == -1 for _, s in cycles)
    if contra != no_pos:
        fail(f"is_contrabalanced={contra} but positive-cycle-free={no_pos}")
        return
    cactus = structure.is_cactus_forest(g)
    theta = structure.contains_theta(g)
    if cactus != (theta is None):
        fail(f"cactus={cactus} but theta={'found' if theta else 'none'}")
        return
    if theta is not None:
        defect = _theta_defect(g, theta)
        if defect:
            fail(f"theta {theta}: {defect}")
            return
        pos = _theta_positive_count(g, theta)
        if pos % 2 == 0:
            fail(f"theta {theta} has an even number ({pos}) of positive cycles")
            return
    if not contra:
        return
    ncyc = len(cycles)
    connected = is_connected(g)
    bridges = structure.block_decomposition(g).bridges
    if connected and g.n >= 2:
        sign_connected = is_sign_connected(g)
        if sign_connected != (ncyc >= 1):
            fail(f"contrabalanced: sign connected={sign_connected}, cycles={ncyc}")
            return
        if ncyc == 1 and sign_isthmi(g) != frozenset(range(g.m)):
            fail("one cycle but not every edge is a sign isthmus")
            return
        if ncyc >= 2 and sign_isthmi(g) != bridges:
            fail("several cycles but sign isthmi differ from isthmi")
            return
    if connected and g.m >= 2:
        pendant = any(len(g.adjacency[v]) == 1 and g.adjacency[v][0].u != g.adjacency[v][0].v
                      for v in range(g.n))
        cond = ncyc >= 2 and not pendant
        fconn = matroid.is_frame_connected(g)
        fi = matroid.frame_isthmi(g)
        fempty = not fi
        if not (fconn == fempty == cond):
            fail(f"frame connection triple ({fconn},{fempty},{cond}) not equal")
            return
        if ncyc < 2 and fi != frozenset(range(g.m)):
            fail("fewer than two cycles but not every edge is a frame isthmus")
            return
    no_isolated = all(g.adjacency[v] for v in range(g.n))
    if g.m >= 2 and no_isolated:
        cond = ncyc >= 2 and not bridges
        lconn = matroid.is_lift_connected(g)
        li = matroid.lift_isthmi(g)
        lempty = not li
        if not (lconn == lempty == cond):
            fail(f"lift connection triple ({lconn},{lempty},{cond}) not equal")
            return
        if ncyc < 2 and li != frozenset(range(g.m)):
            fail("fewer than two cycles but not every edge is a lift isthmus")


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


def _check_suite_7(g: SignedGraph, fail):
    got = is_parity_connected(g)
    if g.n == 1:
        expected = True
    else:
        expected = is_connected(g) and not oracle.brute_is_bipartite(g)
    if got != expected:
        fail(f"is_parity_connected={got}, expected {expected}")


def _check_suite_8(g: SignedGraph, fail):
    if set(positive_components(g).classes) != set(oracle.brute_positive_components(g)):
        fail("positive components differ from positive reachability classes")
        return
    if set(negative_components(g).classes) != set(oracle.brute_negative_components(g)):
        fail("negative components differ from closed negative reachability classes")


def _check_suite_9(g: SignedGraph, fail):
    qb = matroid.is_quasibalanced(g)
    if qb != oracle.brute_is_quasibalanced(g):
        fail(f"is_quasibalanced={qb} disagrees with pairwise intersection test")
        return
    unbal_blocks = sum(1 for b in structure.block_decomposition(g).blocks if not b.balanced)
    if unbal_blocks >= 2 and qb:
        fail("two unbalanced blocks but reported quasibalanced")
        return
    if unbal_blocks == 0 and not qb:
        fail("no unbalanced block but reported not quasibalanced")
        return
    if is_connected(g) and qb:
        coloops = matroid.frame_isthmi(g) & matroid.lift_isthmi(g)
        for e in g.edges:
            if e.u == e.v and e.sign == -1:
                if e.id not in coloops:
                    fail(f"negative loop {e.id} not a frame+lift coloop")
                    return
    # a sign-connected graph with an edge splitting it into two sign-connected
    # pieces that are unbalanced (size > 1 or negative loop) is not
    # quasibalanced; deletion must actually disconnect, otherwise the single
    # remaining piece may hold the only negative cycle
    sign_connected = is_sign_connected(g)
    if sign_connected and not qb:
        return
    if sign_connected:
        for eid in range(g.m):
            without = g.subgraph_of_edges(f for f in range(g.m) if f != eid)
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
    """All suite violations on one graph (at most one per suite)."""
    out: list[Violation] = []
    for suite in _chosen(suites):
        msgs: list[str] = []
        _CHECKS[suite](g, msgs.append)
        for msg in msgs:
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
    """Check every signed graph up to the size bounds.

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

    suites = _chosen(suites)  # a bad selection fails here, before any worker starts
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

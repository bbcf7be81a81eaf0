"""A graph as edge columns and a plain-tuple incidence.

Every hot loop that now reads `g._u`, `g._v`, `g._sign` or the incidence
`(edge id, other end, sign)` is checked here against its body as it read
`Edge` tuples (`g.edges`, and the `Edge` adjacency that `edge_adjacency`
rebuilds), on all 64,480 graphs with n <= 4 and m <= 5 and on 1,000 seeded
multigraphs with up to 30 vertices.  `parse` and `from_triples` are checked
against their bodies as they built `Edge`s, value by value and error by error.
"""

import pickle
import random
from itertools import islice
from types import SimpleNamespace

import pytest

from signedconn import (
    Edge,
    GraphSyntaxError,
    SignedGraph,
    VertexOutOfRange,
    _cycles,
    matroid,
    oracle,
    structure,
)
from signedconn.balance import balancing_vertices
from signedconn.core import _Spine, _vertex_set, switch
from signedconn.errors import EdgeOutOfRange
from signedconn.io import FIXTURE_NAMES, _HEADER, _MAX_N, _SIGNS, emit, fixture, parse
from signedconn.sign_connectivity import (
    ComponentPartition,
    _sorted_classes,
    connected_components,
    negative_components,
    positive_components,
)
from signedconn.structure import BlockDecomposition, Core, _ring_order

from conftest import edge_adjacency

# -- the bodies as they read Edge tuples ----------------------------------------


def _from_triples_ref(n, triples):
    make = Edge._make
    return tuple([make((i, u, v, s)) for i, (u, v, s) in enumerate(triples)])


def _parse_ref(text):
    """`io.parse` as it collected triples for `from_triples`: (n, triples)."""
    n = None
    triples = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        parts = rawline.split()
        if not parts or parts[0][0] == "#":
            continue
        if n is None:
            line = rawline.strip()
            if not line.startswith(_HEADER):
                raise GraphSyntaxError(lineno, f"expected header '{_HEADER}<int>'")
            try:
                n = int(line[len(_HEADER):])
            except ValueError:
                raise GraphSyntaxError(lineno, f"bad vertex count in {line!r}") from None
            if n < 0:
                raise GraphSyntaxError(lineno, "vertex count must be nonnegative")
            if n > _MAX_N:
                raise GraphSyntaxError(lineno, f"vertex count {n} exceeds {_MAX_N}")
            continue
        if len(parts) != 3 or parts[2] not in _SIGNS:
            raise GraphSyntaxError(lineno, f"expected '<u> <v> <+|->', got {rawline.strip()!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphSyntaxError(lineno, f"bad vertex in {rawline.strip()!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            err = VertexOutOfRange(f"line {lineno}: vertex out of range in {rawline.strip()!r}")
            err.line = lineno
            raise err
        triples.append((u, v, _SIGNS[parts[2]]))
    if n is None:
        raise GraphSyntaxError(1, "empty file, expected header")
    return n, triples


def _spine_ref(g):
    n = g.n
    adjacency = edge_adjacency(g)
    comp = [-1] * n
    parent = [-1] * n
    parent_edge = [-1] * n
    disc = [-1] * n
    depth = [0] * n
    low = [0] * n
    pot = [0] * n
    order, nontree, frustrated, comp_frustrated = [], [], [], []
    for root in range(n):
        if disc[root] != -1:
            continue
        c = len(comp_frustrated)
        before = len(frustrated)
        comp[root] = c
        disc[root] = low[root] = len(order)
        order.append(root)
        pot[root] = 1
        stack = [(root, iter(adjacency[root]))]
        while stack:
            v, edges = stack[-1]
            for eid, a, b, sign in edges:
                w = b if a == v else a
                if disc[w] == -1:
                    comp[w] = c
                    parent[w] = v
                    parent_edge[w] = eid
                    disc[w] = low[w] = len(order)
                    depth[w] = depth[v] + 1
                    order.append(w)
                    pot[w] = pot[v] * sign
                    stack.append((w, iter(adjacency[w])))
                    break
                if disc[w] > disc[v] or eid == parent_edge[v]:
                    continue
                nontree.append((eid, v, w))
                if pot[v] * pot[w] != sign:
                    frustrated.append((eid, v, w))
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    p = stack[-1][0]
                    if low[v] < low[p]:
                        low[p] = low[v]
        comp_frustrated.append(len(frustrated) - before)
    return SimpleNamespace(
        comp=comp, parent=parent, parent_edge=parent_edge, order=order, disc=disc,
        depth=depth, low=low, pot=pot, nontree=nontree, frustrated=frustrated,
        comp_frustrated=comp_frustrated,
    )


def _balancing_vertices_ref(g):
    sp = g.spine
    k = sp.comp_frustrated
    n = g.n
    on_path = [0] * n
    for _, d, a in sp.frustrated:
        on_path[d] += 1
        if sp.parent[a] >= 0:
            on_path[sp.parent[a]] -= 1
    on_path = sp.subtree_sums(on_path)
    up = [[] for _ in range(n)]
    for eid, d, a in sp.nontree:
        if d != a:
            up[d].append((a, sp.pot[d] * sp.pot[a] != g.edges[eid].sign))
    depth = sp.depth
    path = [0] * n
    above = [0] * n
    f_above = [0] * n
    for v in sp.order:
        path[depth[v]] = v
        for a, frustrated in up[v]:
            toward = path[depth[a] + 1]
            above[v] += 1
            above[toward] -= 1
            if frustrated:
                f_above[v] += 1
                f_above[toward] -= 1
    above = sp.subtree_sums(above)
    f_above = sp.subtree_sums(f_above)
    mixed = {sp.parent[c] for c in range(n) if 0 < f_above[c] < above[c]}
    return frozenset(
        x for x in range(n) if k[sp.comp[x]] and on_path[x] == k[sp.comp[x]] and x not in mixed
    )


def _necklace_constituents_ref(g, block_edges, block_vertices, S):
    S = S.intersection(block_vertices)
    if len(S) < 2:
        return None
    adjacency = edge_adjacency(g)
    groups = {}
    for a in S:
        for eid, p, q, sign in adjacency[a]:
            b = q if p == a else p
            if a < b and b in S:
                groups.setdefault((a, b, sign), set()).add(eid)
    pot = {}
    for root in block_vertices:
        if root in S or root in pot:
            continue
        pot[root] = 1
        bridge = set()
        ends = {}
        stack = [root]
        while stack:
            v = stack.pop()
            for eid, p, q, sign in adjacency[v]:
                if eid not in block_edges:
                    continue
                w = q if p == v else p
                bridge.add(eid)
                if w in S:
                    ends[w] = pot[v] * sign
                elif w not in pot:
                    pot[w] = pot[v] * sign
                    stack.append(w)
        a, b = sorted(ends)
        key = (a, b, ends[a] * ends[b])
        if key in groups:
            groups[key] |= bridge
        else:
            groups[key] = bridge
    if len(groups) < 2:
        return None
    return _ring_order(groups)


def _block_decomposition_ref(g):
    sp = g.spine
    k = sp.comp_frustrated
    below = [0] * g.n
    hang = [0] * g.n
    for _, d, a in sp.frustrated:
        below[d] += 1
        if d == a:
            hang[d] += 1
    below = sp.subtree_sums(below)
    block_of = [-1] * g.n
    cut = set()
    opened_at, edges, verts = [], [], []
    for c in sp.order:
        p = sp.parent[c]
        if p < 0:
            continue
        if sp.low[c] >= sp.disc[p]:
            if sp.parent[p] >= 0 or sp.disc[c] > sp.disc[p] + 1:
                cut.add(p)
            block_of[c] = len(opened_at)
            opened_at.append(c)
            edges.append([])
            verts.append([p])
            hang[p] += below[c]
        else:
            block_of[c] = block_of[p]
        edges[block_of[c]].append(sp.parent_edge[c])
        verts[block_of[c]].append(c)
    unbalanced = [False] * len(opened_at)
    rows = []
    articulation = set(cut)
    adjacency = edge_adjacency(g)
    for eid, d, a in sp.nontree:
        if d != a:
            edges[block_of[d]].append(eid)
            continue
        negative = g.edges[eid].sign == -1
        rows.append(([eid], [d], not negative, negative, sp.comp[d]))
        if len(adjacency[d]) >= 2:
            articulation.add(d)
    for _, d, a in sp.frustrated:
        if d != a:
            unbalanced[block_of[d]] = True
    sides = [int(k[sp.comp[c]] > below[c]) for c in opened_at]
    for v in sp.order:
        if block_of[v] >= 0 and hang[v]:
            sides[block_of[v]] += 1
    rows += [
        (edges[i], verts[i], not unbalanced[i], unbalanced[i] or sides[i] >= 2, sp.comp[c])
        for i, c in enumerate(opened_at)
    ]
    for v in range(g.n):
        if not adjacency[v]:
            rows.append(([], [v], True, False, sp.comp[v]))
    inner_by_comp = [[] for _ in k]
    for row in rows:
        if row[3]:
            inner_by_comp[row[4]].append(row)
    cores = []
    for i, inner in enumerate(inner_by_comp):
        if not k[i]:
            continue
        core_edges = frozenset([eid for row in inner for eid in row[0]])
        necklace = None
        if len(inner) == 1:
            necklace = _necklace_constituents_ref(g, core_edges, inner[0][1], balancing_vertices(g))
        cores.append(Core(i, core_edges, necklace))
    bridges = frozenset(es[0] for es in edges if len(es) == 1)
    return BlockDecomposition(
        tuple(rows), frozenset(articulation), frozenset(cut), tuple(cores), bridges
    )


def _is_contrabalanced_ref(g):
    for es, vs, _, _, _ in structure.block_decomposition(g).rows:
        if len(es) != len(vs) or not es:
            if len(es) > 1:
                return False
            continue
        sign = 1
        for eid in es:
            sign *= g.edges[eid].sign
        if sign == +1:
            return False
    return True


def _negative_flags_ref(g):
    sp = g.spine
    flags = [False] * len(sp.comp_frustrated)
    for e in g.edges:
        if e.sign == -1:
            flags[sp.comp[e.u]] = True
    return flags


def _positive_components_ref(g):
    sp = g.spine
    classes = []
    for comp, frustrated, has_negative in zip(
        connected_components(g), sp.comp_frustrated, _negative_flags_ref(g)
    ):
        if frustrated or not has_negative:
            classes.append(comp)
            continue
        switched = frozenset(v for v in comp if sp.pot[v] == -1)
        classes.append(comp - switched)
        classes.append(switched)
    return ComponentPartition("positive", _sorted_classes(classes))


def _negative_components_ref(g):
    sp = g.spine
    classes = []
    for comp, frustrated, has_negative in zip(
        connected_components(g), sp.comp_frustrated, _negative_flags_ref(g)
    ):
        if frustrated or has_negative:
            classes.append(comp)
        else:
            classes.extend(frozenset([v]) for v in comp)
    return ComponentPartition("negative", _sorted_classes(classes))


def _coloops_ref(g, components):
    out = set()
    for cls in components.classes:
        if len(cls) == 1:
            (eid,) = cls
            _, u, v, sign = g.edges[eid]
            if u != v or sign == -1:
                out.add(eid)
    return frozenset(out)


def _vertex_set_ref(g, edge_ids):
    out = set()
    for eid in edge_ids:
        out.add(g.edges[eid].u)
        out.add(g.edges[eid].v)
    return out


def _parity_forest_ref(g, edge_ids):
    edges, n = g.edges, g.n
    m = len(edges)
    parent = list(range(n))
    parity = [0] * n
    unbalanced = [False] * n
    forest = bad = 0
    for eid in edge_ids:
        if not 0 <= eid < m:
            raise EdgeOutOfRange(f"edge id {eid} out of range")
        _, u, v, sign = edges[eid]
        odd = sign == -1
        while parent[u] != u:
            up = parent[u]
            parity[u] ^= parity[up]
            odd ^= parity[u]
            parent[u] = u = parent[up]
        while parent[v] != v:
            up = parent[v]
            parity[v] ^= parity[up]
            odd ^= parity[v]
            parent[v] = v = parent[up]
        if u != v:
            parent[u] = v
            parity[u] = odd
            forest += 1
            bad -= unbalanced[u] and unbalanced[v]
            unbalanced[v] |= unbalanced[u]
        elif odd and not unbalanced[u]:
            unbalanced[u] = True
            bad += 1
    return forest, bad, parent, parity


def _has_partner_ref(g, block, cycle):
    on_cycle = _vertex_set_ref(g, cycle)
    free = []
    attached = []
    edges = g.edges
    for eid in block - cycle:
        _, u, v, sign = edges[eid]
        if u not in on_cycle and v not in on_cycle:
            free.append(eid)
        elif u not in on_cycle:
            attached.append((v, u, sign == -1))
        elif v not in on_cycle:
            attached.append((u, v, sign == -1))
    _, unbalanced, parent, parity = _parity_forest_ref(g, free)
    if unbalanced:
        return True
    reached = {}
    for x, w, odd in attached:
        while parent[w] != w:
            up = parent[w]
            parity[w] ^= parity[up]
            odd ^= parity[w]
            parent[w] = w = parent[up]
        if reached.setdefault((x, w), odd) != odd:
            return True
    return False


def _classify_circuit_ref(g, edge_ids):
    F = frozenset(edge_ids)
    edges = g.edges
    m = len(edges)
    degree = {}
    for eid in F:
        if not 0 <= eid < m:
            raise EdgeOutOfRange(f"edge id {eid} out of range")
        _, u, v, _ = edges[eid]
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    if not 0 <= len(F) - len(degree) <= 1 or 1 in degree.values():
        return matroid._NOT_A_CIRCUIT
    ends = {v: [] for v in degree}
    for eid in F:
        _, u, v, _ = edges[eid]
        ends[u].append(eid)
        ends[v].append(eid)
    used = set()
    closed = []
    chains = []
    branches = [v for v, es in ends.items() if len(es) > 2]
    for v in branches + list(ends):
        for eid in ends[v]:
            if eid not in used:
                end, run, sign = _run_ref(g, ends, v, eid)
                used |= run
                if end == v:
                    closed.append((run, sign))
                else:
                    chains.append(run)
    Verdict, Classification = matroid.CircuitVerdict, matroid.CircuitClassification
    if closed == [(F, 1)]:
        return Classification(Verdict.POSITIVE_CYCLE, (F,))
    if len(closed) != 2 or len(chains) > 1 or any(sign == 1 for _, sign in closed):
        return matroid._NOT_A_CIRCUIT
    cycles = tuple(sorted((c for c, _ in closed), key=lambda c: (len(c), sorted(c))))
    if chains:
        return Classification(Verdict.LOOSE_HANDCUFF, cycles, chains[0])
    verdict = Verdict.TIGHT_HANDCUFF if branches else Verdict.DISJOINT_PAIR
    return Classification(verdict, cycles)


def _run_ref(g, ends, start, eid):
    edges, run, sign, v = g.edges, [], 1, start
    while True:
        run.append(eid)
        _, x, y, s = edges[eid]
        sign *= s
        v = y if v == x else x
        if v == start or len(ends[v]) != 2:
            return v, frozenset(run), sign
        a, b = ends[v]
        eid = b if a == eid else a


def _iter_cycles_ref(g, edge_ids=None):
    """`_cycles.iter_cycles` with no budget, as it kept `Edge`s per vertex."""
    allowed = set(range(g.m)) if edge_ids is None else set(edge_ids)
    adj = [[] for _ in range(g.n)]
    loops = [[] for _ in range(g.n)]
    for eid in allowed:
        e = g.edges[eid]
        if e.u == e.v:
            loops[e.u].append(e)
        else:
            adj[e.u].append(e)
            adj[e.v].append(e)
    found = set()
    for v in range(g.n):
        for e in loops[v]:
            if frozenset([e.id]) not in found:
                found.add(frozenset([e.id]))
                yield frozenset([e.id]), e.sign
    for root in range(g.n):
        stack = [(root, frozenset([root]), (), 1)]
        while stack:
            at, used_v, used_e, sign = stack.pop()
            for e in adj[at]:
                w = e.other(at)
                if e.id in used_e:
                    continue
                if w == root:
                    if len(used_e) >= 1:
                        cycle = frozenset(used_e) | {e.id}
                        if cycle not in found:
                            found.add(cycle)
                            yield cycle, sign * e.sign
                elif w > root and w not in used_v:
                    stack.append((w, used_v | {w}, used_e + (e.id,), sign * e.sign))


def _switch_ref(g, w_set):
    ws = set(w_set)
    triples = []
    for e in g.edges:
        flip = (e.u in ws) != (e.v in ws)
        triples.append((e.u, e.v, -e.sign if flip else e.sign))
    return SignedGraph.from_triples(g.n, triples)


# -- the comparison ---------------------------------------------------------------

_SPINE_FIELDS = _Spine.__slots__


def _check_against_references(g, subsets):
    """Every rewritten loop on g against its reference; `subsets` are the
    edge sets to classify and to run the parity forest on."""
    assert g.edges == _from_triples_ref(g.n, zip(g._u, g._v, g._sign))
    assert g.adjacency == tuple(
        tuple((e.id, e.other(v), e.sign) for e in edges) for v, edges in enumerate(edge_adjacency(g))
    )
    spine, want = g.spine, _spine_ref(g)
    assert all(getattr(spine, name) == getattr(want, name) for name in _SPINE_FIELDS)
    assert balancing_vertices(g) == _balancing_vertices_ref(g)
    dec, want = structure.block_decomposition(g), _block_decomposition_ref(g)
    assert dec.rows == want.rows and dec.cores == want.cores
    assert (dec.articulation_vertices, dec.cut_vertices, dec.bridges) == (
        want.articulation_vertices, want.cut_vertices, want.bridges
    )
    assert structure.is_contrabalanced(g) == _is_contrabalanced_ref(g)
    assert positive_components(g) == _positive_components_ref(g)
    assert negative_components(g) == _negative_components_ref(g)
    for components in (matroid.frame_components(g), matroid.lift_components(g)):
        assert matroid._coloops(g, components) == _coloops_ref(g, components)
    for es in subsets:
        assert matroid.classify_circuit(g, es) == _classify_circuit_ref(g, es)
        assert matroid._parity_forest(g, es) == _parity_forest_ref(g, es)
        assert _vertex_set(g, es) == _vertex_set_ref(g, es)
    for es, _, balanced, _, _ in dec.rows:
        if not balanced:  # the first 30 cycles of each unbalanced block, in order
            block = frozenset(es)
            block_cycles = list(islice(_cycles.iter_cycles(g, block), 30))
            assert block_cycles == list(islice(_iter_cycles_ref(g, block), 30))
            for cycle, _ in block_cycles:
                assert matroid._has_partner(g, block, cycle) == _has_partner_ref(g, block, cycle)
                assert matroid.classify_circuit(g, cycle) == _classify_circuit_ref(g, cycle)
    assert switch(g, range(0, g.n, 2)) == _switch_ref(g, range(0, g.n, 2))
    assert parse(emit(g)) == g and _parse_ref(emit(g)) == (g.n, list(zip(g._u, g._v, g._sign)))


def test_the_hot_loops_match_their_references_on_every_small_graph():
    count = 0
    for k, g in enumerate(oracle.generate_signed_graphs(4, 5)):
        every = range(g.m)
        subsets = [every] + [[f for f in every if f != eid] for eid in every]
        if k % 16 == 0:  # and every edge subset on one graph in 16
            subsets = [[f for f in every if mask >> f & 1] for mask in range(1 << g.m)]
        _check_against_references(g, subsets)
        count += 1
    assert count == 64_480


def _seeded_multigraphs(count, seed, max_n):
    """n from 1 to max_n, m from 0 to 2n + 3, loops and parallel edges."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, max_n)
        m = rng.randint(0, 2 * n + 3)
        yield SignedGraph.from_triples(
            n, [(rng.randrange(n), rng.randrange(n), rng.choice((1, -1))) for _ in range(m)]
        )


def test_the_hot_loops_match_their_references_on_seeded_multigraphs():
    rng = random.Random(7)
    for g in _seeded_multigraphs(1000, 25, 30):
        every = list(range(g.m))
        subsets = [every] + [rng.sample(every, rng.randint(0, g.m)) for _ in range(5)]
        _check_against_references(g, subsets)


def _parse_outcome(fn, text):
    try:
        return fn(text)
    except (GraphSyntaxError, VertexOutOfRange) as err:
        return type(err), str(err), err.line


_BAD_LINES = ["0 1", "0 1 + +", "0 1 *", "a 1 +", "0 b -", "0 9 +", "-1 0 -", "1.0 0 +", "0 0 -"]


def test_parse_matches_its_reference_value_by_value_and_error_by_error():
    rng = random.Random(3)
    texts = [emit(fixture(name)) for name in FIXTURE_NAMES]
    texts += ["", "# only a comment\n", "signed-graph n=x\n", "signed-graph n=-1\n", "0 1 +\n"]
    for _ in range(500):
        n = rng.randint(0, 6)
        lines = rng.sample(["", "  # c", "\t"], rng.randint(0, 2)) + [f"signed-graph n={n}"]
        for _ in range(rng.randint(0, 8)):
            if rng.random() < 0.05:
                lines.append(rng.choice(_BAD_LINES))
            elif n and rng.random() < 0.9:
                lines.append(f" {rng.randrange(n)}\t{rng.randrange(n)} {rng.choice('+-')} ")
            else:
                lines.append(rng.choice(["", "# c", "   "]))
        texts.append("\n".join(lines) + rng.choice(["", "\n"]))
    for text in texts:
        got, want = _parse_outcome(parse, text), _parse_outcome(_parse_ref, text)
        if isinstance(want, tuple) and isinstance(want[0], type):
            assert got == want, text
        else:
            n, triples = want
            assert got == SignedGraph.from_triples(n, triples), text
            assert got.edges == _from_triples_ref(n, triples)


# -- the graph object ---------------------------------------------------------------


def test_edges_are_built_on_first_access_and_kept():
    g = SignedGraph.from_triples(3, [(0, 1, 1), (2, 2, -1)])
    assert "edges" not in vars(g) and g.m == 2
    assert g.edges == (Edge(0, 0, 1, 1), Edge(1, 2, 2, -1)) and g.edges is g.edges
    assert g.edge(1) == Edge(1, 2, 2, -1) and type(g.edge(1)) is Edge


def test_the_incidence_holds_plain_tuples_with_a_loop_once():
    g = SignedGraph.from_triples(3, [(0, 1, 1), (2, 2, -1), (1, 0, -1)])
    assert g.adjacency == (((0, 1, 1), (2, 1, -1)), ((0, 0, 1), (2, 0, -1)), ((1, 2, -1),))
    assert all(type(entry) is tuple for entries in g.adjacency for entry in entries)


def test_equality_hashing_pickling_and_immutability():
    triples = [(0, 1, 1), (1, 2, -1)]
    a, b = SignedGraph.from_triples(3, triples), SignedGraph.from_triples(3, list(triples))
    assert a == b and hash(a) == hash(b) and a is not b
    assert a != SignedGraph.from_triples(4, triples)
    assert a != SignedGraph.from_triples(3, [(0, 1, 1), (1, 2, 1)])
    assert a != a.edges and len({a, b}) == 1
    assert repr(a) == "SignedGraph(n=3, edges=(Edge(id=0, u=0, v=1, sign=1), Edge(id=1, u=1, v=2, sign=-1)))"
    back = pickle.loads(pickle.dumps(a))
    assert back == a and back.edges == a.edges
    for attr in ("n", "m", "edges", "_u"):
        with pytest.raises(AttributeError):
            setattr(a, attr, 1)


def test_derived_graphs_share_no_column_they_change():
    g = fixture("T-")
    flipped = switch(g, [0])
    sub = g.subgraph_of_edges([2, 0])
    assert g._sign == [1, 1, -1] and flipped._sign == [-1, 1, 1]
    assert sub == SignedGraph.from_triples(3, [(0, 1, 1), (2, 0, -1)])

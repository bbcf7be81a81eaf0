"""The command surface: every answer is the library's answer, exit codes 0/1/2."""

import hashlib
import json
import multiprocessing
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import signedconn
from signedconn import Edge, SignedGraph, balance, core, matroid, structure, sweep
from signedconn.cli import build_report, main
from signedconn.io import FIXTURE_NAMES, emit, fixture, parse

from conftest import fresh_copy


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("fixtures")
    assert main(["fixtures", "--emit", str(outdir)]) == 0
    return outdir


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_fixture_emission(self, fixture_dir):
        assert {p.stem for p in fixture_dir.glob("*.sg")} == set(FIXTURE_NAMES)

    def test_sign_isthmi_of_unbalanced_triangle(self, fixture_dir, capsys):
        code, out = run(capsys, "isthmi", "--kind", "sign", str(fixture_dir / "T-.sg"))
        assert code == 0 and out.strip() == "0 1 2"

    def test_sign_components_of_balanced_triangle(self, fixture_dir, capsys):
        code, out = run(capsys, "components", "--kind", "sign", str(fixture_dir / "T+.sg"))
        assert code == 0
        assert out.splitlines() == ["0", "1", "2"]

    def test_lift_rank_of_loose_pair(self, fixture_dir, capsys):
        code, out = run(
            capsys, "rank", "--kind", "lift", "--edges", "all", str(fixture_dir / "LOOSE.sg")
        )
        assert code == 0 and out.strip() == "6"

    def test_frame_rank_subset(self, fixture_dir, capsys):
        code, out = run(
            capsys, "rank", "--kind", "frame", "--edges", "0,1", str(fixture_dir / "T+.sg")
        )
        assert code == 0 and out.strip() == "2"

    def test_circuit_classification(self, fixture_dir, capsys):
        code, out = run(capsys, "circuit", "--edges", "all", str(fixture_dir / "TIGHT.sg"))
        assert code == 0 and out.strip() == "tight-handcuff"

    def test_witness_prints_two_edge_sequences(self, fixture_dir, capsys):
        code, out = run(capsys, "witness", str(fixture_dir / "T-.sg"), "0", "1")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["0"]  # the positive edge 0-1
        assert set(lines[1].split()) == {"1", "2"}  # around the negative side

    def test_articulation(self, fixture_dir, capsys):
        code, out = run(
            capsys, "articulation", "--kind", "sign", str(fixture_dir / "LOOSE.sg")
        )
        assert code == 0 and out.strip() == "0 3"
        code, out = run(
            capsys, "articulation", "--kind", "graph", str(fixture_dir / "LOOSE.sg")
        )
        assert code == 0 and out.strip() == "0 3"

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_every_isthmus_and_articulation_kind_prints_the_library_answer(
        self, name, fixture_dir, capsys
    ):
        g = fixture(name)
        dec = signedconn.block_decomposition(g)
        answers = {
            ("isthmi", "graph"): lambda: dec.bridges,
            ("isthmi", "frame"): lambda: signedconn.frame_isthmi(g),
            ("isthmi", "lift"): lambda: signedconn.lift_isthmi(g),
            ("isthmi", "sign"): lambda: signedconn.sign_isthmi(g),
            ("articulation", "graph"): lambda: dec.articulation_vertices,
            ("articulation", "sign"): lambda: signedconn.sign_articulation_vertices(g),
        }
        for (command, kind), answer in answers.items():
            code = main([command, "--kind", kind, str(fixture_dir / f"{name}.sg")])
            out, err = capsys.readouterr()
            try:
                expected = " ".join(map(str, sorted(answer()))) + "\n"
            except signedconn.SignedGraphError as exc:
                assert (code, out, err) == (1, "", f"error: {exc}\n"), (command, kind)
            else:
                assert (code, out, err) == (0, expected, ""), (command, kind)
            if kind == "sign" and not signedconn.is_sign_connected(g):
                assert code == 1 and err.startswith("error: "), (command, kind)

    def test_analyze_json_round_trips(self, fixture_dir, capsys):
        code, out = run(capsys, "analyze", "--json", str(fixture_dir / "LOOSE.sg"))
        assert code == 0
        report = json.loads(out)
        assert report["balanced"] is False
        assert report["sign_isthmi"] == [6]
        assert report["balancing_edges"] == []
        assert report["frame_coloops"] == []
        assert report["lift_coloops"] == [6]
        assert report["frame_connected"] is True
        assert report["lift_connected"] is False

    def test_check_small_bounds_passes(self, capsys):
        code, out = run(capsys, "check", "--max-n", "2", "--max-m", "2")
        assert code == 0
        assert out == "checked 38 signed graphs\n" + "".join(
            f"suite {k} [pass]: {sweep.SUITES[k]}\n" for k in range(1, 10)
        )

    def test_check_json(self, capsys, monkeypatch):
        monkeypatch.setattr(sweep, "_usable_cpus", lambda: 2)
        code, out = run(capsys, "check", "--max-n", "2", "--max-m", "2", "--json")
        assert code == 0
        report = json.loads(out)
        assert list(report) == [
            "graphs_checked", "seconds", "graphs_per_s", "failure_counts", "workers"
        ]
        assert report["graphs_checked"] == 38
        assert report["failure_counts"] == {str(k): 0 for k in range(1, 10)}
        assert report["seconds"] > 0
        assert report["graphs_per_s"] == pytest.approx(38 / report["seconds"])
        assert report["workers"] == (2 if "fork" in multiprocessing.get_all_start_methods() else 1)

    def test_check_json_counts_failures(self, capsys, monkeypatch):
        monkeypatch.setattr(sweep, "_CHECKS", {**sweep._CHECKS, 7: lambda g: "x"})
        code, out = run(capsys, "check", "--max-n", "1", "--max-m", "1", "--json")
        assert code == 2
        assert json.loads(out)["failure_counts"]["7"] == 3


class TestExitCodes:
    def test_missing_file_is_an_error(self, capsys):
        assert main(["analyze", "/nonexistent.sg"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.sg"
        bad.write_text("signed-graph n=2\n0 1 *\n")
        assert main(["analyze", str(bad)]) == 1
        assert "line 2" in capsys.readouterr().err

    def test_vertex_count_above_cap_is_an_error(self, tmp_path, capsys):
        big = tmp_path / "big.sg"
        big.write_text("signed-graph n=1000001\n")
        assert main(["analyze", str(big)]) == 1
        assert "error: line 1" in capsys.readouterr().err

    def test_precondition_failure_is_an_error(self, fixture_dir, capsys):
        # sign isthmi are undefined for balanced graphs
        assert main(["isthmi", "--kind", "sign", str(fixture_dir / "T+.sg")]) == 1

    def test_a_cycle_search_past_its_budget_is_an_error(self, tmp_path, capsys):
        # the Moebius ladder on 40 vertices with its two twist edges
        # negative: one unbalanced block, no necklace, no partner among the
        # fundamental cycles, and more than 100,000 cycles
        n, half = 40, 20
        rim = [(i, (i + 1) % n, -1 if i in (half - 1, n - 1) else 1) for i in range(n)]
        rungs = [(i, i + half, 1) for i in range(half)]
        path = tmp_path / "ladder.sg"
        path.write_text(emit(SignedGraph.from_triples(n, rim + rungs)))
        assert main(["analyze", "--json", str(path)]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: more than 100000 cycles\n")

    def test_bad_edge_id(self, fixture_dir, capsys):
        assert main(["rank", "--kind", "frame", "--edges", "9", str(fixture_dir / "P2.sg")]) == 1

    @pytest.mark.parametrize("token", ["1_0", "+3", " 3", "\u0663"])
    def test_an_id_is_ascii_decimal_digits(self, tmp_path, capsys, token):
        # a 12-cycle with one negative edge: every id below 12 names an edge
        # and a vertex, and every two vertices have witness chains
        path = tmp_path / "c12.sg"
        path.write_text(emit(SignedGraph.from_triples(
            12, [(v, (v + 1) % 12, -1 if v == 0 else 1) for v in range(12)]
        )))
        for argv, what in (
            (["rank", "--kind", "frame", "--edges", token, str(path)], "edge id"),
            (["circuit", "--edges", f"0,{token}", str(path)], "edge id"),
            (["witness", str(path), "0", token], "vertex"),
        ):
            assert main(argv) == 1, argv
            out, err = capsys.readouterr()
            assert (out, err) == ("", f"error: bad {what} {token!r}: expected ASCII decimal digits\n")

    def test_check_refuses_a_size_bound_with_no_graphs(self, capsys):
        assert main(["check", "--max-n", "0"]) == 1
        out, err = capsys.readouterr()
        assert (out, err) == ("", "error: max_n must be >= 1 and max_m >= 0, not 0 and 5\n")


# a negative hexagon with chords 1-3 and 3-5: a necklace of four beads
NECKLACE = SignedGraph.from_triples(
    6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, -1), (1, 3, 1), (3, 5, 1)]
)


def _shape_triples():
    """One seeded graph of each shape the analyze benchmark draws from: a
    ring of six balanced K4 beads, K9 with random signs, a forest of four
    random parts and a random tree with a negative triangle hung on it."""
    rng = random.Random(25)
    bead_ends = [3 * i for i in range(6)]
    necklace = [
        (a, b, -1 if i == 0 and a == 0 else 1)  # bead 0 switched at vertex 0
        for i, x in enumerate(bead_ends)
        for a, b in combinations((x, x + 1, x + 2, (x + 3) % 18), 2)
    ]
    complete = [(a, b, rng.choice((1, -1))) for a, b in combinations(range(9), 2)]
    forest = []
    for part in range(4):
        at = 8 * part
        forest += [(at + rng.randrange(v), at + v, rng.choice((1, -1))) for v in range(1, 8)]
        forest += [(at + rng.randrange(8), at + rng.randrange(8), rng.choice((1, -1))) for _ in range(2)]
    tree = [(rng.randrange(v), v, rng.choice((1, -1))) for v in range(1, 50)]
    tree += [(0, 50, 1), (50, 51, 1), (51, 52, 1), (52, 50, -1)]
    return {
        "necklace": (18, necklace),
        "complete": (9, complete),
        "forest": (32, forest),
        "tree_triangle": (53, tree),
    }


# sha256 of `json.dumps(report, indent=2)`, first 16 hex digits, as the
# library gave them while a graph still held its `Edge` tuples
_REPORT_DIGESTS = {
    "P2": "d1849fc2a5e2b213",
    "N2": "5dfd4aab36fbdb41",
    "T+": "87096a19c81a4eb0",
    "T-": "8a34ac81c45ee5b2",
    "NEGLOOP": "376a285daddef31b",
    "NECK2": "952473c6cc1be203",
    "TIGHT": "927263eb9f188bdd",
    "LOOSE": "1045550a3de5bb5d",
    "THETA": "0396591a731c1afa",
    "UK4": "824e86a7d38f5ecc",
    "DISJB": "ac406eeb8575df10",
    "C4": "3b238494884a6bbe",
    "C5": "89fab32927c6142b",
    "necklace": "d3f0cf4189f0f887",
    "complete": "e060d242218a1c9b",
    "forest": "37660ab1aba2aa37",
    "tree_triangle": "b06bd76b0439835a",
}


def _no_edge(*args, **kwargs):
    raise AssertionError("an Edge was built")


@pytest.mark.parametrize("name", list(_REPORT_DIGESTS))
def test_the_analyze_path_builds_no_edge(name, monkeypatch):
    """`analyze --json` parses into edge columns and reads only them and the
    incidence: with `Edge` construction raising, the report is the same."""
    if name in FIXTURE_NAMES:
        text = emit(fixture(name))
    else:
        text = emit(SignedGraph.from_triples(*_shape_triples()[name]))
    monkeypatch.setattr(Edge, "__new__", _no_edge)
    monkeypatch.setattr(Edge, "_make", classmethod(_no_edge))
    g = parse(text)
    report = json.dumps(build_report(g), indent=2)
    assert hashlib.sha256(report.encode()).hexdigest()[:16] == _REPORT_DIGESTS[name]
    assert "edges" not in vars(g)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("necklace",))
def test_report_makes_one_full_pass_of_its_graph(name, monkeypatch):
    """One spine, on any graph, and no graph built: every field reads the
    spine of the graph it was given."""
    g = NECKLACE if name == "necklace" else fixture(name)
    spines, graphs = [], []
    init = core._Spine.__init__
    of_columns = core.SignedGraph._of_columns  # every graph the library builds

    def counting_init(self, graph):
        spines.append(graph)
        init(self, graph)

    def counting_of_columns(cls, *columns):
        graphs.append(columns)
        return of_columns(*columns)

    monkeypatch.setattr(core._Spine, "__init__", counting_init)
    monkeypatch.setattr(core.SignedGraph, "_of_columns", classmethod(counting_of_columns))
    build_report(g)
    assert len(spines) == 1 and spines[0] is g
    assert graphs == []


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("necklace",))
def test_report_finds_balancing_vertices_once(name, monkeypatch):
    """Sign articulation vertices and the necklace search share one
    computation of the balancing vertices, kept on the graph."""
    # a new graph object, so that nothing is kept on it from another test
    g = fresh_copy(NECKLACE) if name == "necklace" else fixture(name)
    calls = []
    compute = balance._balancing_vertices

    def counting(graph):
        calls.append(graph)
        return compute(graph)

    monkeypatch.setattr(balance, "_balancing_vertices", counting)
    build_report(g)
    assert calls in ([], [g])
    if name == "necklace":
        assert calls == [g]


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("necklace",))
def test_report_computes_each_kept_field_once(name, monkeypatch):
    """The fields that several report entries read are computed once per
    graph and kept on it."""
    g = fresh_copy(NECKLACE) if name == "necklace" else fixture(name)
    calls = []
    for module, attr in (
        (structure, "_block_decomposition"),
        (balance, "_balancing_edges"),
        (matroid, "_frame_components"),
        (matroid, "_lift_components"),
        (core, "_components"),
    ):
        compute = getattr(module, attr)

        def counting(graph, attr=attr, compute=compute):
            calls.append((attr, graph))
            return compute(graph)

        monkeypatch.setattr(module, attr, counting)
    build_report(g)
    assert sorted(attr for attr, _ in calls) == [
        "_balancing_edges", "_block_decomposition", "_components",
        "_frame_components", "_lift_components",
    ]
    assert all(graph is g for _, graph in calls)


def test_returned_component_lists_are_copies():
    g = SignedGraph.from_triples(4, [(0, 1, -1), (0, 0, -1), (2, 3, 1)])
    want = [frozenset({0, 1}), frozenset({2, 3})]
    core.connected_components(g).clear()
    balance.component_balance(g)[0].append(frozenset({9}))
    assert core.connected_components(g) == want
    assert balance.component_balance(g) == (want, [False, True])


def test_a_reader_that_leaves_early_gets_no_error_message(tmp_path):
    # a 2,000-vertex path with a negative loop: its report, some 300 KB, is
    # more than the pipe holds, so the command is still writing when the
    # reader closes its end after one line, as `| head -1` does
    path = tmp_path / "path.sg"
    path.write_text(emit(SignedGraph.from_triples(2000, [(0, 0, -1)] + [
        (i, i + 1, -1 if i % 7 == 0 else 1) for i in range(1999)
    ])))
    src = str(Path(signedconn.__file__).parent.parent)
    path_list = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_list)}
    proc = subprocess.Popen(
        [sys.executable, "-m", "signedconn.cli", "analyze", "--json", str(path)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1
    assert not [line for line in stderr.splitlines() if line.startswith("error:")]
    assert stderr == ""


def test_importing_the_cli_leaves_the_sweep_and_the_oracle_out():
    # only `check` needs them, so the other commands start without them
    src = str(Path(signedconn.__file__).parent.parent)
    path_list = filter(None, (src, os.environ.get("PYTHONPATH")))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path_list)}
    code = (
        "import sys, signedconn.cli; "
        "print(sorted(m for m in ('signedconn.sweep', 'signedconn.oracle') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "[]\n"

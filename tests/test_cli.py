"""The command surface: every answer is the library's answer, exit codes 0/1/2."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import signedconn
from signedconn import SignedGraph, balance, core, matroid, structure, sweep
from signedconn.cli import build_report, main
from signedconn.io import FIXTURE_NAMES, emit, fixture


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
        monkeypatch.setattr(sweep, "_CHECKS", {**sweep._CHECKS, 7: lambda g, fail: fail("x")})
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

    def test_bad_edge_id(self, fixture_dir, capsys):
        assert main(["rank", "--kind", "frame", "--edges", "9", str(fixture_dir / "P2.sg")]) == 1


# a negative hexagon with chords 1-3 and 3-5: a necklace of four beads
NECKLACE = SignedGraph.from_triples(
    6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 4, 1), (4, 5, 1), (5, 0, -1), (1, 3, 1), (3, 5, 1)]
)


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("necklace",))
def test_report_makes_one_full_pass_of_its_graph(name, monkeypatch):
    """One spine, on any graph, and no graph built: every field reads the
    spine of the graph it was given."""
    g = NECKLACE if name == "necklace" else fixture(name)
    spines, graphs = [], []
    init = core._Spine.__init__
    post_init = core.SignedGraph.__post_init__

    def counting_init(self, graph):
        spines.append(graph)
        init(self, graph)

    def counting_post_init(self):
        graphs.append(self)
        post_init(self)

    monkeypatch.setattr(core._Spine, "__init__", counting_init)
    monkeypatch.setattr(core.SignedGraph, "__post_init__", counting_post_init)
    build_report(g)
    assert len(spines) == 1 and spines[0] is g
    assert graphs == []


@pytest.mark.parametrize("name", FIXTURE_NAMES + ("necklace",))
def test_report_finds_balancing_vertices_once(name, monkeypatch):
    """Sign articulation vertices and the necklace search share one
    computation of the balancing vertices, kept on the graph."""
    # a new graph object, so that nothing is kept on it from another test
    g = SignedGraph(NECKLACE.n, NECKLACE.edges) if name == "necklace" else fixture(name)
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
    g = SignedGraph(NECKLACE.n, NECKLACE.edges) if name == "necklace" else fixture(name)
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

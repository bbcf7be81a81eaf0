"""Acceptance gate.

Criteria 1-9 run the exhaustive sweep over every signed graph with at most
4 vertices and 5 edges (all signings) and check one suite each; criterion 10
replays the fixture catalogue through the CLI and the brute-force layer
against a committed golden file.  Each test emits one pass/fail line.
"""

import json
import pathlib

import pytest

from signedconn import io, oracle, sweep
from signedconn.cli import build_report, main as cli_main
from signedconn.io import fixture

MAX_N = 4
MAX_M = 5
GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "derived.json"


@pytest.fixture(scope="session")
def sweep_result():
    return sweep.run_sweep(MAX_N, MAX_M)


def _criterion(number, name, ok, detail=""):
    status = "pass" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {name}")
    assert ok, f"criterion {number} failed: {name}\n{detail}"


def _suite_criterion(number, result):
    detail = ""
    violation = result.first_failure.get(number)
    if violation is not None:
        detail = f"{violation.message}\ncounterexample:\n{io.emit(violation.graph)}"
    _criterion(number, sweep.SUITES[number], result.suite_passed(number), detail)


def test_criterion_01_sign_connection(sweep_result):
    _suite_criterion(1, sweep_result)


def test_criterion_02_balancing_edges(sweep_result):
    _suite_criterion(2, sweep_result)


def test_criterion_03_sign_isthmi(sweep_result):
    _suite_criterion(3, sweep_result)


def test_criterion_04_matroids(sweep_result):
    _suite_criterion(4, sweep_result)


def test_criterion_05_connection_comparisons(sweep_result):
    _suite_criterion(5, sweep_result)


def test_criterion_06_contrabalance(sweep_result):
    _suite_criterion(6, sweep_result)


def test_criterion_07_parity(sweep_result):
    _suite_criterion(7, sweep_result)


def test_criterion_08_positive_negative(sweep_result):
    _suite_criterion(8, sweep_result)


def test_criterion_09_quasibalance(sweep_result):
    _suite_criterion(9, sweep_result)


# --- criterion 10: fixture regression --------------------------------------
#
# The golden file holds every fixture value that is not obvious by
# inspection.  The test (a) re-derives each golden value with the
# brute-force layer, (b) checks the library/CLI reproduces the same values,
# and (c) replays the documented CLI invocations on emitted fixture files.


def _o_sign_connected(g):
    if g.n == 1:
        return True
    table = oracle.chain_sign_table(g)
    return all(
        len(table[x][y]) == 2 for x in range(g.n) for y in range(g.n) if x != y
    )


def _o_balancing_vertices(g):
    out = []
    for x in range(g.n):
        keep = [e.id for e in g.edges if x not in (e.u, e.v)]
        if not oracle.brute_is_balanced(g) and oracle.brute_is_balanced(
            g.subgraph_of_edges(keep)
        ):
            out.append(x)
    return out


def _o_circuits(g, kind):
    fn = (
        oracle.enumerate_frame_circuits
        if kind == "frame"
        else oracle.enumerate_lift_circuits
    )
    return [sorted(c) for c in fn(g)]


def _o_rank_all(g, kind):
    return oracle.rank_from_circuits(
        (
            oracle.enumerate_frame_circuits
            if kind == "frame"
            else oracle.enumerate_lift_circuits
        )(g),
        range(g.m),
    )


def _o_coloops(g, kind):
    indep = oracle.frame_independent if kind == "frame" else oracle.lift_independent
    return sorted(oracle.brute_coloops(g, indep))


def _recompute_derived():
    g = {name: fixture(name) for name in io.FIXTURE_NAMES}
    return {
        "T-": {
            "sign_isthmi": sorted(oracle.brute_sign_isthmi(g["T-"])),
            "sign_articulation_vertices": sorted(
                oracle.brute_sign_articulation_vertices(g["T-"])
            ),
            "balancing_edges": sorted(oracle.brute_balancing_edges(g["T-"])),
            "frame_rank_all": _o_rank_all(g["T-"], "frame"),
            "lift_rank_all": _o_rank_all(g["T-"], "lift"),
            "frame_coloops": _o_coloops(g["T-"], "frame"),
            "lift_coloops": _o_coloops(g["T-"], "lift"),
        },
        "T+": {
            "frame_rank_all": _o_rank_all(g["T+"], "frame"),
            "lift_rank_all": _o_rank_all(g["T+"], "lift"),
            "balancing_edges": sorted(oracle.brute_balancing_edges(g["T+"])),
        },
        "TIGHT": {
            "sign_isthmi": sorted(oracle.brute_sign_isthmi(g["TIGHT"])),
            "sign_articulation_vertices": sorted(
                oracle.brute_sign_articulation_vertices(g["TIGHT"])
            ),
            "quasibalanced": oracle.brute_is_quasibalanced(g["TIGHT"]),
            "frame_circuits": _o_circuits(g["TIGHT"], "frame"),
            "lift_circuits": _o_circuits(g["TIGHT"], "lift"),
        },
        "LOOSE": {
            "sign_isthmi": sorted(oracle.brute_sign_isthmi(g["LOOSE"])),
            "sign_articulation_vertices": sorted(
                oracle.brute_sign_articulation_vertices(g["LOOSE"])
            ),
            "balancing_edges": sorted(oracle.brute_balancing_edges(g["LOOSE"])),
            "lift_rank_all": _o_rank_all(g["LOOSE"], "lift"),
            "frame_coloops": _o_coloops(g["LOOSE"], "frame"),
            "lift_coloops": _o_coloops(g["LOOSE"], "lift"),
            "frame_circuits": _o_circuits(g["LOOSE"], "frame"),
            "lift_circuits": _o_circuits(g["LOOSE"], "lift"),
        },
        "UK4": {"balancing_vertices": _o_balancing_vertices(g["UK4"])},
        "NECK2": {
            "frame_components": [
                sorted(c)
                for c in oracle.brute_matroid_components(
                    g["NECK2"], oracle.frame_independent
                )
            ],
            "lift_components": [
                sorted(c)
                for c in oracle.brute_matroid_components(
                    g["NECK2"], oracle.lift_independent
                )
            ],
        },
        "DISJB": {
            "sign_block": _o_sign_connected(g["DISJB"])
            and not oracle.brute_sign_articulation_vertices(g["DISJB"])
        },
        "THETA": {
            "contrabalanced": oracle.brute_is_contrabalanced(g["THETA"]),
            "quasibalanced": oracle.brute_is_quasibalanced(g["THETA"]),
        },
        "C4": {"parity_connected": not oracle.brute_is_bipartite(g["C4"])},
        "C5": {"parity_connected": not oracle.brute_is_bipartite(g["C5"])},
        "NEGLOOP": {"balancing_edges": sorted(oracle.brute_balancing_edges(g["NEGLOOP"]))},
    }


def _run_cli(capsys, *argv):
    code = cli_main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_10_fixture_regression(tmp_path, capsys):
    golden = json.loads(GOLDEN_PATH.read_text())

    # (a) the committed golden values are exactly what the oracle derives
    assert _recompute_derived() == golden

    # (b) the library reproduces every golden value
    reports = {name: build_report(fixture(name)) for name in io.FIXTURE_NAMES}
    from signedconn import balancing_vertices, is_sign_block, lift_rank

    assert reports["T-"]["sign_isthmi"] == golden["T-"]["sign_isthmi"]
    assert (
        reports["T-"]["sign_articulation_vertices"]
        == golden["T-"]["sign_articulation_vertices"]
    )
    assert reports["T-"]["balancing_edges"] == golden["T-"]["balancing_edges"]
    assert reports["T-"]["frame_coloops"] == golden["T-"]["frame_coloops"]
    assert reports["T-"]["lift_coloops"] == golden["T-"]["lift_coloops"]
    assert reports["TIGHT"]["sign_isthmi"] == golden["TIGHT"]["sign_isthmi"]
    assert (
        reports["TIGHT"]["sign_articulation_vertices"]
        == golden["TIGHT"]["sign_articulation_vertices"]
    )
    assert reports["TIGHT"]["quasibalanced"] == golden["TIGHT"]["quasibalanced"]
    assert reports["LOOSE"]["sign_isthmi"] == golden["LOOSE"]["sign_isthmi"]
    assert (
        reports["LOOSE"]["sign_articulation_vertices"]
        == golden["LOOSE"]["sign_articulation_vertices"]
    )
    assert reports["LOOSE"]["balancing_edges"] == golden["LOOSE"]["balancing_edges"]
    assert reports["LOOSE"]["frame_coloops"] == golden["LOOSE"]["frame_coloops"]
    assert reports["LOOSE"]["lift_coloops"] == golden["LOOSE"]["lift_coloops"]
    assert reports["NECK2"]["frame_components"] == golden["NECK2"]["frame_components"]
    assert reports["NECK2"]["lift_components"] == golden["NECK2"]["lift_components"]
    assert reports["THETA"]["contrabalanced"] == golden["THETA"]["contrabalanced"]
    assert reports["THETA"]["quasibalanced"] == golden["THETA"]["quasibalanced"]
    assert reports["C4"]["parity_connected"] == golden["C4"]["parity_connected"]
    assert reports["C5"]["parity_connected"] == golden["C5"]["parity_connected"]
    assert reports["NEGLOOP"]["balancing_edges"] == golden["NEGLOOP"]["balancing_edges"]
    assert lift_rank(fixture("LOOSE"), range(7)) == golden["LOOSE"]["lift_rank_all"]
    assert (
        sorted(balancing_vertices(fixture("UK4")))
        == golden["UK4"]["balancing_vertices"]
    )
    assert is_sign_block(fixture("DISJB")) == golden["DISJB"]["sign_block"]

    # values that are obvious by inspection, stated directly
    assert reports["T+"]["balanced"] is True
    assert reports["T+"]["sign_components"] == [[0], [1], [2]]
    assert reports["T+"]["negative_components"] == [[0], [1], [2]]
    assert reports["T+"]["positive_components"] == [[0, 1, 2]]
    assert reports["T-"]["balanced"] is False
    assert reports["N2"]["harary_bipartition"] == [[1]]
    assert reports["N2"]["positive_components"] == [[0], [1]]
    assert reports["N2"]["negative_components"] == [[0, 1]]
    assert reports["NEGLOOP"]["sign_connected"] is True
    assert reports["TIGHT"]["contrabalanced"] is True
    assert reports["TIGHT"]["cactus_forest"] is True
    assert reports["THETA"]["cactus_forest"] is False
    assert reports["LOOSE"]["frame_connected"] is True
    assert reports["LOOSE"]["lift_connected"] is False
    assert reports["TIGHT"]["frame_connected"] is True
    assert reports["TIGHT"]["lift_connected"] is True

    # (c) the documented CLI invocations on emitted fixture files
    assert cli_main(["fixtures", "--emit", str(tmp_path)]) == 0
    capsys.readouterr()
    checks = [
        (("isthmi", "--kind", "sign", str(tmp_path / "T-.sg")), "0 1 2"),
        (("articulation", "--kind", "sign", str(tmp_path / "T-.sg")), "0 1 2"),
        (("rank", "--kind", "frame", "--edges", "all", str(tmp_path / "T-.sg")), "3"),
        (("rank", "--kind", "lift", "--edges", "all", str(tmp_path / "T-.sg")), "3"),
        (("rank", "--kind", "frame", "--edges", "all", str(tmp_path / "T+.sg")), "2"),
        (("rank", "--kind", "lift", "--edges", "all", str(tmp_path / "LOOSE.sg")), "6"),
        (
            ("rank", "--kind", "lift", "--edges", "0,1,2,3,4,5", str(tmp_path / "LOOSE.sg")),
            "5",
        ),
        (("circuit", "--edges", "all", str(tmp_path / "TIGHT.sg")), "tight-handcuff"),
        (("circuit", "--edges", "all", str(tmp_path / "LOOSE.sg")), "loose-handcuff"),
        (
            ("circuit", "--edges", "0,1,2,3,4,5", str(tmp_path / "LOOSE.sg")),
            "disjoint-pair",
        ),
        (("circuit", "--edges", "all", str(tmp_path / "T+.sg")), "positive-cycle"),
    ]
    for argv, expected in checks:
        code, out = _run_cli(capsys, *argv)
        assert code == 0 and out.strip() == expected, (argv, out)

    code, out = _run_cli(
        capsys, "components", "--kind", "sign", str(tmp_path / "T+.sg")
    )
    assert code == 0 and out.splitlines() == ["0", "1", "2"]
    code, out = _run_cli(
        capsys, "components", "--kind", "frame", str(tmp_path / "NECK2.sg")
    )
    assert code == 0 and out.splitlines() == ["0", "1"]

    _criterion(10, "fixture regression against golden derived values", True)

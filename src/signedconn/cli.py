"""Command-line interface: thin argparse layer over the library.

Every answer is the corresponding library call on the parsed graph; no
analysis logic lives here.  Exit codes: 0 ok, 1 analysis error, 2 property
violation found by `check`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path
from typing import Optional

from . import io, matroid, structure
from .balance import balancing_edges, harary_bipartition, is_balanced
from .core import SignedGraph
from .errors import SignedGraphError
from .sign_connectivity import (
    ComponentPartition,
    graph_components,
    is_parity_connected,
    is_sign_connected,
    negative_components,
    positive_components,
    sign_articulation_vertices,
    sign_components,
    sign_isthmi,
    witness_chains,
)


def _load(path: str) -> SignedGraph:
    return io.parse(Path(path).read_text())


def _decimal(token: str, what: str) -> int:
    """A vertex or edge id from the command line: ASCII decimal digits only,
    as in a graph file, so that `1_0`, `+3`, ` 3` or a non-ASCII digit is
    refused rather than read as another number."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"bad {what} {token!r}: expected ASCII decimal digits")
    return int(token)


def _parse_edge_list(spec: str, g: SignedGraph) -> list[int]:
    if spec == "all":
        return list(range(g.m))
    if not spec:
        return []
    ids = [_decimal(part, "edge id") for part in spec.split(",")]
    for eid in ids:
        g.edge(eid)  # range check
    return ids


def _fmt_classes(part: ComponentPartition) -> str:
    lines = [" ".join(str(x) for x in sorted(cls)) for cls in part.classes]
    for v in sorted(part.isolated_vertices):
        lines.append(f"{v} (isolated vertex)")
    return "\n".join(lines) if lines else "(empty)"


_COMPONENT_KINDS = {
    "graph": graph_components,
    "sign": sign_components,
    "frame": matroid.frame_components,
    "lift": matroid.lift_components,
    "positive": positive_components,
    "negative": negative_components,
}

_ISTHMUS_KINDS = {
    "graph": lambda g: structure.block_decomposition(g).bridges,
    "sign": sign_isthmi,
    "frame": matroid.frame_isthmi,
    "lift": matroid.lift_isthmi,
}

_ARTICULATION_KINDS = {
    "graph": lambda g: structure.block_decomposition(g).articulation_vertices,
    "sign": sign_articulation_vertices,
}


def _cmd_analyze(args) -> int:
    g = _load(args.file)
    report = build_report(g)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for key, value in report.items():
            print(f"{key}: {value}")
    return 0


def build_report(g: SignedGraph) -> dict:
    """Full analysis document with a stable key order."""
    bip = harary_bipartition(g)
    report: dict = {
        "n": g.n,
        "m": g.m,
        "balanced": is_balanced(g),
        "harary_bipartition": (
            [sorted(side) for side in bip.per_component] if bip else None
        ),
        "balancing_edges": sorted(balancing_edges(g)),
        "sign_connected": is_sign_connected(g),
        "parity_connected": is_parity_connected(g),
        "quasibalanced": matroid.is_quasibalanced(g),
        "contrabalanced": structure.is_contrabalanced(g),
        "cactus_forest": structure.is_cactus_forest(g),
        "frame_connected": matroid.is_frame_connected(g),
        "lift_connected": matroid.is_lift_connected(g),
    }
    for kind, fn in _COMPONENT_KINDS.items():
        part = fn(g)
        report[f"{kind}_components"] = [sorted(cls) for cls in part.classes]
        if part.isolated_vertices:
            report[f"{kind}_isolated_vertices"] = sorted(part.isolated_vertices)
    report["graph_isthmi"] = sorted(structure.block_decomposition(g).bridges)
    report["frame_coloops"] = sorted(matroid.frame_isthmi(g))
    report["lift_coloops"] = sorted(matroid.lift_isthmi(g))
    if is_sign_connected(g) and g.n > 1:
        report["sign_isthmi"] = sorted(sign_isthmi(g))
        report["sign_articulation_vertices"] = sorted(sign_articulation_vertices(g))
    else:
        report["sign_isthmi"] = None
        report["sign_articulation_vertices"] = None
    report["articulation_vertices"] = sorted(
        structure.block_decomposition(g).articulation_vertices
    )
    return report


def _cmd_components(args) -> int:
    g = _load(args.file)
    print(_fmt_classes(_COMPONENT_KINDS[args.kind](g)))
    return 0


def _cmd_ids(args) -> int:
    g = _load(args.file)
    print(" ".join(str(i) for i in sorted(args.kinds[args.kind](g))))
    return 0


def _cmd_rank(args) -> int:
    g = _load(args.file)
    edges = _parse_edge_list(args.edges, g)
    fn = matroid.frame_rank if args.kind == "frame" else matroid.lift_rank
    print(fn(g, edges))
    return 0


def _cmd_circuit(args) -> int:
    g = _load(args.file)
    edges = _parse_edge_list(args.edges, g)
    print(matroid.classify_circuit(g, edges).verdict.value)
    return 0


def _cmd_witness(args) -> int:
    g = _load(args.file)
    pair = witness_chains(g, _decimal(args.x, "vertex"), _decimal(args.y, "vertex"))
    print(" ".join(str(e) for e in pair.positive.edge_ids()))
    print(" ".join(str(e) for e in pair.negative.edge_ids()))
    return 0


def _cmd_check(args) -> int:
    from . import sweep  # here: the sweep and the oracle serve this command alone

    start = time.perf_counter()
    result = sweep.run_sweep(args.max_n, args.max_m, seed=args.seed)
    seconds = time.perf_counter() - start
    if args.json:
        counts = {str(k): result.failure_counts.get(k, 0) for k in sorted(sweep.SUITES)}
        report = {
            "graphs_checked": result.graphs_checked,
            "seconds": seconds,
            "graphs_per_s": result.graphs_checked / seconds,
            "failure_counts": counts,
            "workers": result.workers,
        }
        print(json.dumps(report))
        return 0 if result.ok else 2
    print(f"checked {result.graphs_checked} signed graphs")
    for suite in sorted(sweep.SUITES):
        status = "pass" if result.suite_passed(suite) else "FAIL"
        print(f"suite {suite} [{status}]: {sweep.SUITES[suite]}")
    if result.ok:
        return 0
    suite, violation = min(result.first_failure.items())
    print(f"first counterexample (suite {suite}): {violation.message}")
    sys.stdout.write(io.emit(violation.graph))
    return 2


def _cmd_fixtures(args) -> int:
    outdir = Path(args.emit)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, g in io.fixtures().items():
        (outdir / f"{name}.sg").write_text(io.emit(g))
        print(f"wrote {outdir / (name + '.sg')}")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signedconn", description="Signed-graph connection analysis."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a graph file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser("components", help="component partition of a given kind")
    p.add_argument("--kind", choices=sorted(_COMPONENT_KINDS), required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_components)

    p = sub.add_parser("isthmi", help="isthmi of a given kind")
    p.add_argument("--kind", choices=list(_ISTHMUS_KINDS), required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_ids, kinds=_ISTHMUS_KINDS)

    p = sub.add_parser("articulation", help="articulation vertices")
    p.add_argument("--kind", choices=list(_ARTICULATION_KINDS), required=True)
    p.add_argument("file")
    p.set_defaults(fn=_cmd_ids, kinds=_ARTICULATION_KINDS)

    p = sub.add_parser("rank", help="matroid rank of an edge set")
    p.add_argument("--kind", choices=["frame", "lift"], required=True)
    p.add_argument("--edges", required=True, help="comma-separated edge ids or 'all'")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_rank)

    p = sub.add_parser("circuit", help="classify an edge set as a circuit")
    p.add_argument("--edges", required=True, help="comma-separated edge ids or 'all'")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_circuit)

    p = sub.add_parser("witness", help="positive and negative chains between two vertices")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(fn=_cmd_witness)

    p = sub.add_parser("check", help="exhaustive property sweep over small graphs")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--max-m", type=int, default=5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true", help="print one JSON object of counts and timings")
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("fixtures", help="write the named example graph files")
    p.add_argument("--emit", required=True, metavar="DIR")
    p.set_defaults(fn=_cmd_fixtures)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        status = args.fn(args)
        sys.stdout.flush()  # so that a closed pipe shows here, not at exit
        return status
    except BrokenPipeError:
        # the reader left early, as `| head` does: end quietly, with stdout
        # on devnull so that the interpreter's last flush does not raise too
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1  # the status Python itself exits with on EPIPE
    except (SignedGraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

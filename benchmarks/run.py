"""Benchmark harness for signedconn.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``sweep`` -- the ``signedconn check`` path: ``run_sweep(4, 4, seed=...)``
  over all 13,888 signed graphs with n <= 4 and m <= 4, all nine suites.
  The seed shuffles the graph order, as ``signedconn check --seed`` does.
* ``analyze_sparse`` / ``analyze_blocks`` -- the ``signedconn analyze --json``
  path (``io.parse`` -> ``cli.build_report`` -> ``json.dumps``) on two seeded
  families at three sizes each, every size reported twice.

The load is a closed loop in one process and one thread: the next item
starts when the previous one has returned.  A run repeats whole passes while
the next pass is predicted to end within ``--seconds``; the first pass always
runs.  Every item is checked: the sweep must check every graph and find no
violation; every report must hold the answers its family is built to have and
match, field by field, the report recorded at the seed commit
(``reference.json``).  A raise or a mismatch counts as a failed item and the
pass goes on.

``--trace 0`` prints the end-to-end metrics; its timings are scaled by the
machine's slowdown, measured during the run (see ``MachineSamples``), and the
raw figures are printed above the result.  ``--trace 1`` runs one untraced
pass, one traced pass (spans recorded around every public function of each
module, see ``tracing.py``) and, on ``sweep``, one untraced pass per suite
through the public ``suites=`` argument; it prints the per-layer metrics.
The last line of standard output is one JSON object.

``--record`` rewrites ``reference.json`` from the library as it is.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import importlib.util
import json
import math
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

# `python3 benchmarks/run.py` puts this directory first on sys.path
import families
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ("sweep", "analyze_sparse", "analyze_blocks")
SWEEP_BOUNDS = (4, 4)
SWEEP_GRAPHS = 13_888  # signed graphs with 1 <= n <= 4 and m <= 4
SWEEP_SUITES = range(1, 10)
REPS = 2  # reports per (family, size) in one pass
SETUP_REPEATS = 3  # set-up samples at each end of a run
KERNEL_REPEATS = 2  # calibration-kernel samples at each sampling point
CALIBRATION_MODULES = ("_pydecimal", "argparse", "ast", "inspect")
REFERENCE_KERNEL_S = 0.007  # calibration-kernel seconds at the reference speed

# Per-layer functions reported as `<name>.s` (self seconds) and `<name>.calls`.
LAYER_FUNCTIONS = (
    "core.SignedGraph",
    "core.SignedGraph.subgraph_of_edges",
    "balance.component_balance",
    "balance.balancing_edges",
    "sign_connectivity.is_sign_connected",
    "sign_connectivity.sign_isthmi",
    "sign_connectivity.sign_articulation_vertices",
    "matroid.frame_rank",
    "matroid.lift_rank",
    "matroid.classify_circuit",
    "matroid.frame_isthmi",
    "matroid.lift_isthmi",
    "matroid.frame_components",
    "matroid.lift_components",
    "matroid.matroid_components_from_rank",
    "matroid.is_quasibalanced",
    "structure.block_decomposition",
    "structure.detect_necklace",
    "_cycles.elementary_cycles",
    "io.parse",
    "cli.build_report",
    "cli.json_dumps",
)


# -- set-up ------------------------------------------------------------------


def _library_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "signedconn" or n.startswith("signedconn.")}


def import_library(src: Path) -> SimpleNamespace:
    """Import signedconn from `src`, afresh (earlier imports are dropped)."""
    for name in _library_modules():
        del sys.modules[name]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("signedconn")
    if Path(pkg.__file__).resolve().parent != (src / "signedconn").resolve():
        raise ImportError(f"signedconn imported from {pkg.__file__}, not from {src}")
    mods = {name: importlib.import_module(f"signedconn.{name}") for name in ("cli", "io", "structure", "sweep")}
    # the function itself, so that its cache stays reachable while traced
    mods["cached_block_decomposition"] = getattr(mods["structure"], "block_decomposition", None)
    return SimpleNamespace(**mods)


def set_up(workload: str, seed: int, src: Path):
    """Import the library and build the workload's inputs."""
    lib = import_library(src)
    inputs = None if workload == "sweep" else families.instances(workload, seed)
    return lib, inputs


def time_set_up(workload: str, seed: int, src: Path) -> float:
    """Seconds that `set_up` takes.  The modules in use are put back
    afterwards, so the run goes on with the library it has."""
    in_use = _library_modules()
    gc.collect()  # garbage from the previous import would slow this one
    start = time.perf_counter()
    set_up(workload, seed, src)
    took = time.perf_counter() - start
    for name in _library_modules():
        del sys.modules[name]
    sys.modules.update(in_use)
    return took


def calibration_kernel() -> None:
    """Execute the bodies of a fixed set of standard-library modules, under
    private names and without registering them: the kind of work importing
    the library and building its graphs is (bytecode loading, function, class
    and dict creation), on code that no change to the library moves."""
    for name in CALIBRATION_MODULES:
        origin = importlib.util.find_spec(name).origin
        spec = importlib.util.spec_from_file_location(f"_calibration_{name}", origin)
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


class MachineSamples:
    """Set-up times and calibration-kernel times, sampled at points spread
    over a run: at both ends, before every analyze item and at the sweep's
    progress reports.

    The machine's speed drifts with other load on the host, by a third and
    for minutes at a time, and it slows the library and the kernel alike.
    `slowdown` is the run's median kernel time over REFERENCE_KERNEL_S; the
    end-to-end timings are divided by it, so that they describe the library
    on a machine of the reference speed.  `clock` stops while a sample is
    taken, so the sweep's timed region leaves its samples out.
    """

    def __init__(self, workload: str, seed: int, src: Path):
        self.workload, self.seed, self.src = workload, seed, src
        self.setups: list[float] = []
        self.kernel: list[float] = []
        self.paused = 0.0

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def sample(self) -> None:
        start = time.perf_counter()
        self.setups.append(time_set_up(self.workload, self.seed, self.src))
        gc.collect()
        for _ in range(KERNEL_REPEATS):
            begin = time.perf_counter()
            calibration_kernel()
            self.kernel.append(time.perf_counter() - begin)
        self.paused += time.perf_counter() - start

    @property
    def slowdown(self) -> float:
        return statistics.median(self.kernel) / REFERENCE_KERNEL_S


# -- one pass ------------------------------------------------------------------


@dataclass
class PassResult:
    seconds: float = 0.0  # sum of the timed regions
    attempted: int = 0
    failed: int = 0
    incorrect: list[str] = field(default_factory=list)  # unexpected outcomes
    raised: Counter = field(default_factory=Counter)  # "item: call: error" -> count
    cache_hits: int = 0  # calls served by block_decomposition's cache
    item_seconds: dict[str, list[float]] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.incorrect


def _clear_caches(lib) -> None:
    """Empty the library's global caches, so that no timed call is served by
    an earlier item or pass; `signedconn analyze` starts each report in a
    fresh process."""
    clear = getattr(lib.cached_block_decomposition, "cache_clear", None)
    if clear is not None:
        clear()
    gc.collect()


def _cache_hits(lib) -> int:
    """Cache hits since the last `_clear_caches`."""
    info = getattr(lib.cached_block_decomposition, "cache_info", None)
    return info().hits if info is not None else 0


def sweep_pass(lib, seed: int, suites=None, between=None, clock=time.perf_counter) -> PassResult:
    """One `run_sweep`; `between()` runs at its progress reports."""
    out = PassResult(attempted=SWEEP_GRAPHS)
    _clear_caches(lib)
    start = clock()
    try:
        result = lib.sweep.run_sweep(
            *SWEEP_BOUNDS, seed=seed, suites=suites, progress=between and (lambda _checked: between())
        )
    except Exception as exc:
        out.seconds = clock() - start
        out.failed = SWEEP_GRAPHS
        out.raised[f"sweep: {_raising_call(exc)}: {type(exc).__name__}"] += 1
        out.incorrect.append(f"run_sweep raised {exc!r}")
        return out
    out.seconds = clock() - start
    out.cache_hits = _cache_hits(lib)
    violations = sum(result.failure_counts.values())
    out.failed = min(violations, SWEEP_GRAPHS)
    if result.graphs_checked != SWEEP_GRAPHS:
        out.incorrect.append(f"checked {result.graphs_checked} graphs, not {SWEEP_GRAPHS}")
    for suite, violation in sorted(result.first_failure.items()):
        out.incorrect.append(f"suite {suite}: {violation.message}")
    return out


def _raising_call(exc: BaseException) -> str:
    """The library call, made by `build_report` (or else the innermost call),
    that an exception came out of."""
    frames = [f for f in traceback.extract_tb(exc.__traceback__) if Path(f.filename).parent != HERE]
    names = [f.name for f in frames]
    if "build_report" in names[:-1]:
        return names[names.index("build_report") + 1]
    return names[-1] if names else "?"


def _digest(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def report_outcome(lib, inst, tracer=None, clock=time.perf_counter):
    """Run one `analyze --json` item inside the timed region.

    Returns (seconds, report or None, raising call or None).
    """
    dumps = json.dumps if tracer is None else tracer.span("cli.json_dumps", json.dumps)
    _clear_caches(lib)
    start = clock()
    try:
        report = lib.cli.build_report(lib.io.parse(inst.text))
        dumps(report, indent=2)
    except Exception as exc:
        took = clock() - start
        return took, None, f"{_raising_call(exc)}: {type(exc).__name__}"
    return clock() - start, report, None


def analyze_pass(lib, insts, reference: dict, tracer=None, between=None,
                 clock=time.perf_counter) -> PassResult:
    """REPS reports of every instance; `between()` runs before each."""
    out = PassResult()
    for _ in range(REPS):
        for inst in insts:
            if between is not None:
                between()
            took, report, raised = report_outcome(lib, inst, tracer, clock)
            out.cache_hits += _cache_hits(lib)
            out.attempted += 1
            out.seconds += took
            out.item_seconds.setdefault(inst.key, []).append(took)
            want = reference.get(inst.key)
            if want is None:
                out.failed += 1
                out.incorrect.append(f"{inst.key}: no reference report")
                continue
            if raised is not None:
                out.failed += 1
                out.raised[f"{inst.key}: {raised}"] += 1
                if want.get("raised") != raised:
                    out.incorrect.append(f"{inst.key}: raised in {raised}")
                continue
            canon = families.canonical_report(report, inst)
            wrong = families.expectation_errors(canon, inst)
            # a report whose seed counterpart raised is checked only against
            # the answers its family is built to have
            for name, digest in want.get("fields", {}).items():
                if name not in canon or _digest(canon[name]) != digest:
                    wrong.append(name)
            if wrong:
                out.failed += 1
                out.incorrect.append(f"{inst.key}: wrong {', '.join(sorted(set(wrong)))}")
    return out


def run_pass(workload: str, lib, inputs, seed: int, reference: dict, tracer=None,
             machine: MachineSamples | None = None) -> PassResult:
    between = machine and machine.sample
    clock = machine.clock if machine else time.perf_counter
    if workload == "sweep":
        return sweep_pass(lib, seed, between=between, clock=clock)
    return analyze_pass(lib, inputs, reference, tracer, between, clock)


def scaling_exponents(result: PassResult, insts) -> dict[str, float]:
    """Per family, the least-squares slope of log(median report seconds)
    against log(m), over its sizes.  A family with a size that raised (and
    so has no completed report to time) gets none."""
    out = {}
    raised_keys = {key.split(":")[0] for key in result.raised}
    by_family: dict[str, list] = {}
    for inst in insts:
        by_family.setdefault(inst.family, []).append(inst)
    for family, members in by_family.items():
        if any(inst.key in raised_keys for inst in members):
            continue
        xs = [math.log(inst.m) for inst in members]
        ys = [math.log(statistics.median(result.item_seconds[inst.key])) for inst in members]
        mx, my = statistics.fmean(xs), statistics.fmean(ys)
        out[family] = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
    return out


# -- metrics -------------------------------------------------------------------


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[PassResult], machine: MachineSamples) -> dict:
    """Both timings are scaled to the reference machine speed (see
    MachineSamples); the raw figures are printed above the result."""
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    items_per_s = attempted / sum(p.seconds for p in passes)
    setup_s = statistics.median(machine.setups)
    print(f"raw: items_per_s {items_per_s:.4f}, setup_s {setup_s:.4f}")
    return {
        "setup_s": _metric(setup_s / machine.slowdown, "s"),
        "items_per_s": _metric(items_per_s * machine.slowdown, "1/s"),
        "ok_share": _metric((attempted - failed) / attempted, "share"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, traced: PassResult, plain: PassResult, suite_s: dict, exponent: float) -> dict:
    items = traced.attempted
    stats = tracer.stats
    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.s"] = _metric(tracer.self_seconds(layer + "."), "s")
    for name in LAYER_FUNCTIONS:
        calls, self_s = stats.get(name, (0, 0.0))
        metrics[f"{name}.s"] = _metric(self_s, "s")
        metrics[f"{name}.calls"] = _metric(calls, "count")
    metrics["core.graphs_built"] = _metric(stats.get("core.SignedGraph", (0, 0))[0] / items, "count/item")
    metrics["core.adjacency_built"] = _metric(
        stats.get("core.SignedGraph.adjacency", (0, 0))[0] / items, "count/item"
    )
    metrics["structure.block_decomposition.cache_hits"] = _metric(traced.cache_hits, "count")
    for name in ("_cycles.cycles_enumerated", "_cycles.budget_exceeded"):
        metrics[name] = _metric(tracer.counters[name], "count")
    for suite in SWEEP_SUITES:
        metrics[f"sweep.suite{suite}.s"] = _metric(suite_s.get(suite, 0.0), "s")
    metrics["scaling_exponent"] = _metric(exponent, "slope")
    metrics["trace.overhead_share"] = _metric(traced.seconds / plain.seconds - 1, "share")
    # metric names must start with a letter or digit: `_cycles.x` is `cycles.x`
    return {name.lstrip("_"): value for name, value in metrics.items()}


# -- command line ----------------------------------------------------------------


def _print_pass(label: str, result: PassResult) -> None:
    print(f"{label}: {result.attempted} items in {result.seconds:.3f} s, {result.failed} failed")
    for key, times in result.item_seconds.items():
        print(f"  {key}: " + " ".join(f"{t:.3f}" for t in times) + " s")
    for what, count in sorted(result.raised.items()):
        print(f"  raised x{count}: {what}")
    for what in result.incorrect:
        print(f"  INCORRECT: {what}")


def record(src: Path) -> None:
    """Write reference.json: per analyze item, a digest of each report field in
    canonical labels, or the call that raised."""
    lib = import_library(src)
    out = {}
    for workload in WORKLOADS[1:]:
        for inst in families.instances(workload, seed=0):
            _, report, raised = report_outcome(lib, inst)
            if raised is not None:
                out[inst.key] = {"raised": raised}
            else:
                canon = families.canonical_report(report, inst)
                out[inst.key] = {"fields": {k: _digest(v) for k, v in canon.items()}}
            print(inst.key, out[inst.key].get("raised", "ok"))
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "signedconn" / "__init__.py").is_file():
        print(f"error: no signedconn sources under {src}", file=sys.stderr)
        return 2
    if args.record:
        record(src)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    reference = json.loads(REFERENCE.read_text())

    lib, inputs = set_up(args.workload, args.seed, src)
    print(f"{args.workload} seed={args.seed}")

    if not args.trace:
        passes: list[PassResult] = []
        machine = MachineSamples(args.workload, args.seed, src)
        for _ in range(SETUP_REPEATS):
            machine.sample()
        start = time.perf_counter()
        while True:
            result = run_pass(args.workload, lib, inputs, args.seed, reference, machine=machine)
            passes.append(result)
            _print_pass(f"pass {len(passes)}", result)
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        for _ in range(SETUP_REPEATS):
            machine.sample()
        print(f"set-up samples: {' '.join(f'{s:.4f}' for s in machine.setups)} s")
        print(f"machine slowdown: {machine.slowdown:.4f} (calibration median "
              f"{statistics.median(machine.kernel):.6f} s over {len(machine.kernel)} samples)")
        metrics = end_to_end(passes, machine)
    else:
        plain = run_pass(args.workload, lib, inputs, args.seed, reference)
        _print_pass("untraced pass", plain)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = run_pass(args.workload, lib, inputs, args.seed, reference, tracer)
        finally:
            tracer.uninstall()
        _print_pass("traced pass", traced)
        suite_s = {}
        if args.workload == "sweep":
            for suite in SWEEP_SUITES:
                one = sweep_pass(lib, args.seed, suites=[suite])
                suite_s[suite] = one.seconds
                plain.incorrect += one.incorrect
            print("per suite: " + " ".join(f"{k}:{v:.2f}" for k, v in suite_s.items()) + " s")
        exponents = {} if inputs is None else scaling_exponents(plain, inputs)
        for family, slope in exponents.items():
            print(f"scaling exponent {family}: {slope:.3f}")
        top = sorted(tracer.stats.items(), key=lambda kv: -kv[1][1])
        for name, (calls, self_s) in top[:40]:
            print(f"  span {name}: {calls} calls, {self_s:.3f} s self")
        metrics = per_layer(
            tracer, traced, plain, suite_s, max(exponents.values(), default=0.0)
        )
        passes = [plain, traced]

    summary = {
        "correct": all(p.correct for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark harness: set-up, timed units, output checks, traced run.

A run of one workload does three things:

1. **Set-up**, repeated at least ``SETUP_REPS`` times and for at least
   ``SETUP_SECONDS``: drop every ``repro`` module, import the package
   again, compute the code fingerprint and build each topology and
   traffic process (or workload trace) of the first unit once. Each
   set-up is divided by the :class:`ReferenceLoop` timed just before and
   after it; ``setup_s`` is the median, scaled to a host on which the
   loop takes ``REFERENCE_HOST_S``.
2. **Units** until ``--seconds`` have passed (at least one). A unit is one
   batch of specs chosen from ``--seed``; its timed calls go through the
   program's public entry points (``execute_inline`` or ``Executor.run``).
   The pooled workload then serves the same specs again from its result
   cache (the warm pass). A :class:`ReferenceLoop` timed just before and
   after the unit gives the host's speed at that moment; the gated
   ``*_ref`` metrics are host times in units of it. Every metric is the
   median over units.
3. **Checks** of every unit against ``expected.json``: the simulator is
   deterministic, so the simulated summary, power dict and flit-hop count
   of each spec are recorded exactly and a speed-only change must leave
   them identical. A mismatch, a ``SimulationDeadlock`` or any exception
   counts as a failed run.

With ``trace`` the run alternates an untraced unit with a traced one: the
traced unit runs with timing wrappers (:mod:`perfbench.spans`) on each
layer's public functions and yields the per-layer metrics. End-to-end
metrics never come from traced units.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Workload names, why, metric units, better directions and bounds.
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: What BENCHMARK.json cannot hold: spec parameters, meanings, should-move.
MANIFEST = json.loads((BENCH_DIR / "manifest.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
EXPECTED_PATH = BENCH_DIR / "expected.json"
#: Scratch space inside the checkout (caches, run logs, span files).
OUT_DIR = ROOT / ".perfbench"

SETUP_REPS = 5
SETUP_SECONDS = 3.0
#: The reference loop's time on the host the bounds were set on (a 2.1 GHz
#: Xeon core); ``setup_s`` is set-up time scaled to a host this fast.
REFERENCE_HOST_S = 0.045

#: Simulator layers whose self times add up to the traced Simulator.step.
STEP_PARTS = (
    "noc.step", "noc.sa", "noc.vca", "noc.rc", "noc.token", "noc.inject",
    "noc.ni_pump", "traffic.tick", "faults.tick",
)
#: Spans reported as ``<span>_s`` self time.
SELF_TIMED = STEP_PARTS[1:] + (
    "core.build_topology", "workloads.compile", "telemetry.finalize",
    "power.measure", "analysis.attribute", "runtime.digest",
    "runtime.cache_get", "runtime.cache_put", "runtime.record_write",
)


def spec_key(spec) -> str:
    """Expected-value key: the spec's canonical JSON (no code fingerprint)."""
    return hashlib.sha256(spec.canonical_json().encode()).hexdigest()[:20]


def canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


# --------------------------------------------------------------------- #
# Workloads: which specs a unit runs
# --------------------------------------------------------------------- #


class Workload:
    """One named workload of ``BENCHMARK.json``, defined in ``manifest.json``."""

    def __init__(self, name: str) -> None:
        if name not in WORKLOADS:
            raise KeyError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
        self.name = name
        self.cfg = MANIFEST["workloads"][name]
        self.pooled = "jobs" in self.cfg
        self.attribute = bool(self.cfg.get("attribute"))

    def all_specs(self) -> List[object]:
        """Every spec any seed can select (the expected-value table)."""
        return [s for seed in self.cfg["seeds"] for s in self._specs_for_seeds([seed])]

    def unit_specs(self, seed: int, unit: int) -> List[object]:
        """Specs of unit ``unit`` of a run with benchmark seed ``seed``."""
        pool = self.cfg["seeds"]
        if self.pooled:
            rng = random.Random(f"{self.name}/{seed}/{unit}")
            return self._specs_for_seeds(sorted(rng.sample(pool, self.cfg["seeds_per_unit"])))
        offset = random.Random(f"{self.name}/{seed}").randrange(len(pool))
        return self._specs_for_seeds([pool[(offset + unit) % len(pool)]])

    def _specs_for_seeds(self, seeds: List[int]) -> List[object]:
        from repro.runtime.spec import RunSpec

        cfg = self.cfg
        if "cells" in cfg:
            from repro.workloads.scenarios import cell_spec

            return [
                cell_spec(*cell, cycles=cfg["cycles"], warmup=cfg["warmup"], seed=seed)
                for seed in seeds
                for cell in cfg["cells"]
            ]
        if self.pooled:
            return [
                RunSpec.create(pattern=pattern, rate=rate, seed=seed, **cfg["spec"])
                for pattern in cfg["patterns"]
                for rate in cfg["rates"]
                for seed in seeds
            ]
        return [RunSpec.create(seed=seed, **cfg["spec"]) for seed in seeds]


# --------------------------------------------------------------------- #
# Set-up
# --------------------------------------------------------------------- #


def setup_once(workload: Workload, seed: int) -> float:
    """Fresh import + fingerprint + first unit's topologies and traffic."""
    for mod in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[mod]
    gc.collect()  # drop the previous copy, so peak RSS holds one
    t0 = time.perf_counter()
    import repro  # noqa: F401
    from repro.runtime import executor
    from repro.runtime.registry import build_topology
    from repro.runtime.spec import code_fingerprint

    code_fingerprint()
    built = {}
    for spec in workload.unit_specs(seed, 0):
        key = (spec.topology, spec.topology_kwargs)
        if key not in built:
            built[key] = build_topology(spec.topology, **dict(spec.topology_kwargs))
        stop = spec.cycles if spec.drain else None
        executor._make_traffic(spec.traffic, built[key].n_cores, stop, cycles=spec.cycles)
    return time.perf_counter() - t0


# --------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------- #


def observe(sim, result, attribution) -> Dict[str, object]:
    """Deterministic facts of one finished in-process run."""
    facts = {
        "summary": result.summary,
        "power": result.power,
        "flit_hops": sum(link.flits_carried for link in sim.network.links),
        "sim_cycles": sim.now,
        "packets_created": sim.stats.packets_created,
        "packets_ejected": sim.stats.packets_ejected,
        "flits_created": sim.stats.flits_created,
        "ni_backlog": sum(ni.backlog for ni in sim.network.interfaces if ni is not None),
    }
    if result.metrics:
        facts["metrics_sha"] = hashlib.sha256(canonical(result.metrics).encode()).hexdigest()
    if attribution is not None:
        facts["verdict"] = attribution.verdict
        facts["verdict_share"] = attribution.verdict_share
    return facts


class Checks:
    """Counts checked runs and failures; keeps the first few reasons."""

    def __init__(self, expected: Dict[str, Dict[str, object]]) -> None:
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def record(self, ok: bool, reason: str, runs: int = 1) -> None:
        self.attempted += runs
        if not ok:
            self.failed += runs
            if len(self.reasons) < 20:
                self.reasons.append(reason)

    def run(self, spec, facts: Dict[str, object], bad: Optional[List[str]] = None) -> None:
        """Compare one run's facts with the recorded ones, key by key."""
        want = self.expected.get(spec_key(spec))
        if want is None:
            self.record(False, f"{spec.label()}: no expected values recorded")
            return
        bad = list(bad or [])
        bad += [k for k, v in facts.items() if canonical(v) != canonical(want.get(k))]
        if spec.drain and facts.get("packets_ejected") != want["packets_created"]:
            bad.append("packets_ejected != packets_created")
        self.record(not bad, f"{spec.label()} seed {spec.traffic.seed}: mismatch in {', '.join(bad)}")

    def pooled(self, spec, result) -> None:
        """Checks for a result that came back from a pool worker."""
        self.run(
            spec,
            {
                "summary": result.summary,
                "power": result.power,
                "sim_cycles": result.profile.get("sim_cycles"),
                # With warmup 0 every ejected packet is a measured one.
                "packets_ejected": int(result.summary.get("packets_measured", -1)),
            },
            bad=["served from cache on the cold pass"] if result.cache_hit else None,
        )

    def warm(self, executor, cold, warm) -> None:
        """The warm pass is served entirely from cache, payloads unchanged."""
        n = len(cold)
        if executor.runs_from_cache != n:
            self.record(False, f"warm pass: {executor.runs_from_cache} of {n} from cache", runs=n)
            return
        for a, b in zip(cold, warm):
            pa, pb = a.to_payload(), b.to_payload()
            pa.pop("wall_s")
            pb.pop("wall_s")
            if canonical(pa) != canonical(pb):
                self.record(False, f"warm pass: payload of {a.spec.label()} differs from cold", runs=n)
                return
        self.record(True, "", runs=n)


# --------------------------------------------------------------------- #
# Units
# --------------------------------------------------------------------- #


def profile_sum(results, key: str) -> float:
    return sum(float(r.profile.get(key) or 0.0) for r in results)


def run_inline(workload: Workload, specs, checks: Checks):
    """Timed in-process runs, then their checks; returns (wall_s, results, facts)."""
    import repro.analysis.attribution as attribution
    from repro.runtime.executor import execute_inline

    t0 = time.perf_counter()
    runs = []
    for spec in specs:
        _, sim, result = execute_inline(spec)
        attr = attribution.attribute_metrics(result.metrics) if workload.attribute else None
        runs.append((sim, result, attr))
    wall = time.perf_counter() - t0
    facts = []
    for spec, (sim, result, attr) in zip(specs, runs):
        facts.append(observe(sim, result, attr))
        checks.run(spec, facts[-1])
    return wall, [run[1] for run in runs], facts


def pooled_executor(workload: Workload, tmp: Path):
    """The pooled workload's executor: worker pool, result cache and run log."""
    from repro.runtime.executor import Executor

    return Executor(jobs=workload.cfg["jobs"], cache=tmp / "cache", runlog=tmp / "runs.jsonl")


def pool_pass(workload: Workload, specs, checks: Checks, tmp: Path):
    """Cold ``Executor.run`` through the worker pool; returns (wall_s, results)."""
    executor = pooled_executor(workload, tmp)
    t0 = time.perf_counter()
    cold = executor.run(specs)
    wall = time.perf_counter() - t0
    for spec, result in zip(specs, cold):
        checks.pooled(spec, result)
    return wall, cold


def warm_pass(workload: Workload, specs, cold, tmp: Path, checks: Checks) -> float:
    """Wall of one all-hit ``Executor.run`` over ``specs`` after the cold pass."""
    executor = pooled_executor(workload, tmp)
    t0 = time.perf_counter()
    warm = executor.run(specs)
    wall = time.perf_counter() - t0
    checks.warm(executor, cold, warm)
    return wall


class _Node:
    __slots__ = ("count", "nxt")

    def __init__(self) -> None:
        self.count = 0
        self.nxt = None


class ReferenceLoop:
    """A fixed pure-Python loop that shows how fast the host runs right now.

    Shared hosts drift in speed by tens of percent over minutes, which
    moves every host time of a run together. The loop chases pointers
    through a few megabytes of small objects and dict entries, as the
    simulator does, but runs no ``repro`` code, so no change to the program
    can move it; host times divided by it (the ``*_ref`` metrics) cancel
    most of the drift and still move with the program's own speed.
    """

    NODES = 50_000
    KEYS = 65_536
    STEPS = 120_000

    def __init__(self) -> None:
        self.nodes = [_Node() for _ in range(self.NODES)]
        for i, node in enumerate(self.nodes):
            node.nxt = self.nodes[(i * 7919) % self.NODES]
        self.table = {i: i for i in range(self.KEYS)}

    def seconds(self) -> float:
        node, table, mask, total = self.nodes[0], self.table, self.KEYS - 1, 0
        t0 = time.perf_counter()
        for i in range(self.STEPS):
            node.count += 1
            total += table[(i * 40503) & mask]
            node = node.nxt
        return time.perf_counter() - t0


def untraced_unit(workload: Workload, specs, checks: Checks, tmp: Path,
                  reference: ReferenceLoop) -> Dict[str, float]:
    """One timed unit with the reference loop just before and after it.

    The pooled workload's warm pass follows, outside the reference window.
    """
    ref_before = reference.seconds()
    if workload.pooled:
        wall, results = pool_pass(workload, specs, checks, tmp)
        # Pool results carry no network objects; each spec's flit-hop count
        # is deterministic and comes from the table its summary matched.
        hops = sum(checks.expected.get(spec_key(s), {}).get("flit_hops", 0) for s in specs)
    else:
        wall, results, facts = run_inline(workload, specs, checks)
        hops = sum(f["flit_hops"] for f in facts)
    ref = (ref_before + reference.seconds()) / 2
    sim_s = profile_sum(results, "sim_s")
    cycles = profile_sum(results, "sim_cycles")
    unit = {
        "wall_s": wall,
        "sim_cycles_per_s": cycles / sim_s,
        "flit_hops_per_s": hops / sim_s,
        "ref_s": ref,
        "wall_ref": wall / ref,
        "sim_cycles_per_ref": cycles / sim_s * ref,
        "flit_hops_per_ref": hops / sim_s * ref,
    }
    if workload.pooled:
        unit["warm_wall_s"] = warm_pass(workload, specs, results, tmp, checks)
    return unit


def traced_unit(workload: Workload, specs, checks: Checks, tmp: Path, rec) -> Dict[str, float]:
    """An untraced reference pass, then the traced unit; returns layer metrics.

    For the pooled workload the simulator-phase spans come from a serial
    pass over the same specs: spans do not cross the fork, so the pool
    pass contributes only the parent-side executor layers and the
    workers' own ``profile`` times.
    """
    from perfbench.spans import Wrappers, install_runtime_wrappers, install_sim_wrappers

    _, plain, _ = run_inline(workload, specs, checks)
    wrappers = Wrappers(rec)
    install_sim_wrappers(wrappers)
    install_runtime_wrappers(wrappers)
    rec.reset_totals()
    rec.on = True
    try:
        _, results, facts = run_inline(workload, specs, checks)
        profiled, pool_overhead = results, 0.0
        cold_gets = cold_hits = 0
        if workload.pooled:
            # Forked workers must simulate unwrapped, as in untraced runs.
            wrappers.restore()
            install_runtime_wrappers(wrappers)
            wall, profiled = pool_pass(workload, specs, checks, tmp)
            pool_overhead = wall - sum(r.wall_s for r in profiled) / workload.cfg["jobs"]
            cold_gets = rec.n_calls("runtime.cache_get")
            cold_hits = rec.counts["runtime.cache_hits"]
            warm_pass(workload, specs, profiled, tmp, checks)
    finally:
        rec.on = False
        wrappers.restore()

    cycles = sum(f["sim_cycles"] for f in facts)
    retx = sum(r.summary.get("flits_retransmitted", 0.0) for r in results)
    created = sum(f["flits_created"] for f in facts)
    step_calls = rec.n_calls("noc.step")
    token_calls = rec.n_calls("noc.token")
    pump_calls = rec.n_calls("noc.ni_pump")
    m = {f"{span}_s": rec.seconds(span) for span in SELF_TIMED}
    m.update(
        {
            "noc.step_s": rec.seconds("noc.step", inclusive=True),
            "noc.step_self_s": rec.seconds("noc.step"),
            "noc.sa_flits": rec.counts["noc.sa_flits"],
            "noc.vca_calls": rec.n_calls("noc.vca"),
            "noc.token_grant_ratio": rec.counts["noc.token_grants"] / token_calls if token_calls else 0.0,
            "noc.ni_pump_ok_ratio": rec.counts["noc.ni_pump_ok"] / pump_calls if pump_calls else 0.0,
            "noc.step_calls": step_calls,
            "noc.ff_skip_ratio": 1.0 - step_calls / cycles,
            "noc.ni_backlog_flits": sum(f["ni_backlog"] for f in facts),
            "traffic.packets": rec.counts["traffic.packets"],
            "workloads.packets": rec.counts["workloads.packets"],
            "faults.flits_retransmitted": retx,
            "faults.retx_flit_share": retx / created if created else 0.0,
            "telemetry.tracer_on_share": sum(
                f["sim_cycles"] for f, s in zip(facts, specs) if s.telemetry
            ) / cycles,
            "runtime.cache_hit_ratio": cold_hits / cold_gets if cold_gets else 0.0,
            "runtime.build_s": profile_sum(profiled, "build_s"),
            "runtime.measure_s": profile_sum(profiled, "measure_s"),
            "runtime.pool_overhead_s": pool_overhead,
            "trace.overhead_ratio": profile_sum(results, "sim_s") / profile_sum(plain, "sim_s"),
        }
    )
    parts = sum(rec.seconds(span) for span in STEP_PARTS)
    m["_step_partition_residual_s"] = m["noc.step_s"] - parts
    return m


# --------------------------------------------------------------------- #
# A run
# --------------------------------------------------------------------- #


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child's peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    expected: Optional[Dict[str, Dict[str, object]]] = None,
) -> Dict[str, object]:
    """Set up, run units for ``seconds``, check them; returns the result."""
    workload = Workload(name)
    if expected is None:
        expected = json.loads(EXPECTED_PATH.read_text())
    reference = ReferenceLoop()
    setups, refs = [], [reference.seconds()]
    setup_start = time.perf_counter()
    while len(setups) < SETUP_REPS or time.perf_counter() - setup_start < SETUP_SECONDS:
        setups.append(setup_once(workload, seed))
        refs.append(reference.seconds())
    checks = Checks(expected)
    rec = None
    if trace:
        from perfbench.spans import SpanRecorder

        rec = SpanRecorder()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    units: List[Dict[str, float]] = []
    start = time.perf_counter()
    try:
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            specs = workload.unit_specs(seed, i)
            unit_dir = tmp / f"u{i}"
            unit_dir.mkdir()
            try:
                if trace:
                    units.append(traced_unit(workload, specs, checks, unit_dir, rec))
                else:
                    units.append(untraced_unit(workload, specs, checks, unit_dir, reference))
            except Exception as exc:  # noqa: BLE001 - a failing unit is a failed run
                traceback.print_exc(file=sys.stderr)
                checks.record(False, f"unit {i}: {type(exc).__name__}: {exc}", runs=len(specs))
            finally:
                shutil.rmtree(unit_dir, ignore_errors=True)
            # Free the unit's networks now, so peak RSS is one unit's peak.
            gc.collect()
            i += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    spans_path = None
    if trace:
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.npz"
        rec.write(spans_path)

    values: Dict[str, float] = {"failed_frac": checks.failed / max(1, checks.attempted)}
    if units:
        for key in units[0]:
            values[key] = statistics.median(u[key] for u in units)
        if not trace:
            values["setup_raw_s"] = statistics.median(setups)
            values["ref_setup_s"] = statistics.median(refs)
            values["setup_s"] = REFERENCE_HOST_S * statistics.median(
                2 * s / (before + after) for s, before, after in zip(setups, refs, refs[1:])
            )
            values["peak_rss_mb"] = peak_rss_mb()

    def pick(listed) -> Dict[str, Dict[str, object]]:
        return {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
            if m["name"] in values
        }

    metrics = pick(BENCH["per_layer" if trace else "end_to_end"])
    printed = pick({"name": key, **meta} for key, meta in MANIFEST["printed"].items())
    extra = {"units": len(units), "printed": printed, "reasons": checks.reasons}
    if trace:
        extra["step_partition_residual_s"] = max(
            (abs(u["_step_partition_residual_s"]) for u in units), default=0.0
        )
        extra["spans_file"] = str(spans_path.relative_to(ROOT))
        extra["spans_dropped"] = rec.dropped
    return {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
        "extra": extra,
    }


def report(result: Dict[str, object], out=None) -> None:
    """Human-readable lines, then the one-line JSON result last."""
    out = out or sys.stdout
    extra = result["extra"]
    for name, m in {**result["metrics"], **extra["printed"]}.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}", file=out)
    print(f"runs attempted {result['attempted']} failed {result['failed']} in {extra['units']} units", file=out)
    for reason in extra["reasons"]:
        print(f"FAILED {reason}", file=out)
    if "spans_file" in extra:
        print(f"trace step partition residual {extra['step_partition_residual_s']:.3g} s", file=out)
        print(f"trace spans written to {extra['spans_file']} ({extra['spans_dropped']} not stored)", file=out)
    line = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(line), file=out)

"""In-memory span recorder and the timing wrappers of the traced run.

The wrappers are installed from the benchmark's own files around the
public functions each ``repro`` layer exposes; the program's source is
not touched. A span carries its name, start, end and parent span. Spans
are kept in flat arrays while the run lasts and written once at the end.
Self time (a span minus the time its child spans cover) and call counts
are accumulated as spans close, so per-layer totals need no second pass.

Pool workers inherit the wrappers through ``fork``; the recorder turns
itself off in every child, so worker calls run unwrapped and no span
crosses the fork.
"""

from __future__ import annotations

import os
import weakref
from array import array
from collections import Counter
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

#: Spans kept for the file written at the end; later spans still count
#: towards self times and call counts but are not stored.
MAX_SPANS = 1_000_000


def _turn_off(rec: Optional["SpanRecorder"]) -> None:
    if rec is not None:
        rec.on = False


class SpanRecorder:
    """Flat span store plus running per-name self/total time and counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.dropped = 0
        #: Open spans: [index or -1, start_ns, child_ns, name_id].
        self._stack: List[list] = []
        self.self_ns: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.on = False
        ref = weakref.ref(self)
        os.register_at_fork(after_in_child=lambda: _turn_off(ref()))

    def name_index(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def reset_totals(self) -> None:
        """Start a new accumulation window (spans already stored stay)."""
        self.self_ns.clear()
        self.total_ns.clear()
        self.calls.clear()
        self.counts.clear()

    def open(self, nid: int) -> list:
        stack = self._stack
        if len(self.start) < MAX_SPANS:
            idx = len(self.start)
            self.name_id.append(nid)
            self.start.append(0)
            self.end.append(0)
            self.parent.append(stack[-1][0] if stack else -1)
        else:
            idx = -1
            self.dropped += 1
        frame = [idx, 0, 0, nid]
        stack.append(frame)
        frame[1] = perf_counter_ns()
        return frame

    def close(self, frame: list) -> None:
        end = perf_counter_ns()
        stack = self._stack
        stack.pop()
        idx, start, child_ns, nid = frame
        dur = end - start
        if idx >= 0:
            self.start[idx] = start
            self.end[idx] = end
        self.self_ns[nid] += dur - child_ns
        self.total_ns[nid] += dur
        self.calls[nid] += 1
        if stack:
            stack[-1][2] += dur

    def seconds(self, name: str, inclusive: bool = False) -> float:
        nid = self._ids.get(name)
        if nid is None:
            return 0.0
        ns = self.total_ns[nid] if inclusive else self.self_ns[nid]
        return ns / 1e9

    def n_calls(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path) -> None:
        """Write the stored spans once, as arrays in one ``.npz`` file."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            dropped=np.int64(self.dropped),
        )


CountFn = Optional[Callable[[Counter, object], None]]


class Wrappers:
    """Installs and removes timing wrappers; restores originals exactly."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self._saved: List[Tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, span: str, count: CountFn = None) -> None:
        rec = self.rec
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(owner, attr)
        nid = rec.name_index(span)
        opener, closer, counts = rec.open, rec.close, rec.counts

        def traced(*args, **kwargs):
            if not rec.on:
                return fn(*args, **kwargs)
            frame = opener(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                closer(frame)
            if count is not None:
                count(counts, out)
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _add(key: str) -> Callable[[Counter, object], None]:
    def count(counts: Counter, out) -> None:
        counts[key] += out

    return count


def _flag(key: str, test: Callable[[object], bool]) -> Callable[[Counter, object], None]:
    def count(counts: Counter, out) -> None:
        if test(out):
            counts[key] += 1

    return count


def _count_packets(counts: Counter, out) -> None:
    counts["traffic.packets"] += len(out)


def _count_trace(counts: Counter, out) -> None:
    counts["workloads.packets"] += len(out.trace)


def install_sim_wrappers(w: Wrappers) -> None:
    """Simulator-phase layers of a single in-process run."""
    import repro.power
    import repro.runtime.executor as executor
    import repro.workloads
    from repro.faults.linklayer import FaultLayer
    from repro.noc.kernels import KernelState
    from repro.noc.links import SharedMedium
    from repro.noc.network import Network, NetworkInterface
    from repro.noc.router import Router
    from repro.noc.simulator import Simulator
    from repro.telemetry.tracer import Tracer
    from repro.traffic.bursty import BurstyTraffic
    from repro.traffic.generator import SyntheticTraffic
    from repro.traffic.trace import TraceTraffic

    w.wrap(Simulator, "step", "noc.step")
    w.wrap(KernelState, "sa_sweep", "noc.sa", _add("noc.sa_flits"))
    w.wrap(Router, "stage_sa", "noc.sa", _add("noc.sa_flits"))
    w.wrap(Router, "stage_vca", "noc.vca")
    w.wrap(Router, "stage_rc", "noc.rc")
    w.wrap(SharedMedium, "try_grant", "noc.token",
           _flag("noc.token_grants", lambda out: out is not None))
    w.wrap(Network, "inject_packet", "noc.inject")
    w.wrap(NetworkInterface, "pump", "noc.ni_pump", _add("noc.ni_pump_ok"))
    for cls in (SyntheticTraffic, BurstyTraffic, TraceTraffic):
        w.wrap(cls, "tick", "traffic.tick", _count_packets)
    w.wrap(FaultLayer, "tick", "faults.tick")
    w.wrap(executor, "build_topology", "core.build_topology")
    w.wrap(repro.workloads, "build_workload_traffic", "workloads.compile", _count_trace)
    w.wrap(Tracer, "finalize", "telemetry.finalize")
    w.wrap(Tracer, "metrics_dict", "telemetry.finalize")
    w.wrap(repro.power, "measure_power", "power.measure")


def install_runtime_wrappers(w: Wrappers) -> None:
    """Executor and analysis layers the parent process runs itself."""
    import repro.analysis.attribution as attribution
    import repro.runtime.executor as executor
    from repro.runtime.cache import ResultCache
    from repro.runtime.records import RunLog
    from repro.runtime.spec import RunSpec

    w.wrap(RunSpec, "digest", "runtime.digest")
    w.wrap(ResultCache, "get", "runtime.cache_get",
           _flag("runtime.cache_hits", lambda out: out is not None))
    w.wrap(ResultCache, "put", "runtime.cache_put")
    w.wrap(executor, "make_record", "runtime.record_write")
    w.wrap(RunLog, "write", "runtime.record_write")
    w.wrap(attribution, "attribute_metrics", "analysis.attribute")

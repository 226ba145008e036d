"""Shared machinery for application-model workload generators.

Every workload model in :mod:`repro.workloads` is a frozen description of
an application's communication behaviour that *compiles* to a
:class:`~repro.traffic.trace.TrafficTrace` -- a deterministic packet
schedule the existing replay machinery (:class:`~repro.traffic.trace.
TraceTraffic`) drives through any topology. The contract every generator
must honour (property-tested in ``tests/workloads``):

- **Pure function of (params, n_cores, seed).** All randomness flows
  through :class:`~repro.utils.rng.RngStreams` keyed on the workload
  name, so adding a generator never perturbs another's draws.
- **Byte-stable emission.** Same inputs -> the identical array contents
  (and, via ``TrafficTrace.save``, the identical ``.npz`` on one numpy
  version); different seeds -> different traces.
- **Replayable anywhere.** Emitted packets carry core ids in
  ``[0, n_cores)`` only, never topology internals, so one trace runs on
  OWN-256 and a 256-core mesh alike.
"""

from __future__ import annotations

import heapq
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.traffic.trace import TrafficTrace
from repro.utils.rng import RngStreams
from repro.utils.validation import check_positive


class TraceBuilder:
    """Accumulates (cycle, src, dst, size) emissions into a trace.

    Generators append in whatever order their model produces packets; the
    :class:`TrafficTrace` constructor's stable sort puts them in schedule
    order while preserving each cycle's emission order -- which therefore
    must itself be deterministic (it is: every generator walks plain data
    structures in index order).

    Rows come in one at a time (:meth:`emit`) or as whole arrays
    (:meth:`emit_block`); both apply the same drop rules and the rows keep
    their call order across any mix of the two.
    """

    def __init__(self, horizon: int) -> None:
        check_positive("horizon", horizon)
        self.horizon = int(horizon)
        #: Finished row blocks, each a (cycles, srcs, dsts, sizes) tuple.
        self._blocks: List[Tuple[np.ndarray, ...]] = []
        # Scalar rows since the last block, flushed before the next one.
        self._cycles: List[int] = []
        self._srcs: List[int] = []
        self._dsts: List[int] = []
        self._sizes: List[int] = []

    def emit(self, cycle: int, src: int, dst: int, size: int) -> None:
        """Record one packet; emissions at/after the horizon are dropped
        (an in-flight request DAG is simply cut off at the trace end, the
        same way a live generator's ``stop_cycle`` cuts injection)."""
        if cycle >= self.horizon or src == dst:
            return
        self._cycles.append(int(cycle))
        self._srcs.append(int(src))
        self._dsts.append(int(dst))
        self._sizes.append(int(size))

    def emit_block(
        self, cycles: np.ndarray, srcs: np.ndarray, dsts: np.ndarray, size: int
    ) -> None:
        """Record one packet per array row, in row order, all of ``size``
        flits; rows are dropped exactly as :meth:`emit` would drop them."""
        cycles = np.asarray(cycles, dtype=np.int64)
        srcs = np.asarray(srcs, dtype=np.int64)
        dsts = np.asarray(dsts, dtype=np.int64)
        keep = (cycles < self.horizon) & (srcs != dsts)
        n = int(np.count_nonzero(keep))
        if n == 0:
            return
        self._flush_rows()
        self._blocks.append(
            (cycles[keep], srcs[keep], dsts[keep], np.full(n, size, dtype=np.int64))
        )

    def _flush_rows(self) -> None:
        if self._cycles:
            self._blocks.append(tuple(
                np.asarray(rows, dtype=np.int64)
                for rows in (self._cycles, self._srcs, self._dsts, self._sizes)
            ))
            self._cycles, self._srcs, self._dsts, self._sizes = [], [], [], []

    def __len__(self) -> int:
        return sum(len(block[0]) for block in self._blocks) + len(self._cycles)

    def build(self) -> TrafficTrace:
        self._flush_rows()
        if not self._blocks:
            empty = np.zeros(0, dtype=np.int64)
            return TrafficTrace(empty, empty, empty, empty)
        return TrafficTrace(*(np.concatenate(col) for col in zip(*self._blocks)))


class EventQueue:
    """Deterministic discrete-event heap for generator-internal timelines.

    Ties on the timestamp are broken by insertion sequence number, so the
    processing order is a pure function of the generator's emission order
    -- never of heap internals or object identity.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, object]] = []
        self._seq = 0

    def push(self, cycle: int, payload: object) -> None:
        heapq.heappush(self._heap, (int(cycle), self._seq, payload))
        self._seq += 1

    def pop(self) -> Tuple[int, object]:
        cycle, _, payload = heapq.heappop(self._heap)
        return cycle, payload

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain_until(self, horizon: int) -> Iterator[Tuple[int, object]]:
        """Pop events in order until the queue empties or passes ``horizon``."""
        while self._heap and self._heap[0][0] < horizon:
            yield self.pop()


def workload_rng(seed: int, name: str, *key: object) -> np.random.Generator:
    """The single RNG-stream derivation every generator uses."""
    return RngStreams(int(seed)).get("workload", name, *key)


def spread_over_cores(
    n_items: int, n_cores: int, rng: np.random.Generator
) -> np.ndarray:
    """Map ``n_items`` logical endpoints onto distinct-ish cores.

    Items are dealt over a random permutation of the cores, wrapping when
    there are more items than cores -- placement is uniform but fixed for
    the whole trace, like a static deployment.
    """
    perm = rng.permutation(n_cores)
    return perm[np.arange(n_items) % n_cores]


def geometric_delay(rng: np.random.Generator, mean: float) -> int:
    """Integer delay >= 1 with the given mean (degenerate mean -> 1)."""
    if mean <= 1.0:
        return 1
    return int(rng.geometric(1.0 / mean))


class WorkloadModel:
    """Base class: parameter validation + the ``trace()`` entry point.

    Subclasses implement :meth:`_generate` against a fresh
    :class:`TraceBuilder`; ``trace()`` wraps it with the common horizon
    bookkeeping so every model compiles the same way.
    """

    #: Registry key; subclasses override.
    name = "base"

    def __init__(self, duration: int = 2000, seed: int = 1) -> None:
        check_positive("duration", duration)
        self.duration = int(duration)
        self.seed = int(seed)

    def rng(self, *key: object) -> np.random.Generator:
        return workload_rng(self.seed, self.name, *key)

    def trace(self, n_cores: int) -> TrafficTrace:
        check_positive("n_cores", n_cores)
        builder = TraceBuilder(self.duration)
        self._generate(builder, int(n_cores))
        out = builder.build()
        out.validate(n_cores)
        return out

    def _generate(self, builder: TraceBuilder, n_cores: int) -> None:
        raise NotImplementedError

    def describe(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(duration={self.duration}, seed={self.seed})"

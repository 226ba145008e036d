"""The vectorized collective compile against the per-packet reference.

``reference_trace`` is the collective generator written one ``emit`` per
transfer over plain Python step lists, walking every step of every
iteration and leaving the horizon cut to :class:`TraceBuilder`. The
shipped generator emits whole steps with ``emit_block`` and stops at the
first step that starts past the horizon; the two must compile
byte-identical arrays for every parameter combination.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traffic.trace import TRACE_FIELDS
from repro.workloads import CollectiveWorkload, TraceBuilder
from repro.workloads.collectives import COLLECTIVE_KINDS, _grid_dims


def _ring_steps(p):
    one_step = [(r, (r + 1) % p) for r in range(p)]
    return [list(one_step) for _ in range(2 * (p - 1))]


def _tree_steps(p):
    levels = []
    stride = 1
    while stride < p:
        levels.append([(r + stride, r) for r in range(0, p, 2 * stride) if r + stride < p])
        stride *= 2
    return levels + [[(dst, src) for src, dst in level] for level in reversed(levels)]


def _stencil_steps(p):
    nx, ny, nz = _grid_dims(p)

    def rank(x, y, z):
        return (x % nx) + nx * ((y % ny) + ny * (z % nz))

    transfers = []
    for z in range(nz):
        for y in range(ny):
            for x in range(nx):
                r = rank(x, y, z)
                for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    nb = rank(x + dx, y + dy, z + dz)
                    if nb != r:
                        transfers.append((r, nb))
    return [transfers]


REFERENCE_STEPS = {
    "allreduce_ring": _ring_steps,
    "allreduce_tree": _tree_steps,
    "stencil3d": _stencil_steps,
}


def reference_trace(wl, n_cores):
    builder = TraceBuilder(wl.duration)
    cores = wl._rank_cores(n_cores)
    skew = wl._skews(len(cores))
    steps = REFERENCE_STEPS[wl.kind](len(cores))
    iter_span = len(steps) * wl.step_cycles + wl.compute_cycles
    for it in range(wl.iterations):
        base = it * iter_span
        if base >= wl.duration:
            break
        for k, transfers in enumerate(steps):
            t = base + k * wl.step_cycles
            for src, dst in transfers:
                builder.emit(
                    t + int(skew[src]), int(cores[src]), int(cores[dst]),
                    wl.message_size,
                )
    return builder.build()


@st.composite
def collectives(draw):
    n_cores = draw(st.integers(min_value=2, max_value=72))
    participants = draw(st.sampled_from([0, 2, n_cores]) | st.integers(2, n_cores))
    wl = CollectiveWorkload(
        duration=draw(st.integers(min_value=1, max_value=600)),
        seed=draw(st.integers(min_value=0, max_value=2**16 - 1)),
        kind=draw(st.sampled_from(COLLECTIVE_KINDS)),
        participants=participants,
        iterations=draw(st.integers(min_value=1, max_value=6)),
        message_size=draw(st.integers(min_value=1, max_value=5)),
        compute_cycles=draw(st.integers(min_value=0, max_value=50)),
        step_cycles=draw(st.integers(min_value=1, max_value=20)),
        skew_max=draw(st.sampled_from([0, 1]) | st.integers(0, 40)),
    )
    return wl, n_cores


@settings(max_examples=200, deadline=None)
@given(case=collectives())
def test_collective_compile_matches_per_packet_reference(case):
    wl, n_cores = case
    got, want = wl.trace(n_cores), reference_trace(wl, n_cores)
    for field in TRACE_FIELDS:
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes(), field


class _CountingBuilder(TraceBuilder):
    offered = 0

    def emit(self, cycle, src, dst, size):
        self.offered += 1
        super().emit(cycle, src, dst, size)

    def emit_block(self, cycles, srcs, dsts, size):
        self.offered += len(cycles)
        super().emit_block(cycles, srcs, dsts, size)


def test_ring_compile_offers_only_rows_before_the_horizon():
    # OWN-1024 scenario shape: 2 * 1023 steps per iteration, but only the
    # steps starting before cycle 300 may reach the builder.
    wl = CollectiveWorkload(duration=300, seed=1, kind="allreduce_ring")
    builder = _CountingBuilder(wl.duration)
    wl._generate(builder, 1024)
    assert 0 < len(builder) <= builder.offered
    assert builder.offered <= math.ceil(300 / wl.step_cycles) * 1024


class TestTraceBuilder:
    def test_emit_block_applies_emit_drop_rules(self):
        rows = [(5, 0, 1), (10, 2, 3), (3, 4, 4), (9, 5, 6), (11, 7, 8)]
        scalar, block = TraceBuilder(10), TraceBuilder(10)
        for c, s, d in rows:
            scalar.emit(c, s, d, 2)
        block.emit_block(*(np.array(col) for col in zip(*rows)), 2)
        assert len(scalar) == len(block) == 2
        for field in TRACE_FIELDS:
            assert np.array_equal(
                getattr(scalar.build(), field), getattr(block.build(), field)
            )

    def test_mixed_emit_and_block_keep_call_order(self):
        b = TraceBuilder(100)
        b.emit(7, 0, 1, 1)
        b.emit_block(np.array([7, 7]), np.array([2, 4]), np.array([3, 5]), 2)
        b.emit(7, 6, 7, 3)
        b.emit_block(np.array([99, 100]), np.array([8, 9]), np.array([1, 1]), 4)
        assert len(b) == 5
        trace = b.build()
        # One cycle, so the stable sort leaves pure call order.
        assert trace.srcs[:4].tolist() == [0, 2, 4, 6]
        assert trace.sizes.tolist() == [1, 2, 2, 3, 4]

    @pytest.mark.parametrize("horizon", [1, 5])
    def test_empty_builder_builds_empty_trace(self, horizon):
        b = TraceBuilder(horizon)
        b.emit_block(np.array([horizon]), np.array([0]), np.array([1]), 1)
        trace = b.build()
        assert len(trace) == 0
        assert all(getattr(trace, f).dtype == np.int64 for f in TRACE_FIELDS)

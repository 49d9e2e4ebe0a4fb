"""The kernel's event queue against a ``sorted()`` oracle.

The kernel's correctness contract is a total order over ``(time, priority,
seq)``.  These tests pin it two ways: structurally (random push/cancel/pop
interleavings, compactions included, against a sorted list of the live
entries) and at kernel level (random timer workloads through
:class:`Environment` must fire in sorted ``(time, creation)`` order).
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.sim.kernel import Environment
from repro.sim.scheduler import HeapScheduler

common_settings = settings(max_examples=60, deadline=None,
                           suppress_health_check=[HealthCheck.too_slow])


class _Stub:
    """Stands in for a kernel Event/Timer: only ``cancelled`` matters."""

    __slots__ = ("cancelled",)

    def __init__(self):
        self.cancelled = False


# ---------------------------------------------------------------------------
# Structural order: random op sequences against sorted()
# ---------------------------------------------------------------------------

# Coarse timestamps make same-time collisions common rather than
# measure-zero; cancels are frequent enough to trigger compactions.
op_strategy = st.lists(
    st.tuples(
        st.sampled_from(["push", "push", "push", "pop", "cancel", "cancel"]),
        st.integers(min_value=0, max_value=12),   # time (coarse)
        st.integers(min_value=0, max_value=2),    # priority
        st.integers(min_value=0, max_value=10_000),  # cancel victim pick
    ),
    min_size=1, max_size=200)


def _live_sorted(pending):
    return sorted((e for e in pending if not e[3].cancelled),
                  key=lambda e: e[:3])


@common_settings
@given(ops=op_strategy)
def test_heap_pop_order_matches_sorted(ops):
    """Every peek/pop returns the minimal live entry of a sorted() model,
    and a cancel never leaves cancelled entries outnumbering live ones."""
    sched = HeapScheduler()
    seq = 0
    pending = []
    for kind, coarse_time, priority, pick in ops:
        if kind == "push":
            entry = (coarse_time / 4.0, priority, seq, _Stub())
            seq += 1
            pending.append(entry)
            sched.push(entry)
        elif kind == "cancel":
            live = _live_sorted(pending)
            if live:
                live[pick % len(live)][3].cancelled = True
                sched.note_cancelled()
                assert sched._cancelled * 2 <= len(sched)
        else:  # pop
            expected = _live_sorted(pending)
            if not expected:
                assert sched.peek() is None
                with pytest.raises(IndexError):
                    sched.pop()
                continue
            assert sched.peek() is expected[0]
            assert sched.pop() is expected[0]
            pending.remove(expected[0])
    drain = []
    while len(sched):
        try:
            drain.append(sched.pop())
        except IndexError:
            break
    assert drain == _live_sorted(pending)


# ---------------------------------------------------------------------------
# Kernel-level order: timer workloads through Environment
# ---------------------------------------------------------------------------

delay_strategy = st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0, 1.5, 2.0, 5.0])

timer_workload = st.tuples(
    st.lists(delay_strategy, min_size=1, max_size=30),        # timer delays
    st.lists(st.tuples(delay_strategy,                        # cancel after
                       st.integers(min_value=0, max_value=29)),  # victim
             max_size=10),
)


@common_settings
@given(workload=timer_workload)
def test_kernel_trace_matches_sorted_timer_order(workload):
    """Timers fire in sorted (time, creation) order, minus the cancelled.

    Every timer is created at t=0 before the canceller starts, so a timer
    due at the same instant as a cancel has the smaller ``seq`` and fires
    first: a timer is revoked only by a cancel strictly before its time.
    """
    timers, cancels = workload
    env = Environment()
    trace = []
    handles = [
        env.call_later(delay,
                       lambda _ev, i=i: trace.append((env.now, i)))
        for i, delay in enumerate(timers)
    ]
    revoked_at = {}
    at = 0.0
    for delay, victim in cancels:
        at += delay
        revoked_at.setdefault(victim % len(handles), at)

    def canceller():
        for delay, victim in cancels:
            yield env.timeout(delay)
            handles[victim % len(handles)].cancel()

    if cancels:
        env.process(canceller())
    env.run()
    expected = sorted((delay, i) for i, delay in enumerate(timers)
                      if not revoked_at.get(i, delay) < delay)
    assert trace == expected


# ---------------------------------------------------------------------------
# Cancelled-timer residency: compaction keeps corpses from squatting
# ---------------------------------------------------------------------------

def test_cancelled_timers_are_compacted_away():
    env = Environment()
    live = env.call_later(100.0, lambda _ev: None)
    corpses = [env.call_later(float(i + 1), lambda _ev: None)
               for i in range(500)]
    for timer in corpses:
        timer.cancel()
    # More than half the queue was cancelled: at least one compaction ran
    # and the structure no longer carries ~500 dead entries.
    assert env.scheduler.compactions >= 1
    assert len(env.scheduler) <= 2
    env.run()
    assert live.cancelled is False
    assert env.now == 100.0


def test_cancel_rearm_storm_processes_once():
    """The kernel's timer-reschedule pattern stays O(live)."""
    env = Environment()
    fired = []
    timer = env.call_later(1.0, lambda _ev: fired.append(env.now))
    for i in range(50):
        timer.cancel()
        timer = env.call_later(1.0 + i * 1e-3, lambda _ev: fired.append(env.now))
    env.run()
    assert fired == [1.0 + 49 * 1e-3]
    assert env.processed_events == 1


def test_double_cancel_counts_once():
    env = Environment()
    env.call_later(0.5, lambda _ev: None)  # keep the queue half live
    timer = env.call_later(1.0, lambda _ev: None)
    assert timer.cancel() is True
    assert timer.cancel() is True   # cancelling twice is idempotent...
    assert env.scheduler._cancelled == 1  # ...and accounted once

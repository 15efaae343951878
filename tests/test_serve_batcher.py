"""Micro-batcher invariants: the serving layer's contract.

Covers both faces of the coalescing policy:

* :func:`repro.serve.plan_batches` — the pure law, checked with
  hypothesis against arbitrary sorted arrival schedules (nothing
  lost, nothing duplicated, order preserved, max-batch and max-wait
  bounds respected, deterministic);
* :class:`repro.serve.MicroBatcher` — the live asyncio engine,
  checked for the same invariants end to end under seeded arrival
  schedules, plus backpressure and FIFO-per-key dispatch.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve import BatchPolicy, MicroBatcher, plan_batches
from repro.workloads.traffic import make_traffic

# ---------------------------------------------------------------------
# Pure coalescing law (hypothesis)
# ---------------------------------------------------------------------
policies = st.builds(
    BatchPolicy,
    max_batch=st.integers(min_value=1, max_value=9),
    max_wait_s=st.floats(
        min_value=0.0, max_value=0.05,
        allow_nan=False, allow_infinity=False,
    ),
    max_queue=st.just(10_000),
)

schedules = st.lists(
    st.floats(min_value=0.0, max_value=1.0,
              allow_nan=False, allow_infinity=False),
    min_size=0, max_size=60,
).map(sorted)


class TestPlanBatches:
    @given(times=schedules, policy=policies)
    @settings(max_examples=150, deadline=None)
    def test_partition_invariants(self, times, policy):
        batches = plan_batches(times, policy)
        flat = [i for batch in batches for i in batch]
        # No request lost, none duplicated, order preserved.
        assert flat == list(range(len(times)))
        for batch in batches:
            # Dispatch-size bound.
            assert 1 <= len(batch) <= policy.max_batch
            # Max-wait bound: everything in a batch arrived within
            # max_wait of the batch's first member.
            first = times[batch[0]]
            assert times[batch[-1]] <= first + policy.max_wait_s

    @given(times=schedules, policy=policies)
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, times, policy):
        assert plan_batches(times, policy) == plan_batches(times, policy)

    def test_max_batch_splits(self):
        policy = BatchPolicy(max_batch=2, max_wait_s=10.0)
        assert plan_batches([0.0] * 5, policy) == [[0, 1], [2, 3], [4]]

    def test_max_wait_splits(self):
        policy = BatchPolicy(max_batch=100, max_wait_s=0.01)
        batches = plan_batches([0.0, 0.005, 0.05, 0.051], policy)
        assert batches == [[0, 1], [2, 3]]

    def test_unsorted_rejected(self):
        with pytest.raises(ServeError, match="sorted"):
            plan_batches([1.0, 0.5], BatchPolicy())

    def test_traffic_schedule_round_trips(self):
        sched = make_traffic("poisson", 50, rate=500, seed=3)
        batches = plan_batches(
            [a.time_s for a in sched.arrivals],
            BatchPolicy(max_batch=8, max_wait_s=0.004),
        )
        assert sum(len(b) for b in batches) == 50


class TestWaitHints:
    @given(times=schedules, policy=policies, data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_wait_hint_invariants(self, times, policy, data):
        """Per-item wait hints (the router's SLO override) tighten but
        never loosen the law: a batch closes at the *minimum* over its
        members of ``arrival + wait``."""
        hints = data.draw(st.lists(
            st.one_of(
                st.none(),
                st.floats(min_value=0.0, max_value=0.05,
                          allow_nan=False, allow_infinity=False),
            ),
            min_size=len(times), max_size=len(times),
        ))
        batches = plan_batches(times, policy, wait_hints=hints)
        flat = [i for batch in batches for i in batch]
        assert flat == list(range(len(times)))

        def wait(i):
            return policy.max_wait_s if hints[i] is None else hints[i]

        for batch in batches:
            assert 1 <= len(batch) <= policy.max_batch
            # Every member arrived no later than every other member's
            # own close bound: no request waits past its own hint.
            close = min(times[i] + wait(i) for i in batch)
            assert times[batch[-1]] <= close

    @given(times=schedules, policy=policies)
    @settings(max_examples=100, deadline=None)
    def test_default_hints_equal_no_hints(self, times, policy):
        """All-None hints are exactly the unhinted law."""
        assert plan_batches(
            times, policy, wait_hints=[None] * len(times)
        ) == plan_batches(times, policy)

    def test_hint_length_mismatch_rejected(self):
        with pytest.raises(ServeError, match="wait_hints"):
            plan_batches([0.0, 1.0], BatchPolicy(), wait_hints=[None])


class TestPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [{"max_batch": 0}, {"max_wait_s": -1.0}, {"max_queue": 0}],
    )
    def test_bad_policy_rejected(self, kwargs):
        with pytest.raises(ServeError):
            BatchPolicy(**kwargs)


# ---------------------------------------------------------------------
# Live asyncio engine
# ---------------------------------------------------------------------
def run(coro):
    return asyncio.run(coro)


class TestMicroBatcherLive:
    def _collect(self, policy, items_by_key):
        """Feed items (key -> list) synchronously, return dispatches."""

        async def main():
            dispatched: list[tuple[str, list]] = []

            async def on_batch(key, batch):
                dispatched.append((key, list(batch)))

            batcher = MicroBatcher(policy, on_batch)
            accepted = {}
            for key, items in items_by_key.items():
                accepted[key] = [
                    batcher.submit_nowait(key, item) for item in items
                ]
            await batcher.close()
            return dispatched, accepted, batcher

        return run(main())

    def test_no_item_lost_duplicated_or_reordered(self):
        items = {"a": list(range(25)), "b": list(range(100, 117))}
        policy = BatchPolicy(max_batch=4, max_wait_s=0.0)
        dispatched, accepted, batcher = self._collect(policy, items)
        assert all(all(flags) for flags in accepted.values())
        for key, sent in items.items():
            got = [
                item for k, batch in dispatched for item in batch
                if k == key
            ]
            assert got == sent  # FIFO per key, complete, no dupes
        assert batcher.stats.dispatched == sum(len(v) for v in items.values())
        assert batcher.last_error is None

    def test_max_batch_respected(self):
        policy = BatchPolicy(max_batch=3, max_wait_s=0.0)
        dispatched, _, _ = self._collect(policy, {"a": list(range(10))})
        sizes = [len(batch) for _, batch in dispatched]
        assert all(size <= 3 for size in sizes)
        assert sum(sizes) == 10

    def test_batch_one_policy_never_coalesces(self):
        policy = BatchPolicy(max_batch=1, max_wait_s=0.01)
        dispatched, _, _ = self._collect(policy, {"a": list(range(6))})
        assert [len(b) for _, b in dispatched] == [1] * 6

    def test_backpressure_rejects_beyond_max_queue(self):
        async def main():
            started = asyncio.Event()
            release = asyncio.Event()

            async def on_batch(key, batch):
                started.set()
                await release.wait()

            # max_queue=2: one in flight + one queued, third rejected.
            batcher = MicroBatcher(
                BatchPolicy(max_batch=1, max_wait_s=0.0, max_queue=2),
                on_batch,
            )
            assert batcher.submit_nowait("a", 1)
            await started.wait()
            assert batcher.submit_nowait("a", 2)
            assert not batcher.submit_nowait("a", 3)
            assert batcher.stats.rejected == 1
            release.set()
            await batcher.close()
            assert batcher.depth == 0

        run(main())

    def test_max_wait_flushes_partial_batch(self):
        async def main():
            dispatched = []

            async def on_batch(key, batch):
                dispatched.append(list(batch))

            batcher = MicroBatcher(
                BatchPolicy(max_batch=100, max_wait_s=0.01), on_batch
            )
            loop = asyncio.get_running_loop()
            t0 = loop.time()
            batcher.submit_nowait("a", "lonely")
            await batcher.drain()
            waited = loop.time() - t0
            assert dispatched == [["lonely"]]
            # Flushed by the timer: it waited ~max_wait, not forever.
            assert waited >= 0.005
            await batcher.close()

        run(main())

    def test_deterministic_under_seeded_arrivals(self):
        """Same seeded schedule, enqueued identically twice, produces
        the identical batch partition (max_wait=0: no wall clock in
        the loop)."""
        sched = make_traffic("bursty", 40, rate=2000, seed=7)
        items = {"p": [a.value_seed for a in sched.arrivals]}
        policy = BatchPolicy(max_batch=5, max_wait_s=0.0)
        first, _, _ = self._collect(policy, items)
        second, _, _ = self._collect(policy, items)
        assert first == second

    def test_closed_batcher_rejects_submissions(self):
        async def main():
            async def on_batch(key, batch):
                return None

            batcher = MicroBatcher(BatchPolicy(), on_batch)
            await batcher.close()
            with pytest.raises(ServeError, match="closed"):
                batcher.submit_nowait("a", 1)

        run(main())

    def test_callback_failure_keeps_collector_alive(self):
        async def main():
            calls = []

            async def on_batch(key, batch):
                calls.append(list(batch))
                if len(calls) == 1:
                    raise RuntimeError("boom")

            batcher = MicroBatcher(
                BatchPolicy(max_batch=1, max_wait_s=0.0), on_batch
            )
            batcher.submit_nowait("a", 1)
            await batcher.drain()
            batcher.submit_nowait("a", 2)
            await batcher.close()
            assert calls == [[1], [2]]
            assert isinstance(batcher.last_error, RuntimeError)

        run(main())

    def test_max_wait_anchored_to_arrival_not_collector_wakeup(self):
        """The anchor law, live: an item that queued up while the
        previous batch executed has its max_wait clock running from
        *enqueue* (what plan_batches anchors to).  If the clock
        (wrongly) started at collector wake-up, the tail item below
        would wait a full fresh window after the hold — ~0.5s from
        enqueue instead of ~0.3s."""

        async def main():
            dispatched = []
            release = asyncio.Event()

            async def on_batch(key, batch):
                dispatched.append(list(batch))
                if batch == ["head"]:
                    await release.wait()  # hold the collector busy

            batcher = MicroBatcher(
                BatchPolicy(max_batch=100, max_wait_s=0.3), on_batch
            )
            loop = asyncio.get_running_loop()
            batcher.submit_nowait("a", "head", wait_s=0.0)
            await asyncio.sleep(0.01)
            enqueued_at = loop.time()
            batcher.submit_nowait("a", "tail")
            await asyncio.sleep(0.2)  # 0.2s of tail's window burns
            release.set()             # ...while it sits queued
            await batcher.drain()
            waited = loop.time() - enqueued_at
            await batcher.close()
            return dispatched, waited

        dispatched, waited = run(main())
        assert dispatched == [["head"], ["tail"]]
        # Dispatched ~max_wait after ENQUEUE (0.3s), not ~max_wait
        # after the collector woke up (0.2 + 0.3 = 0.5s).
        assert 0.2 <= waited < 0.45

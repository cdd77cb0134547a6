"""Client retry policy and the virtual-time worker pool.

The client side of graceful degradation: bounded retries with jittered
exponential backoff against transient faults, fail-fast behaviour
preserved when no policy is set.  Plus the queueing model that turns
the synchronous simulation into measurable p95/p99 latency.
"""

import pytest

from repro import Testbed, ProtocolConfig
from repro.crypto.rng import DeterministicRandom
from repro.kerberos.client import KerberosError, RetryPolicy
from repro.kerberos.principal import Principal
from repro.obs.bus import capture
from repro.serve.pool import (
    DEFAULT_BATCH_OVERHEAD_US, DEFAULT_BATCH_WINDOW_US, DEFAULT_OVERHEAD_US,
    DEFAULT_US_PER_BLOCK_OP, WorkerPool,
)
from repro.sim.clock import MILLISECOND, SECOND, SimClock
from repro.sim.network import NetworkError

REPLAY_CONFIG = ProtocolConfig.v5_draft3().but(replay_cache=True)


# -- RetryPolicy --------------------------------------------------------


def test_backoff_grows_and_caps():
    policy = RetryPolicy(backoff_base=50 * MILLISECOND,
                         backoff_cap=2 * SECOND, jitter=0.0)
    rng = DeterministicRandom(1)
    delays = [policy.backoff_us(attempt, rng) for attempt in range(8)]
    assert delays[0] == 50 * MILLISECOND
    assert delays[1] == 100 * MILLISECOND
    assert delays == sorted(delays)
    assert delays[-1] == 2 * SECOND


def test_backoff_jitter_stays_within_spread():
    policy = RetryPolicy(backoff_base=100 * MILLISECOND, jitter=0.5)
    rng = DeterministicRandom(2)
    for attempt in range(4):
        base = min(policy.backoff_cap, policy.backoff_base << attempt)
        for _ in range(20):
            delay = policy.backoff_us(attempt, rng)
            assert base // 2 <= delay <= base + base // 2


def test_backoff_is_deterministic_per_seed():
    policy = RetryPolicy()
    a = [policy.backoff_us(i, DeterministicRandom(3).fork("r"))
         for i in range(4)]
    b = [policy.backoff_us(i, DeterministicRandom(3).fork("r"))
         for i in range(4)]
    assert a == b


# -- retries against transient faults ----------------------------------


def flaky_drop(bed, service, failures):
    """Drop the first *failures* requests to *service*, then recover."""
    state = {"left": failures}

    def predicate(message):
        if (message.dst.service == service
                and message.direction == "request" and state["left"] > 0):
            state["left"] -= 1
            return True
        return False

    bed.adversary.drop_if(predicate)


def test_login_survives_transient_drops_with_policy():
    with capture() as cap:
        bed = Testbed(REPLAY_CONFIG, seed=7, shards=2)
        bed.add_user("pat", "correct horse")
        flaky_drop(bed, "kerberos", failures=2)
        outcome = bed.login(
            "pat", "correct horse", bed.add_workstation("ws1"),
            retry_policy=RetryPolicy(max_retries=3),
        )
    assert outcome.credentials.server.is_tgs
    assert outcome.client.retries == 2
    retried = [e for e in cap.events if e.kind == "RequestRetried"]
    assert [e.attempt for e in retried] == [1, 2]
    assert all(e.backoff_us > 0 for e in retried)


def test_backoff_advances_simulated_time():
    bed = Testbed(REPLAY_CONFIG, seed=7, shards=2)
    bed.add_user("pat", "correct horse")
    flaky_drop(bed, "kerberos", failures=1)
    before = bed.clock.now()
    bed.login("pat", "correct horse", bed.add_workstation("ws1"),
              retry_policy=RetryPolicy(max_retries=2, jitter=0.0,
                                       backoff_base=40 * MILLISECOND))
    assert bed.clock.now() - before >= 40 * MILLISECOND


def test_retries_exhaust_to_unavailable_error():
    bed = Testbed(REPLAY_CONFIG, seed=3, shards=2)
    bed.add_user("pat", "pw")
    home = bed.realm.cluster.shard_for_principal(
        Principal("pat", "", bed.realm.name)
    )
    bed.network.fail_host(home.host.address)
    with pytest.raises(KerberosError) as err:
        bed.login("pat", "pw", bed.add_workstation("ws1"),
                  retry_policy=RetryPolicy(max_retries=2))
    assert err.value.code == 12  # ERR_UNAVAILABLE
    # 1 original + 2 retries, each counted by the frontend.
    assert bed.realm.cluster.unavailable == 3


def test_no_policy_means_fail_fast():
    bed = Testbed(REPLAY_CONFIG, seed=7, shards=2)
    bed.add_user("pat", "correct horse")
    flaky_drop(bed, "kerberos", failures=1)
    with pytest.raises(NetworkError):
        bed.login("pat", "correct horse", bed.add_workstation("ws1"))


def test_non_retryable_errors_are_not_retried():
    bed = Testbed(REPLAY_CONFIG, seed=7, shards=2)
    bed.add_user("pat", "correct horse")
    with pytest.raises(KerberosError):
        bed.login("pat", "wrong password", bed.add_workstation("ws1"),
                  retry_policy=RetryPolicy(max_retries=3))
    # A decrypt failure is the client's problem, not the service's.
    assert bed.realm.cluster.requests["kerberos"] == 1


# -- WorkerPool ---------------------------------------------------------


# Expected times come from the pool's cost constants, so these tests
# keep checking behaviour when the constants are re-measured.
COLD = DEFAULT_OVERHEAD_US
WARM = DEFAULT_BATCH_OVERHEAD_US
WINDOW = DEFAULT_BATCH_WINDOW_US


def _service(block_ops, warm=False):
    return (WARM if warm else COLD) + int(block_ops * DEFAULT_US_PER_BLOCK_OP)


def test_idle_pool_starts_immediately():
    pool = WorkerPool(workers=2)
    start, finish = pool.schedule(arrival=1000, block_ops=50)
    assert start == 1000
    assert finish == 1000 + _service(50)
    assert pool.queue_wait_us == 0


def test_saturated_pool_queues():
    pool = WorkerPool(workers=1)
    s1, f1 = pool.schedule(arrival=0, block_ops=100)
    s2, f2 = pool.schedule(arrival=0, block_ops=100)   # must wait
    assert (s1, f1) == (0, _service(100))
    assert s2 == f1
    assert f2 == s2 + _service(100, warm=s2 - s1 <= WINDOW)
    assert pool.queue_wait_us == f1
    assert pool.max_queue_wait_us == f1


def test_two_workers_run_two_jobs_in_parallel():
    pool = WorkerPool(workers=2)
    pool.schedule(arrival=0, block_ops=100)
    s2, _ = pool.schedule(arrival=0, block_ops=100)
    assert s2 == 0, "second worker picks up the second job at once"
    assert pool.queue_wait_us == 0


def test_batch_window_amortises_overhead():
    assert WARM < COLD
    pool = WorkerPool(workers=2)
    _, f1 = pool.schedule(arrival=0, block_ops=0)
    assert f1 == COLD                      # cold dispatch
    _, f2 = pool.schedule(arrival=WINDOW // 2, block_ops=0)
    assert f2 == WINDOW // 2 + WARM        # rode the warm batch
    assert pool.batched_jobs == 1
    # Past the window: cold again.
    late = max(f1, f2) + WINDOW + 1
    _, f3 = pool.schedule(arrival=late, block_ops=0)
    assert f3 == late + COLD
    assert pool.stats()["jobs"] == 3


def test_queue_depth_counts_only_arrived_jobs():
    # The scale model admits a request one wire transit before it
    # arrives; until then it is not in the queue.
    pool = WorkerPool(workers=1)
    _, finish = pool.schedule(arrival=100, block_ops=0)
    assert pool.queue_depth(50) == 0
    assert pool.queue_depth(100) == 1
    assert pool.queue_depth(finish) == 0


def test_pool_rejects_zero_workers():
    with pytest.raises(ValueError):
        WorkerPool(workers=0)


# -- HostClock.wait -----------------------------------------------------


def test_host_clock_wait_advances_true_time_not_offset():
    from repro.sim.clock import HostClock

    clock = SimClock(start=1000)
    host_view = HostClock(clock, offset=500)
    host_view.wait(250)
    assert clock.now() == 1250
    assert host_view.now() == 1750
    assert host_view.skew() == 500

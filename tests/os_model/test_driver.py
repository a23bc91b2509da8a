"""Tests for the netdevice driver layer."""

import pytest

from repro.core import Testbed
from repro.nic.packet import Flow
from repro.os_model.driver import StandardDriver


def test_standard_driver_validates_pf_id():
    testbed = Testbed("local")
    with pytest.raises(ValueError):
        StandardDriver(testbed.server.machine, testbed.server.nic, pf_id=5)


def test_standard_driver_has_queue_pair_per_core():
    testbed = Testbed("local")
    driver = testbed.server.driver
    machine = testbed.server.machine
    for core in machine.cores:
        assert driver.rx_queue_for_core(core).core is core
        assert driver.tx_queue_for_core(core).core is core


def test_standard_driver_all_queues_use_its_pf():
    testbed = Testbed("remote")
    driver = testbed.server.driver
    for queue in driver.queues.rx + driver.queues.tx:
        assert queue.pf is testbed.server.nic.pf(0)


def test_standard_driver_queue_memory_is_core_local():
    testbed = Testbed("local")
    driver = testbed.server.driver
    for core in testbed.server.machine.cores:
        rxq = driver.rx_queue_for_core(core)
        assert rxq.ring.home_node == core.node_id
        assert rxq.buffers.home_node == core.node_id


def test_standard_driver_dst_mac_matches_pf():
    testbed = Testbed("local")
    driver = testbed.server.driver
    assert driver.dst_mac() == testbed.server.nic.firmware.mac_for_pf(0)


def test_steer_rx_first_time_immediate():
    testbed = Testbed("local")
    driver = testbed.server.driver
    flow = Flow.make(0)
    core = testbed.server_core(2)
    driver.steer_rx(flow, core)  # no existing rule -> applied now
    queue = testbed.server.nic.firmware.arfs[0].target(flow)
    assert queue.core is core


def test_steer_rx_resteer_is_deferred():
    testbed = Testbed("local")
    driver = testbed.server.driver
    firmware = testbed.server.nic.firmware
    flow = Flow.make(0)
    a, b = testbed.server_core(0), testbed.server_core(1)
    driver.steer_rx(flow, a, immediate=True)
    driver.rx_queue_for_core(a).outstanding = 10
    driver.steer_rx(flow, b)
    assert firmware.arfs[0].target(flow).core is a  # not yet
    testbed.run(testbed.env.now + 10_000_000)
    assert firmware.arfs[0].target(flow).core is b


@pytest.mark.parametrize("config", ["local", "ioctopus"])
def test_resteer_keeps_rule_recency(config):
    """A re-steer reads the flow's current queue without touching its
    rule's recency: a rule hit at 1 ms survives a 0.6 ms idle expiry
    at 1.1 ms after moving to another core on the same PF."""
    testbed = Testbed(config)
    driver = testbed.server.driver
    firmware = testbed.server.nic.firmware
    flow = Flow.make(0)
    core, other = testbed.server_core(0), testbed.server_core(1)
    driver.steer_rx(flow, core, immediate=True)
    testbed.run(1_000_000)
    firmware.steer_rx(flow, driver.dst_mac(), now=1_000_000)
    driver.steer_rx(flow, other)
    testbed.run(1_100_000)
    arfs = firmware.arfs[driver.rx_queue_for_core(other).pf.pf_id]
    assert arfs.target(flow).core is other
    assert arfs.expire_idle(now=1_100_000, idle_ns=600_000) == []


def test_drain_delay_scales_with_outstanding():
    testbed = Testbed("local")
    driver = testbed.server.driver
    queue = driver.rx_queue_for_core(testbed.server_core(0))
    queue.outstanding = 0
    short = driver._drain_delay_ns(queue)
    queue.outstanding = 1000
    assert driver._drain_delay_ns(queue) > short


def test_queue_drained_flag():
    testbed = Testbed("local")
    queue = testbed.server.driver.rx_queue_for_core(testbed.server_core(0))
    assert queue.is_drained()
    queue.outstanding = 5
    assert not queue.is_drained()


def test_unconfigured_driver_gives_clear_error():
    from repro.os_model.driver import NetDriver
    testbed = Testbed("local")
    bare = NetDriver(testbed.server.machine, testbed.server.nic)
    core = testbed.server_core(0)
    with pytest.raises(RuntimeError, match="no queues configured"):
        bare.rx_queue_for_core(core)
    with pytest.raises(RuntimeError, match="no queues configured"):
        bare.tx_queue_for_core(core)


def test_call_with_retry_succeeds_after_transient_failure():
    from repro.sim.errors import DeviceGoneError
    testbed = Testbed("local")
    driver = testbed.server.driver
    attempts = []

    def flaky():
        attempts.append(testbed.env.now)
        if len(attempts) < 3:
            raise DeviceGoneError("gone")
        return "ok"

    outcome = {}

    def body():
        outcome["result"] = yield from driver.call_with_retry(
            flaky, base_backoff_ns=2_000)

    testbed.env.process(body(), name="retry-test")
    testbed.run(1_000_000)
    assert outcome["result"] == "ok"
    assert driver.retries == 2
    # Exponential backoff: 2 us after the first failure, 4 us after the
    # second.
    assert attempts == [0, 2_000, 6_000]


def test_call_with_retry_gives_up_with_timeout_error():
    from repro.sim.errors import DeviceGoneError, DeviceTimeoutError

    testbed = Testbed("local")
    driver = testbed.server.driver

    def always_dead():
        raise DeviceGoneError("still gone")

    failures = {}

    def body():
        try:
            yield from driver.call_with_retry(always_dead, max_attempts=3)
        except DeviceTimeoutError as error:
            failures["error"] = error
            failures["at"] = testbed.env.now

    testbed.env.process(body(), name="retry-timeout-test")
    testbed.run(1_000_000)
    assert "still gone" in str(failures["error"])
    assert failures["at"] == 2_000 + 4_000  # two backoffs, then give up
    assert driver.retries == 2


def test_call_with_retry_rejects_bad_max_attempts():
    testbed = Testbed("local")
    with pytest.raises(ValueError):
        list(testbed.server.driver.call_with_retry(lambda: 1,
                                                   max_attempts=0))

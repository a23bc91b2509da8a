"""Tests for flows and packet arithmetic."""

import os
import pickle
import subprocess
import sys

import pytest

import repro
from repro.nic.packet import (
    FRAMING_BYTES,
    HEADER_BYTES,
    Flow,
    packets_for,
    wire_bytes,
)


def test_flow_make_is_deterministic():
    assert Flow.make(3) == Flow.make(3)
    assert Flow.make(3) != Flow.make(4)


def test_flow_reversed_swaps_endpoints():
    flow = Flow.make(1)
    back = flow.reversed()
    assert back.src_ip == flow.dst_ip
    assert back.src_port == flow.dst_port
    assert back.reversed() == flow


def test_flow_validates_ports():
    with pytest.raises(ValueError):
        Flow("a", 0, "b", 80)
    with pytest.raises(ValueError):
        Flow("a", 80, "b", 70000)
    with pytest.raises(ValueError):
        Flow.make(1)._replace(dst_port=0)


def test_flow_validates_protocol():
    with pytest.raises(ValueError):
        Flow("a", 1, "b", 2, protocol="sctp")
    assert Flow.make(0, protocol="udp").protocol == "udp"


def test_flow_repr_and_order_are_field_by_field():
    assert repr(Flow.make(3)) == (
        "Flow(src_ip='10.0.0.1', src_port=10003, dst_ip='10.0.0.2', "
        "dst_port=5201, protocol='tcp')")
    flows = [Flow.make(4), Flow.make(3, protocol="udp"), Flow.make(3)]
    assert sorted(flows) == [Flow.make(3), Flow.make(3, protocol="udp"),
                             Flow.make(4)]


def test_flow_hashable_and_usable_as_key():
    table = {Flow.make(i): i for i in range(10)}
    assert table[Flow.make(5)] == 5
    assert hash(Flow.make(5)) == hash(Flow.make(5).as_tuple())


def test_unpickled_flow_hashes_like_its_interpreter():
    """String hashes differ between interpreters, so a Flow unpickled
    in another one must hash its 5-tuple there, not carry a stale hash."""
    script = ("import pickle, sys\n"
              "flow = pickle.loads(sys.stdin.buffer.read())\n"
              "print(hash(flow) == hash(flow.as_tuple()))\n")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    # Any hash seed but this interpreter's own.
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
    out = subprocess.run([sys.executable, "-c", script], env=env,
                         input=pickle.dumps(Flow.make(5)),
                         capture_output=True, check=True)
    assert out.stdout.strip() == b"True"


def test_wire_bytes_includes_overheads():
    assert wire_bytes(1500) == 1500 + HEADER_BYTES + FRAMING_BYTES


def test_wire_bytes_pads_small_frames():
    assert wire_bytes(1) == 46 + HEADER_BYTES + FRAMING_BYTES


def test_wire_bytes_rejects_negative():
    with pytest.raises(ValueError):
        wire_bytes(-1)


def test_packets_for_ceil_division():
    assert packets_for(1, 1448) == 1
    assert packets_for(1448, 1448) == 1
    assert packets_for(1449, 1448) == 2
    assert packets_for(65536, 1448) == 46


def test_packets_for_zero_message():
    assert packets_for(0, 1448) == 1

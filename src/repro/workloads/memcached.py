"""memcached + memslap (§5.1.3, Fig 10).

One memcached server is accessed by 14 memslap client instances.  Keys are
256 B, values 512 KB (the paper cites recent production key/value sizing).
The GET path is transmit-heavy; the SET path receives 512 KB values over
TCP Rx and therefore suffers the full NUDMA penalty — which is why the
ioct/local advantage grows with the SET ratio.
"""

from __future__ import annotations

from repro.nic.packet import Flow
from repro.units import GB, KB
from repro.workloads.base import Workload, measured_meter

KEY_BYTES = 256
VALUE_BYTES = 512 * KB
ACK_BYTES = 64
#: memslap client instances (one per client-CPU core, §5.1.3).
CLIENT_INSTANCES = 14


class MemcachedServer(Workload):
    """The server side: worker threads serving memslap connections."""

    def __init__(self, host, cores, set_fraction: float, duration_ns: int,
                 warmup_ns: int = 0, value_bytes: int = VALUE_BYTES,
                 connections: int = CLIENT_INSTANCES,
                 offered_ktps: float = 0.0):
        super().__init__(host, duration_ns, warmup_ns)
        if not 0.0 <= set_fraction <= 1.0:
            raise ValueError(f"set_fraction out of [0,1]: {set_fraction}")
        if not cores:
            raise ValueError("need at least one worker core")
        self.set_fraction = set_fraction
        self.value_bytes = value_bytes
        # Client-side offered load (memslap's aggregate request rate);
        # 0 = closed loop at full speed.
        self._txn_interval_ns = (int(1e6 / offered_ktps * len(cores))
                                 if offered_ktps else 0)
        self.meter = measured_meter(self)
        node = cores[0].node_id
        # The slab heap is far larger than the LLC: GETs stream values
        # from DRAM, as a real memcached with a production dataset does.
        self.heap = host.machine.alloc_region("memcached-heap", node,
                                              2 * GB)
        per_worker = max(1, connections // len(cores))
        for i, core in enumerate(cores):
            self._spawn(f"memcached-{i}",
                        self._worker_body(i, per_worker), core)

    def _worker_body(self, worker_id: int, connections: int):
        def body(thread):
            host = self.host
            node = thread.core.node_id
            machine = host.machine
            costs = machine.spec.software
            socks = [host.stack.open_socket(
                thread, host.driver,
                Flow.make(100 + worker_id * 32 + c),
                app_buffer_bytes=self.value_bytes)
                for c in range(connections)]
            set_accum = 0.0
            txn = 0
            while not self.done():
                sock = socks[txn % len(socks)]
                set_accum += self.set_fraction
                is_set = set_accum >= 1.0
                if is_set:
                    set_accum -= 1.0
                cpu = costs.memcached_req_ns
                if is_set:
                    # Receive key+value, store into the slab heap.
                    rx_cpu, dev = host.stack.rx_burst(
                        sock, 1, KEY_BYTES + self.value_bytes)
                    cpu += rx_cpu
                    cpu += int(self.value_bytes * costs.copy_ns_per_byte)
                    cpu += machine.memory.cpu_stream_write(
                        node, self.heap, self.value_bytes)
                    tx_cpu, dev2 = host.stack.tx_burst(sock, 1, ACK_BYTES)
                    cpu += tx_cpu
                    dev = max(dev, dev2)
                else:
                    # Receive the GET request, stream the value out.
                    rx_cpu, dev = host.stack.rx_burst(sock, 1, KEY_BYTES)
                    cpu += rx_cpu
                    cpu += machine.memory.cpu_stream_read(
                        node, self.heap, self.value_bytes)
                    tx_cpu, dev2 = host.stack.tx_burst(
                        sock, 1, self.value_bytes)
                    cpu += tx_cpu
                    dev = max(dev, dev2)
                txn += 1
                busy = max(cpu, dev)
                if self.in_measurement():
                    self.meter.record(self.value_bytes, 1)
                if self._txn_interval_ns > busy:
                    # Offered-load pacing: idle until the clients send the
                    # next request.
                    thread.core.charge(busy)
                    yield thread.sleep(self._txn_interval_ns)
                else:
                    yield thread.overlap(cpu, dev)
            self.meter.finish(min(self.env.now, self.duration_ns))
        return body

    def transactions_ktps(self) -> float:
        return self.meter.ktps()

    def throughput_gbps(self) -> float:
        return self.meter.gbps()

"""Submission and completion paths shared by every octo-device.

The two halves of any DMA device's command loop, with the costs the
paper's analysis decomposes (§5.1.1):

* :class:`DoorbellPath` — the posted MMIO write that tells the device
  new work is queued.  Crossing the interconnect to reach a remote PF is
  one of the nonuniform interactions Fig 1 depicts.
* :class:`CompletionPath` — the host's cost of consuming completion
  entries the device DMA-wrote into the queue's ring: interrupt
  delivery (moderated per queue) and the completion reads that hit in
  DDIO when the serving PF is local and miss (~80 ns) when it is not.
  The devices charge the DMA write of those entries themselves.
"""

from __future__ import annotations


class DoorbellPath:
    """MMIO doorbell writes through each queue's serving PF."""

    def __init__(self, machine):
        self.machine = machine
        #: Doorbells rung (exposed for tests/metrics).
        self.rings = 0

    def ring(self, queue, from_node: int, times: int = 1) -> int:
        """CPU ns for ``times`` identical doorbell writes from a core on
        ``from_node``.  One latency sample is taken and scaled — the
        writes are identical posted TLPs on the same route."""
        if times < 1:
            raise ValueError(f"times must be >= 1, got {times}")
        self.rings += times
        cost = times * queue.pf.mmio_latency(from_node)
        flow = self.machine.tracer.active_flow
        if flow is not None:
            stage = None
            if self.machine.tracer.blame is not None:
                loc = "local" if queue.pf.is_local_to(from_node) else "qpi"
                stage = f"doorbell.{loc}"
            flow.step(f"{queue.pf.name}.mmio", "doorbell.ring", cost,
                      {"times": times, "from_node": from_node},
                      stage=stage)
        return cost


class CompletionPath:
    """Host-side completion consumption: reads and interrupts."""

    def __init__(self, machine, irq_ns: int):
        self.machine = machine
        self.irq_ns = irq_ns
        #: Interrupts delivered / completion entries consumed.
        self.interrupts = 0
        self.entries = 0

    def consume(self, queue, ndesc: int, node: int) -> int:
        """CPU ns to read ``ndesc`` completion entries on ``node``
        (poll-mode consumption; DDIO decides hit or miss)."""
        self.entries += ndesc
        flow = self.machine.tracer.active_flow
        stage = None
        if flow is not None and self.machine.tracer.blame is not None:
            # Classify *before* the charged read flips counters: DDIO
            # hit vs miss (remote-LLC forward / DRAM / remote DRAM).
            tag = self.machine.memory.dma_read_class(node, queue.ring)
            stage = "cq.hit" if tag == "ddio_hit" else "cq.miss"
        # Free when DDIO kept the entry hot, ~80 ns when the DMA landed
        # remotely (§5.1.1).
        cost = ndesc * self.machine.memory.read_fresh_dma_line(node,
                                                               queue.ring)
        if flow is not None:
            flow.step(f"core{node}.cq", "cq.consume", cost,
                      {"ndesc": ndesc, "via": queue.pf.name},
                      stage=stage)
        return cost

    def interrupt(self, queue, nper_burst: int, nbursts: int,
                  now_ns: int) -> int:
        """CPU ns of interrupt delivery for ``nbursts`` back-to-back
        bursts of ``nper_burst`` completions, moderated by the queue's
        adaptive coalescing state."""
        interrupts = queue.moderation.interrupts_for_train(
            nper_burst, nbursts, now_ns)
        self.interrupts += interrupts
        cost = interrupts * self.irq_ns
        flow = self.machine.tracer.active_flow
        if flow is not None and interrupts:
            # Moderated delivery: the coalescing budget holds completions
            # back, so the charge per train is what survives the hold.
            flow.step(f"core{queue.node_id}.irq", "irq.deliver", cost,
                      {"interrupts": interrupts}, stage="irq.hold")
        return cost

"""The host<->device link: charges simulated time for every transfer."""

from __future__ import annotations

from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.sim.resources import Pipeline, Resource

CACHELINE = 64


class HostLink:
    """Times MMIO and DMA transfers against a shared link resource.

    One :class:`HostLink` is shared by every simulated thread; the link
    resource and the posted-write pipeline create the contention between
    them.
    """

    def __init__(
        self, clock: VirtualClock, timing: TimingModel, name: str = "pcie"
    ) -> None:
        self.clock = clock
        self.timing = timing
        # ``name`` prefixes every link resource so multi-device stacks
        # (repro.cluster) keep per-device contention groups distinct.
        self._dma = Resource(f"{name}-dma")
        self._posted = Pipeline(f"{name}-posted", timing.mmio_write_pipeline)
        # Loads are non-posted but the CPU keeps several outstanding
        # (memory-level parallelism), so bulk reads overlap.
        self._nonposted = Pipeline(
            f"{name}-nonposted", timing.mmio_read_parallelism
        )
        self._barrier = Resource(f"{name}-barrier")
        self.mmio_reads = 0
        self.mmio_writes = 0
        self.dma_transfers = 0
        # TimingModel is frozen and the pipelines are never replaced, so
        # the per-transfer hot paths use these cached bindings.
        self._mmio_read_ns = timing.mmio_read_ns
        self._mmio_write_ns = timing.mmio_write_ns
        self._nonposted_serve_many = self._nonposted.serve_many
        self._posted_serve_many = self._posted.serve_many
        self._persist_flush_ns = timing.persist_flush_ns
        self._nvme_cmd_ns = timing.nvme_cmd_ns
        self._dma_transfer_ns = timing.dma_transfer_ns
        self._dma_serve = self._dma.serve
        self._barrier_serve = self._barrier.serve

    # ------------------------------------------------------------------ #
    # byte interface
    # ------------------------------------------------------------------ #

    def mmio_read(self, nbytes: int) -> None:
        """Load ``nbytes`` via MMIO: each cacheline pays the full round
        trip, with up to ``mmio_read_parallelism`` loads in flight."""
        lines = (nbytes + CACHELINE - 1) // CACHELINE or 1
        # The clock does not advance inside the loop, so every line is
        # served from the same `now`; the pipeline batches the whole
        # burst (max end == last end on a greedy pipeline).
        clock = self.clock
        end = self._nonposted_serve_many(clock.now, self._mmio_read_ns, lines)
        self.mmio_reads += lines
        clock.advance_to(end)

    def mmio_write(self, nbytes: int) -> None:
        """Store ``nbytes`` via MMIO.  Posted: writes pipeline."""
        lines = (nbytes + CACHELINE - 1) // CACHELINE or 1
        # Posted writes retire in issue order: completion time is the
        # *last* lane finish; the whole burst issues from the same `now`.
        clock = self.clock
        end = self._posted_serve_many(clock.now, self._mmio_write_ns, lines)
        self.mmio_writes += lines
        clock.advance_to(end)

    def persist_barrier(self, nlines: int = 1) -> None:
        """clflush/clwb the written lines, then a write-verify read (§4.2).

        The zero-byte non-posted read serializes behind all outstanding
        posted writes in the root complex, guaranteeing durability.
        """
        clock = self.clock
        clock.advance(self._persist_flush_ns * (nlines if nlines > 1 else 1))
        end = self._barrier_serve(clock.now, self._mmio_read_ns)
        clock.advance_to(end)

    def mmio_persist_write(self, nbytes: int) -> None:
        """Convenience: posted write + flush + write-verify read."""
        self.mmio_write(nbytes)
        self.persist_barrier((nbytes + CACHELINE - 1) // CACHELINE or 1)

    # ------------------------------------------------------------------ #
    # block interface
    # ------------------------------------------------------------------ #

    def dma(self, nbytes: int, write: bool) -> None:
        """An NVMe data transfer: command overhead plus bytes/bandwidth."""
        duration = self._nvme_cmd_ns + self._dma_transfer_ns(nbytes, write)
        clock = self.clock
        end = self._dma_serve(clock.now, duration)
        self.dma_transfers += 1
        clock.advance_to(end)

    def reset(self) -> None:
        self._dma.reset()
        self._posted.reset()
        self._nonposted.reset()
        self._barrier.reset()
        self.mmio_reads = 0
        self.mmio_writes = 0
        self.dma_transfers = 0

"""The memory-semantic SSD device: dual byte/block interface (paper §2.1).

The device exposes:

* a **byte interface** — the whole SSD is BAR-mapped into host memory;
  ``load``/``store`` move cachelines over PCIe MMIO (or CXL.mem), with
  ``store(persist=True)`` implementing the paper's two-step durable write
  (clflush + zero-byte write-verify read);
* a **block interface** — conventional NVMe reads/writes at 4 KB pages,
  plus the paper's custom commands ``COMMIT(TxID)`` and ``RECOVER()``.

All host<->device traffic is recorded against :class:`TrafficStats` with
the data-structure tag supplied by the file system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from repro.devcache.cache import DevCacheConfig, DeviceCache
from repro.faults.injector import NULL_INJECTOR, FaultInjector
from repro.ftl.ftl import FTL, FTLConfig
from repro.interconnect.link import HostLink
from repro.nand.chip import FlashArray
from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.sim.clock import VirtualClock
from repro.sim.resources import ChannelArray
from repro.ssd.firmware.baseline_fw import BaselineFirmware, BaselineFirmwareConfig
from repro.ssd.firmware.bytefs_fw import ByteFSFirmware, ByteFSFirmwareConfig
from repro.stats.traffic import Direction, Interface, StructKind, TrafficStats
from repro.trace import tracer as trace

# Enum members hoisted out of the per-access hot paths (each Direction.X
# costs a module-global plus an attribute load per call).
_READ = Direction.READ
_WRITE = Direction.WRITE
_BYTE = Interface.BYTE
_BLOCK = Interface.BLOCK


@dataclass
class MSSDConfig:
    """Everything needed to build a simulated M-SSD."""

    geometry: FlashGeometry = field(default_factory=FlashGeometry)
    timing: TimingModel = field(default_factory=TimingModel)
    ftl: FTLConfig = field(default_factory=FTLConfig)
    firmware: str = "bytefs"  # "bytefs" or "baseline"
    #: fraction of raw flash reserved for the FTL (not host-visible)
    overprovision: float = 0.125
    #: resource-name prefix for multi-device stacks (repro.cluster): a
    #: non-empty instance name keeps each device's channel/link/firmware
    #: contention groups distinct in traces.  Empty = legacy names.
    instance: str = ""
    bytefs_fw: ByteFSFirmwareConfig = field(
        default_factory=ByteFSFirmwareConfig
    )
    baseline_fw: BaselineFirmwareConfig = field(
        default_factory=BaselineFirmwareConfig
    )
    #: optional device-DRAM page-frame cache between firmware and FTL
    #: (repro.devcache); None = no cache tier, byte-identical to the
    #: pre-devcache device.
    devcache: Optional[DevCacheConfig] = None


class MSSD:
    """A memory-semantic SSD with dual byte/block interfaces."""

    def __init__(
        self,
        config: MSSDConfig,
        clock: VirtualClock,
        stats: TrafficStats,
        faults: Optional[FaultInjector] = None,
    ) -> None:
        self.config = config
        self.clock = clock
        self.stats = stats
        self.faults = faults if faults is not None else NULL_INJECTOR
        if faults is not None and faults.stats is None:
            faults.stats = stats
        self.geometry = config.geometry
        self.page_size = config.geometry.page_size
        # Host-visible capacity is fixed at build time; memoized because
        # _check_range consults it on every access.
        self._capacity_blocks = int(
            config.geometry.total_pages * (1 - config.overprovision)
        )
        self._capacity_bytes = self._capacity_blocks * self.page_size
        prefix = f"{config.instance}." if config.instance else ""
        self.flash = FlashArray(config.geometry)
        self.channels = ChannelArray(
            config.geometry.n_channels, name=f"{prefix}flash-ch"
        )
        self.link = HostLink(clock, config.timing, name=f"{prefix}pcie")
        self.ftl = FTL(
            config.geometry,
            self.flash,
            self.channels,
            config.timing,
            clock,
            stats,
            config.ftl,
        )
        # Optional device-DRAM cache tier: the wrapper exposes the FTL
        # surface the firmwares consume, so either firmware runs on top
        # of it unchanged.  ``self.ftl`` stays the real FTL.
        self.devcache: Optional[DeviceCache] = None
        if config.devcache is not None and config.devcache.cache_bytes > 0:
            self.devcache = DeviceCache(
                self.ftl, config.devcache, config.timing, clock, stats
            )
            self.devcache.faults = self.faults
        ftl_for_fw = self.devcache if self.devcache is not None else self.ftl
        self.firmware: Union[ByteFSFirmware, BaselineFirmware]
        if config.firmware == "bytefs":
            self.firmware = ByteFSFirmware(
                ftl_for_fw, config.timing, clock, stats, config.bytefs_fw
            )
        elif config.firmware == "baseline":
            self.firmware = BaselineFirmware(
                ftl_for_fw, config.timing, clock, stats, config.baseline_fw
            )
        else:
            raise ValueError(f"unknown firmware variant {config.firmware!r}")
        self.firmware.faults = self.faults
        if prefix:
            # The firmware core resource is built with the legacy name;
            # re-label it (before any request is served) so per-device
            # contention groups stay distinct in traces.
            core = self.firmware.fw_core
            core.name = f"{prefix}{core.name}"
            core.group = f"{prefix}{core.group}"
        # Bound methods cached for the per-access hot paths: none of these
        # collaborators is ever replaced after construction.
        self._record_host_ssd = stats.record_host_ssd
        self._mmio_read = self.link.mmio_read
        self._mmio_write = self.link.mmio_write
        self._persist_barrier = self.link.persist_barrier
        self._dma_xfer = self.link.dma
        self._fw_byte_read = self.firmware.byte_read
        self._fw_byte_write = self.firmware.byte_write
        self._fw_block_read = self.firmware.block_read
        self._fw_block_write_many = self.firmware.block_write_many

    # ------------------------------------------------------------------ #
    # geometry helpers
    # ------------------------------------------------------------------ #

    @property
    def capacity_blocks(self) -> int:
        """Host-visible logical pages (raw flash minus overprovisioning)."""
        return self._capacity_blocks

    @property
    def capacity_bytes(self) -> int:
        return self._capacity_bytes

    def _check_range(self, addr: int, length: int) -> None:
        if addr < 0 or addr + length > self._capacity_bytes:
            raise ValueError(
                f"device access [{addr}, {addr + length}) out of range"
            )

    # ------------------------------------------------------------------ #
    # byte interface (MMIO / CXL.mem)
    # ------------------------------------------------------------------ #

    def load(self, addr: int, length: int, kind: StructKind) -> bytes:
        """Byte-granular read of [addr, addr+length)."""
        if length <= 0:
            return b""
        self._check_range(addr, length)
        self._record_host_ssd(kind, _READ, _BYTE, length)
        self._mmio_read(length)
        byte_read = self._fw_byte_read
        page_size = self.page_size
        off = addr % page_size
        if off + length <= page_size:
            # Single-page access: no split bookkeeping needed.
            return bytes(byte_read(addr // page_size, off, length))
        out = bytearray()
        for lpa, off, n in self._split(addr, length):
            out += byte_read(lpa, off, n)
        return bytes(out)

    def store(
        self,
        addr: int,
        data: bytes,
        kind: StructKind,
        txid: Optional[int] = None,
        persist: Optional[bool] = None,
    ) -> None:
        """Byte-granular write.

        ``persist`` adds the §4.2 durability steps (clflush plus a
        zero-byte write-verify read).  By default a *transactional* store
        defers the barrier to ``commit(txid)`` — the posted writes of one
        transaction share a single drain — while a non-transactional
        store is made durable immediately.
        """
        if persist is None:
            persist = txid is None
        if not data:
            return
        self._check_range(addr, len(data))
        self._record_host_ssd(kind, _WRITE, _BYTE, len(data))
        self._mmio_write(len(data))
        pos = 0
        if self.faults is NULL_INJECTOR:
            # No injector armed: skip the per-piece closure and site
            # bookkeeping (the null site just calls apply(nbytes)).
            byte_write = self._fw_byte_write
            page_size = self.page_size
            off = addr % page_size
            if off + len(data) <= page_size:
                # Single-page store: no split bookkeeping needed.
                byte_write(addr // page_size, off, data, txid)
            else:
                for lpa, off, n in self._split(addr, len(data)):
                    byte_write(lpa, off, data[pos : pos + n], txid)
                    pos += n
        else:
            for lpa, off, n in self._split(addr, len(data)):
                piece = data[pos : pos + n]

                def _apply(k: int, lpa=lpa, off=off, piece=piece) -> None:
                    # A torn store loses the trailing cachelines of this
                    # piece; the prefix that did arrive is logged
                    # normally.
                    if k:
                        # Each piece is its own crash site, so the armed
                        # path cannot batch across pages.
                        self.firmware.byte_write(  # repro: allow[PERF001]
                            lpa, off, piece[:k], txid)

                self.faults.site("mssd.store", _apply, n, atom=64)
                pos += n
        if persist:
            # Integer ceiling; data is non-empty here so the result is
            # always >= 1 (identical to max(1, ceil(n / 64))).
            self._persist_barrier((len(data) + 63) // 64)

    def _split(self, addr: int, length: int):
        """Split a byte range into (lpa, in-page offset, length) pieces."""
        off = addr % self.page_size
        if off + length <= self.page_size:
            # Common case: the access stays within one page.
            return [(addr // self.page_size, off, length)]
        pieces = []
        while length > 0:
            lpa = addr // self.page_size
            off = addr % self.page_size
            n = min(length, self.page_size - off)
            pieces.append((lpa, off, n))
            addr += n
            length -= n
        return pieces

    # ------------------------------------------------------------------ #
    # block interface (NVMe)
    # ------------------------------------------------------------------ #

    def read_blocks(self, lba: int, n_blocks: int, kind: StructKind) -> bytes:
        """NVMe read of ``n_blocks`` pages starting at ``lba``.

        One page comes back as the object the firmware returned (for an
        unlogged page the flash array's own), uncopied.
        """
        if n_blocks <= 0:
            return b""
        self._check_range(lba * self.page_size, n_blocks * self.page_size)
        nbytes = n_blocks * self.page_size
        self._record_host_ssd(kind, _READ, _BLOCK, nbytes)
        if n_blocks == 1:
            out = self._fw_block_read(lba)
        else:
            # Multi-page reads exploit channel parallelism inside the
            # firmware (all flash reads issued from the same start time).
            out = b"".join(self.firmware.block_read_many(
                list(range(lba, lba + n_blocks))
            ))
        self._dma_xfer(nbytes, write=False)
        return out

    def write_blocks(self, lba: int, data: bytes, kind: StructKind) -> None:
        """NVMe write of page-aligned ``data`` starting at ``lba``."""
        if len(data) % self.page_size != 0:
            raise ValueError("block writes must be page aligned")
        self._check_range(lba * self.page_size, len(data))
        n_blocks = len(data) // self.page_size
        self._record_host_ssd(kind, _WRITE, _BLOCK, len(data))
        self._dma_xfer(len(data), write=True)
        page_size = self.page_size
        # Local binding keeps the call spelled by its real name (the
        # crash-site lint resolves callers by bare name).
        block_write_many = self._fw_block_write_many
        if n_blocks == 1:
            pending = [(lba, data)]
        else:
            pending = [
                (lba + i, data[i * page_size : (i + 1) * page_size])
                for i in range(n_blocks)
            ]
        if self.faults is NULL_INJECTOR:
            block_write_many(pending, kind, n_blocks)
            return
        arrived, pending = pending, []
        try:
            for page_lba, page in arrived:
                self.faults.site(
                    "mssd.write_block",
                    self._landing(pending, page_lba, page),
                    page_size, atom=512,
                )
        finally:
            # The DMA already landed the applied pages in device DRAM;
            # on a mid-batch CrashPoint they must still reach the
            # firmware before the crash propagates.
            if pending:
                block_write_many(pending, kind, len(pending))

    def _landing(self, landed: List, lba: int, page: bytes):
        """Crash-site callback of one DMA'd page: ``landed`` receives the
        page as far as it reached device DRAM."""

        def _apply(k: int) -> None:
            if k == 0:
                return
            if k < len(page):
                # Torn DMA: leading sectors are new, the rest keep
                # whatever the device held before.
                old = self.firmware.block_read(lba)
                landed.append((lba, page[:k] + old[k:]))
            else:
                landed.append((lba, page))

        return _apply

    def write_pages(
        self, pages: Iterable[Tuple[int, bytes]], kind: StructKind
    ) -> None:
        """Scatter write: one single-page NVMe write per ``(lba, page)``,
        back to back, in one call.

        Simulated time, traffic, trace spans and crash sites are those of
        ``write_blocks(lba, page, kind)`` called once per page.  Each
        layer below runs one loop over the run and pulls its pages from
        the layer above, so a page's DMA, firmware admission and flash
        program still happen in that order before the next page's DMA:
        ``pages`` may be a generator that charges host-side time between
        pages.  Every page passes its ``mssd.write_block`` crash site in
        :meth:`_page_commands` on its way to the firmware.
        """
        block_write_many = self._fw_block_write_many
        block_write_many(self._page_commands(pages, kind), kind)

    def _page_commands(
        self, pages: Iterable[Tuple[int, bytes]], kind: StructKind
    ) -> Iterator[Tuple[int, bytes]]:
        """The host-side half of each single-page write of a run."""
        page_size = self.page_size
        capacity = self._capacity_blocks
        record_host_ssd = self._record_host_ssd
        dma = self._dma_xfer
        faults = self.faults
        for lba, page in pages:
            if len(page) != page_size:
                raise ValueError("block writes must be page aligned")
            if lba < 0 or lba >= capacity:
                self._check_range(lba * page_size, page_size)  # raises
            _sp = trace.begin("device", "write_blocks", nbytes=page_size,
                              kind=kind.value) if trace.ENABLED else None
            record_host_ssd(kind, _WRITE, _BLOCK, page_size)
            dma(page_size, write=True)
            if faults is NULL_INJECTOR:
                yield lba, page
            else:
                landed: List = []
                try:
                    faults.site(
                        "mssd.write_block",
                        self._landing(landed, lba, page),
                        page_size, atom=512,
                    )
                finally:
                    # As in write_blocks: a page torn by the crash still
                    # reaches the firmware before the crash propagates.
                    yield from landed
            if _sp is not None:
                trace.end(_sp)

    def trim(self, lba: int, n_blocks: int = 1) -> None:
        if n_blocks < 0:
            raise ValueError(f"trim of {n_blocks} blocks")
        self._check_range(lba * self.page_size, n_blocks * self.page_size)

        def _apply(k: int) -> None:
            if k:
                self.firmware.trim_many(lba, n_blocks)

        self.faults.site("mssd.trim", _apply, n_blocks)

    # custom NVMe commands ------------------------------------------------

    def commit(self, txid: int) -> None:
        """COMMIT(TxID): only supported by the ByteFS firmware (§4.3).

        The barrier drains the transaction's outstanding posted writes
        (ordering before the commit entry, Fig 4), then the 4 B commit
        entry is appended to the TxLog.
        """
        self.link.persist_barrier(1)
        self.link.dma(4, write=True)

        def _apply(k: int) -> None:
            if k:
                self.firmware.commit(txid)

        self.faults.site("mssd.commit", _apply, 4)

    def recover(self) -> Dict[str, float]:
        """RECOVER(): firmware-level crash recovery (§4.7)."""
        return self.firmware.recover()

    def power_fail(self) -> None:
        """Simulate power loss: device DRAM is battery-backed (retained);
        the host side must drop its own caches separately."""
        self.firmware.power_fail()

    def flush_all(self) -> None:
        """Drain all device-side buffered state to flash (unmount/sync)."""
        self.firmware.force_clean()

    # ------------------------------------------------------------------ #
    # observability
    # ------------------------------------------------------------------ #

    def gauges(self) -> Dict[str, float]:
        """Public telemetry surface: the device-internal gauges the
        sampling layer (:mod:`repro.telemetry`) may read.  Host code
        samples this instead of reaching into the FTL/firmware/NAND
        internals (which the layering lint fences off)."""
        out = dict(self.ftl.gauges())
        out["log_utilization"] = self.firmware.log_utilization()
        out["nand_reads"] = self.flash.reads
        out["nand_writes"] = self.flash.writes
        out["nand_erases"] = self.flash.erases
        if self.devcache is not None:
            # Keys appear only when the cache tier is configured, so
            # cache-off telemetry documents stay byte-identical.
            out.update(self.devcache.gauges())
        return out


def build_mssd(
    clock: Optional[VirtualClock] = None,
    stats: Optional[TrafficStats] = None,
    config: Optional[MSSDConfig] = None,
    faults: Optional[FaultInjector] = None,
    **overrides,
) -> MSSD:
    """Convenience constructor used by tests, examples, and benches.

    ``overrides`` may set any :class:`MSSDConfig` field by name.
    """
    cfg = config or MSSDConfig()
    for key, value in overrides.items():
        if not hasattr(cfg, key):
            raise TypeError(f"unknown MSSDConfig field {key!r}")
        setattr(cfg, key, value)
    return MSSD(cfg, clock or VirtualClock(), stats or TrafficStats(), faults)

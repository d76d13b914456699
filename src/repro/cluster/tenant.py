"""Tenant model for the multi-tenant serving layer.

A *tenant* is one simulated client of the cluster: it owns a namespace
(a private directory subtree on its shard's file system), a workload
generator that produces its operation stream, an **open-loop arrival
process** (requests arrive on the tenant's virtual timeline whether or
not earlier ones finished — this is what creates backlog and makes I/O
scheduling meaningful), and QoS parameters (DRR weight, optional
token-bucket rate cap, a latency SLO).

Tenant workloads come in two flavours:

* :class:`SyntheticTenantWorkload` — a controllable read/write mix over
  a private file set with Zipfian file popularity; the default for
  ``repro serve`` because its service-time profile is tunable per
  tenant (noisy vs. light neighbours).
* any single-threaded instantiation of the existing micro/Filebench
  workloads, adapted via :func:`make_tenant_workload`.

All randomness is derived from ``make_rng(seed, label)`` streams, so a
cluster run is a pure function of its seed and config.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, Optional

from repro.faults.injector import CrashPoint
from repro.fs.vfs import O_CREAT, O_RDWR, BaseFileSystem
from repro.sim.rng import make_rng
from repro.workloads import MACRO_WORKLOADS, MICRO_WORKLOADS
from repro.workloads.base import Workload
from repro.workloads.zipfian import ZipfianGenerator

if TYPE_CHECKING:
    from repro.faults.oracle import OracleFS

#: Op name yielded by a crash-aware tenant generator when a
#: :class:`~repro.faults.injector.CrashPoint` unwound the op in flight.
#: The serving loop treats it as "this shard just lost power": the op is
#: lost-to-crash, the device power-cycles and remounts, and the tenant
#: keeps serving afterwards (the generator survives because it catches
#: the crash *inside* its own frame instead of letting it propagate).
CRASHED = "crashed"

#: Built-in tenant profiles: a service-demand shape plus default QoS
#: parameters.  ``rate_ops_s`` is the open-loop arrival rate on the
#: virtual timeline; ``slo_ms`` the per-op latency objective.
PROFILES: Dict[str, Dict] = {
    # mostly-read, small ops, gentle arrival rate
    "light": dict(
        read_fraction=0.8, op_bytes=4096, file_bytes=16 << 10,
        n_files=24, rate_ops_s=1_000.0, slo_ms=2.0,
    ),
    # balanced mix at a moderate rate
    "mixed": dict(
        read_fraction=0.5, op_bytes=8192, file_bytes=32 << 10,
        n_files=32, rate_ops_s=4_000.0, slo_ms=5.0,
    ),
    # write-heavy large ops arriving ~2x faster than the device can
    # serve them: the noisy neighbour, permanently backlogged
    "heavy": dict(
        read_fraction=0.1, op_bytes=64 << 10, file_bytes=128 << 10,
        n_files=16, rate_ops_s=50_000.0, slo_ms=50.0,
    ),
}

#: The rotation ``default_tenants`` cycles through.
DEFAULT_PROFILE_CYCLE = ("mixed", "light", "heavy", "light")


@dataclass
class TenantSpec:
    """Static description of one tenant (config echo: :meth:`to_json`)."""

    name: str
    #: a profile name from :data:`PROFILES` or a workload name
    #: (``create``/``varmail``/... run single-threaded in the namespace)
    workload: str = "mixed"
    #: open-loop arrival rate on the virtual timeline (requests/s)
    rate_ops_s: float = 4_000.0
    #: DRR weight (share of device service under weighted-fair)
    weight: int = 1
    #: token-bucket dispatch cap (requests/s); None = unlimited
    limit_ops_s: Optional[float] = None
    #: token-bucket burst allowance (whole requests)
    burst_ops: int = 8
    #: per-op latency objective; arrivals served later count as violations
    slo_ms: float = 5.0
    #: number of requests this tenant submits during the measured phase
    n_ops: int = 200
    #: pin the tenant to a device index; None = deterministic hash placement
    device: Optional[int] = None

    def to_json(self) -> Dict:
        return {
            "name": self.name,
            "workload": self.workload,
            "rate_ops_s": self.rate_ops_s,
            "weight": self.weight,
            "limit_ops_s": self.limit_ops_s,
            "burst_ops": self.burst_ops,
            "slo_ms": self.slo_ms,
            "n_ops": self.n_ops,
            "device": self.device,
        }


def default_tenants(n: int, n_ops: int = 200) -> list:
    """A deterministic tenant set cycling through the built-in profiles."""
    specs = []
    for i in range(n):
        profile = DEFAULT_PROFILE_CYCLE[i % len(DEFAULT_PROFILE_CYCLE)]
        params = PROFILES[profile]
        specs.append(TenantSpec(
            name=f"tn{i}-{profile}",
            workload=profile,
            rate_ops_s=params["rate_ops_s"],
            slo_ms=params["slo_ms"],
            n_ops=n_ops,
        ))
    return specs


class NamespacedFS:
    """A per-tenant view of a shared file system.

    Every path-taking call is rewritten under the tenant's private root
    (``/tn-<name>``); fd-based calls pass straight through.  This is the
    "per-tenant mount": two tenants on the same shard can both
    ``mkdir("/data")`` without colliding.
    """

    #: the fd calls of a tenant request, bound once instead of forwarded
    #: through ``__getattr__`` on every call (looked up on ``fs``, so a
    #: wrapper installed on its class beforehand is what gets bound)
    _FD_CALLS = ("read", "write", "pread", "pwrite", "fsync", "close")

    def __init__(self, fs: BaseFileSystem, root: str) -> None:
        self._fs = fs
        self._root = "/" + root.strip("/")
        for name in self._FD_CALLS:
            setattr(self, name, getattr(fs, name))

    @property
    def root(self) -> str:
        return self._root

    def _p(self, path: str) -> str:
        if not path.startswith("/"):
            path = "/" + path
        return self._root + path

    def __getattr__(self, name):
        # fd-based and global ops (read/write/fsync/close/sync/...)
        # delegate unchanged; path ops are defined explicitly below.
        return getattr(self._fs, name)

    def open(self, path: str, flags: int = 0) -> int:
        return self._fs.open(self._p(path), flags)

    def mkdir(self, path: str) -> None:
        self._fs.mkdir(self._p(path))

    def rmdir(self, path: str) -> None:
        self._fs.rmdir(self._p(path))

    def unlink(self, path: str) -> None:
        self._fs.unlink(self._p(path))

    def rename(self, src: str, dst: str) -> None:
        self._fs.rename(self._p(src), self._p(dst))

    def stat(self, path: str):
        return self._fs.stat(self._p(path))

    def exists(self, path: str) -> bool:
        return self._fs.exists(self._p(path))

    def listdir(self, path: str):
        return self._fs.listdir(self._p(path))


class SyntheticTenantWorkload(Workload):
    """A tunable single-threaded read/write mix over a private file set.

    ``setup`` creates ``n_files`` files of ``file_bytes`` each; the op
    stream then picks a file by Zipfian popularity (``theta``) and either
    ``pread``s or ``pwrite``+``fsync``s ``op_bytes`` at an aligned
    offset.  ``read_fraction`` sets the mix.
    """

    name = "synthetic"
    n_threads = 1

    def __init__(
        self,
        n_ops: int = 200,
        n_files: int = 32,
        file_bytes: int = 32 << 10,
        op_bytes: int = 8192,
        read_fraction: float = 0.5,
        theta: float = 0.99,
        seed: int = 42,
    ) -> None:
        super().__init__(seed)
        self.n_ops = n_ops
        self.n_files = n_files
        self.file_bytes = file_bytes
        self.op_bytes = min(op_bytes, file_bytes)
        self.read_fraction = read_fraction
        self.theta = theta
        self.oracle: Optional[OracleFS] = None

    def attach_oracle(self, oracle: OracleFS) -> None:
        """Mirror every op into ``oracle`` (namespace-relative paths).

        With an oracle attached the op stream also survives an injected
        :class:`CrashPoint`: the generator records exactly which sub-op
        was in flight (write pending vs. fsync not acked), yields
        :data:`CRASHED`, and resumes after the serving loop recovers the
        device — so ``oracle.check()`` against the remounted namespace
        verifies that every *acked-durable* op survived the power loss.
        """
        self.oracle = oracle

    def setup(self, fs: BaseFileSystem) -> None:
        ob = self.oracle
        fs.mkdir("/data")
        if ob is not None:
            ob.observe(("mkdir", "/data"))
        payload = b"s" * self.file_bytes
        for i in range(self.n_files):
            path = f"/data/f{i}"
            fd = fs.open(path, O_CREAT | O_RDWR)
            fs.write(fd, payload)
            fs.close(fd)
            if ob is not None:
                ob.observe(("create", path))
                ob.observe(("write", path, 0, payload))
        fs.sync()
        if ob is not None:
            ob.observe(("sync",))

    def thread_ops(self, fs: BaseFileSystem, tid: int) -> Iterator[str]:
        rng = self.rng(f"ops{tid}")
        zipf = ZipfianGenerator(
            self.n_files, theta=self.theta, rng=self.rng(f"zipf{tid}")
        )
        n_slots = max(1, self.file_bytes // self.op_bytes)
        payload = b"W" * self.op_bytes
        ob = self.oracle
        for _ in range(self.n_ops):
            path = f"/data/f{zipf.next()}"
            offset = rng.randrange(n_slots) * self.op_bytes
            if rng.random() < self.read_fraction:
                try:
                    fd = fs.open(path, O_RDWR)
                    fs.pread(fd, offset, self.op_bytes)
                    fs.close(fd)
                except CrashPoint:
                    # Reads mutate nothing: power dropped, nothing to
                    # record as pending.
                    yield CRASHED
                    continue
                yield "read"
            else:
                # ``stage`` tells the oracle which sub-op the power loss
                # caught: 0 = pwrite possibly partial, 1 = data written
                # but the fsync ack never came back, 2 = fully acked.
                stage = 0
                try:
                    fd = fs.open(path, O_RDWR)
                    fs.pwrite(fd, offset, payload)
                    stage = 1
                    fs.fsync(fd)
                    stage = 2
                    fs.close(fd)
                except CrashPoint:
                    if ob is not None:
                        ob.observe(
                            ("write", path, offset, payload),
                            completed=stage >= 1,
                        )
                        ob.observe(("fsync", path), completed=stage >= 2)
                    yield CRASHED
                    continue
                if ob is not None:
                    ob.observe(("write", path, offset, payload))
                    ob.observe(("fsync", path))
                yield "write"


#: micro workloads take their op count under different ctor names
_MICRO_COUNT_ARG = {
    "create": "n_files",
    "delete": "n_files",
    "mkdir": "n_dirs",
    "rmdir": "n_dirs",
    "mmap_stress": "n_ops",
}


def make_tenant_workload(spec: TenantSpec, seed: int) -> Workload:
    """Instantiate the workload behind a :class:`TenantSpec`.

    Profiles map to :class:`SyntheticTenantWorkload`; micro/Filebench
    names run their standard single-threaded variant inside the tenant
    namespace.  The tenant's RNG stream is derived from the run seed and
    the tenant name, so tenants never perturb each other's streams.
    """
    tenant_seed = make_rng(seed, f"tenant:{spec.name}").randrange(1 << 30)
    if spec.workload in PROFILES:
        params = PROFILES[spec.workload]
        return SyntheticTenantWorkload(
            n_ops=spec.n_ops,
            n_files=params["n_files"],
            file_bytes=params["file_bytes"],
            op_bytes=params["op_bytes"],
            read_fraction=params["read_fraction"],
            seed=tenant_seed,
        )
    if spec.workload == "synthetic":
        return SyntheticTenantWorkload(n_ops=spec.n_ops, seed=tenant_seed)
    if spec.workload in MICRO_WORKLOADS:
        kwargs = {
            _MICRO_COUNT_ARG[spec.workload]: spec.n_ops,
            "n_threads": 1,
            "seed": tenant_seed,
        }
        return MICRO_WORKLOADS[spec.workload](**kwargs)
    if spec.workload in MACRO_WORKLOADS:
        return MACRO_WORKLOADS[spec.workload](
            n_threads=1, ops_per_thread=spec.n_ops, seed=tenant_seed
        )
    raise ValueError(
        f"unknown tenant workload {spec.workload!r}; expected a profile "
        f"({', '.join(sorted(PROFILES))}), 'synthetic', or a "
        "micro/Filebench workload name"
    )

"""Live telemetry for the serving stack.

``repro.telemetry`` is the observability layer over :mod:`repro.cluster`
runs: a deterministic virtual-time sampler
(:class:`~repro.telemetry.sampler.TelemetrySampler`), the
``repro.telemetry.series/v1`` JSONL document
(:mod:`repro.telemetry.series`), Prometheus text exposition + a
stdlib ``/metrics`` HTTP endpoint (:mod:`repro.telemetry.prom`,
:mod:`repro.telemetry.server`), and the ``repro top`` terminal report
(:mod:`repro.telemetry.top`).

Telemetry is **zero-cost when off**: the serve loop guards every hook
site on :data:`~repro.telemetry.sampler.ENABLED`, which is flipped only
while a sampler is activated (``repro serve --telemetry-out`` /
``--listen``).

Host-side discipline: this package reads device state only through the
MSSD public gauge surface (:meth:`repro.ssd.device.MSSD.gauges`) and is
registered with the lint layering pass as host code — importing
device-internal modules from here is a LAY001 finding.
"""

from repro._lazy import lazy_exports
from repro.telemetry.sampler import (
    ENABLED,
    SCOPES,
    TelemetrySampler,
    activate,
    active,
    deactivate,
)

# Resolved on first use: the sampler is imported by every serving
# process (a shard worker included); the series document, the
# Prometheus export, the HTTP stack and the terminal report are needed
# only by the command that writes or reads them.
__getattr__ = lazy_exports(globals(), {
    "repro.telemetry.prom": (
        "CONTENT_TYPE", "parse_exposition", "render_prometheus",
    ),
    "repro.telemetry.series": (
        "SCHEMA", "load_series", "to_lines", "validate_series",
        "write_series",
    ),
    "repro.telemetry.server": ("make_server", "serve_in_thread"),
    "repro.telemetry.top": ("render_top", "sparkline"),
})

__all__ = [
    "CONTENT_TYPE",
    "ENABLED",
    "SCHEMA",
    "SCOPES",
    "TelemetrySampler",
    "activate",
    "active",
    "deactivate",
    "load_series",
    "make_server",
    "parse_exposition",
    "render_prometheus",
    "render_top",
    "serve_in_thread",
    "sparkline",
    "to_lines",
    "validate_series",
    "write_series",
]

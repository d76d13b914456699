"""Shared fixtures: small device geometries and pre-built FS stacks."""

from __future__ import annotations

import pytest

from repro.core.bytefs import build_stack
from repro.nand.geometry import FlashGeometry
from repro.sim.clock import VirtualClock
from repro.ssd.device import MSSD, MSSDConfig
from repro.stats.traffic import TrafficStats

#: 32 MB device: big enough for every unit test, instant to build.
SMALL_GEOMETRY = FlashGeometry(
    n_channels=4,
    ways_per_channel=1,
    blocks_per_way=32,
    pages_per_block=64,
    page_size=4096,
)

ALL_FS = ["ext4", "f2fs", "nova", "pmfs", "bytefs"]
ALL_FS_AND_VARIANTS = ALL_FS + ["bytefs-dual", "bytefs-log"]


def pytest_addoption(parser):
    parser.addoption(
        "--max-sites",
        type=int,
        default=None,
        help="cap the number of crash sites replayed per sweep test "
        "(default: the per-test tier-1 bound; extended sweeps replay all)",
    )
    parser.addoption(
        "--update-golden",
        action="store_true",
        default=False,
        help="rewrite the pins and tables instead of asserting against "
        "them: tests/golden/pins.json (tests/test_pins.py) and "
        "benchmarks/results/*.txt (tests/test_paper_shapes.py); only "
        "for deliberate performance-model changes, reviewed as a diff",
    )


@pytest.fixture
def clock():
    return VirtualClock(1)


@pytest.fixture
def stats():
    return TrafficStats()


def make_device(firmware: str = "bytefs", clock=None, stats=None) -> MSSD:
    cfg = MSSDConfig(geometry=SMALL_GEOMETRY, firmware=firmware)
    return MSSD(cfg, clock or VirtualClock(1), stats or TrafficStats())


@pytest.fixture
def bytefs_device():
    return make_device("bytefs")


@pytest.fixture
def baseline_device():
    return make_device("baseline")


def make_stack(fs_name: str, n_threads: int = 1):
    clock, stats, device, fs = build_stack(
        fs_name, geometry=SMALL_GEOMETRY, n_threads=n_threads
    )
    stats.reset()  # exclude mkfs traffic from test assertions
    return clock, stats, device, fs


@pytest.fixture(params=ALL_FS)
def any_fs(request):
    _clock, _stats, _device, fs = make_stack(request.param)
    return fs


@pytest.fixture(params=ALL_FS_AND_VARIANTS)
def any_fs_or_variant(request):
    _clock, _stats, _device, fs = make_stack(request.param)
    return fs

"""NAND flash substrate: geometry, timing model, and the chip array.

The chip array stores the real bytes of every page a mapped read can
reach, so file systems built on top can be verified end-to-end (write ->
crash -> recover -> read back).  It also
enforces NAND physics: pages program once between erases, erases operate
on whole blocks.
"""

from repro.nand.geometry import FlashGeometry
from repro.nand.timing import TimingModel
from repro.nand.chip import FlashArray, FlashError

__all__ = ["FlashGeometry", "TimingModel", "FlashArray", "FlashError"]

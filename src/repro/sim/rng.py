"""Deterministic RNG construction.

Every stochastic component (workload generators, Zipfian sampling,
torn-write cuts) derives its generator from a (seed, label) pair so runs
are reproducible and components do not perturb each other's streams.
"""

from __future__ import annotations

import hashlib
import random


def make_rng(seed: int, label: str = "") -> random.Random:
    """Return a :class:`random.Random` derived from ``seed`` and ``label``."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))

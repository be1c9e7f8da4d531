"""Splittable random streams.

Every stochastic step in the package draws from its own named stream so
that unrelated components never share generator state: adding or removing
one consumer cannot shift the draws seen by another. Streams are Philox
(counter based) keyed by a master seed plus a path of labels.
"""
from __future__ import annotations

import hashlib
import struct

import numpy as np

from .errors import ConfigError


def check_seed(seed: int, what: str = "seed") -> None:
    """Raise ConfigError for a seed that cannot key a stream: numpy's
    SeedSequence rejects negative integers."""
    if seed < 0:
        raise ConfigError(f"{what} must be a non-negative integer, got {seed}")


def stream(seed: int, *path) -> np.random.Generator:
    """Return the generator for (seed, path). Same arguments, same draws."""
    tag = "/".join(str(p) for p in path)
    digest = hashlib.sha256(tag.encode("utf-8")).digest()
    spawn_key = struct.unpack("<8I", digest[:32])
    ss = np.random.SeedSequence(int(seed), spawn_key=spawn_key)
    return np.random.Generator(np.random.Philox(ss))


def derive_seed(seed: int, *path) -> int:
    """Collapse (seed, path) into a plain integer seed: a config's seed
    field, or the key of the base graph's ``random.Random``."""
    return int(stream(seed, *path).integers(0, 2**63 - 1))

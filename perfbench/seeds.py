"""Seeds derived from the benchmark seed: the same seed, the same inputs."""

from __future__ import annotations

import hashlib


def derive(seed: int, *path) -> int:
    """A 32-bit seed for one call, fixed by the run seed and the call's
    place in the workload."""
    text = "/".join(str(p) for p in (seed, *path))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little")

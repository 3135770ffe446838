"""Deterministic request routing for the multi-kernel cluster.

The router maps every *resolved, absolute* path to exactly one shard.
It is a classic consistent-hash ring: each shard contributes
:data:`VNODES` virtual points hashed onto a 64-bit circle, and a path
lands on the shard owning the first point at or clockwise of the path
key's hash.
The hash is :func:`hashlib.blake2b` over the key bytes — never Python's
builtin ``hash()``, whose per-process salt would make routing differ
between runs and between shard worker processes.

Two key modes:

* ``"dir"`` (the default) — the key is the path's *parent directory*,
  so every entry of one directory colocates on one shard.  Per-client
  session homes land whole on a single shard, renames within a
  directory are always intra-shard, and ``readdir`` is served by the
  single shard owning the directory's key (:meth:`Router.shard_for_key`
  — directory *shells* replicate everywhere via fan-out ``mkdir``, so
  the owner's view is complete).
* ``"hash"`` — the key is the full path, scattering even one
  directory's files across shards.  This maximizes spread and makes
  cross-shard ``rename`` an everyday event, which is exactly why the
  cluster test suite runs in this mode.

Routing is a pure function of ``(shards, mode, path)``: the
front-end and every shard worker process agree on placement without
any coordination, and one seed produces one request stream per shard,
bit for bit — the property the cluster digest tests pin down.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from typing import List, Tuple

#: Virtual ring points per shard; more points, less arc-length
#: imbalance (the scaling curve's enemy at high shard counts).
VNODES = 128


def _hash64(key: str) -> int:
    """64-bit position of ``key`` on the ring (process-stable)."""
    return int.from_bytes(
        hashlib.blake2b(key.encode(), digest_size=8).digest(), "big"
    )


class Router:
    """Consistent-hash ring mapping absolute paths to shard ids."""

    MODES = ("dir", "hash")

    def __init__(self, shards: int, *, mode: str = "dir") -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive, got {shards}")
        if mode not in self.MODES:
            raise ValueError(f"unknown router mode {mode!r}; know {self.MODES}")
        self.shards = shards
        self.mode = mode
        points: List[Tuple[int, int]] = []
        for shard in range(shards):
            for vnode in range(VNODES):
                points.append((_hash64(f"shard-{shard}/vnode-{vnode}"), shard))
        points.sort()
        self._ring = points
        self._positions = [point for point, _ in points]

    def key_for(self, path: str) -> str:
        """The routing key of an absolute path (mode-dependent)."""
        if self.mode == "dir":
            head, _, _ = path.rpartition("/")
            return head or "/"
        return path

    def shard_for(self, path: str) -> int:
        """The shard owning ``path`` (a pure function of the path)."""
        return self.shard_for_key(self.key_for(path))

    def shard_for_key(self, key: str) -> int:
        """The shard owning a raw routing key.

        ``shard_for_key(dir)`` is where every direct entry of ``dir``
        lives in dir mode — the one shard that can answer a
        ``readdir`` of it alone.
        """
        point = _hash64(key)
        index = bisect_left(self._positions, point)
        if index == len(self._positions):
            index = 0  # wrap: the ring is a circle
        return self._ring[index][1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Router {self.shards} shards x {VNODES} vnodes, "
            f"mode={self.mode}>"
        )

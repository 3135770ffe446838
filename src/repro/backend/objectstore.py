"""The ``objectstore`` backend: a seeded model of a remote blob store.

Everything a real object store does to you, deterministically:

* **latency + bandwidth** — each request costs a flat per-request
  latency plus payload-size over bandwidth, plus a seeded jitter draw,
  taken on the link's timeline in virtual time (the only clock in the
  repo; :mod:`repro.backend.common` says who waits for it);
* **transient failures** — a seeded percentage of requests raise
  :class:`TransientBackendError` (the retryable 5xx of the model);
* **outage windows** — :meth:`set_down` / :meth:`fail_for` make every
  request raise :class:`BackendOutage` until the store is brought back
  (or the window's virtual deadline passes);
* **chaos hooks** — an installed
  :class:`~repro.faults.capabilities.ChaosRegistry` is consulted per
  request: ``backend_outage`` fires an outage rejection,
  ``backend_fail`` a transient failure, and ``slow_io`` stretches the
  service time through the same :meth:`ChaosRegistry.io_service_ns`
  path the disks use — so the existing chaos campaign knobs compose
  with the remote tier unchanged.

Same seed, same call stream → same failures at the same requests and
the same nanoseconds of service, on either execution engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.backend.common import BackendOutage, LocalBackend, TransientBackendError
from repro.util.prng import DeterministicRandom


#: Upper bound of the seeded uniform per-request jitter (ns).
JITTER_NS = 500_000


@dataclass(frozen=True)
class ObjectStoreConfig:
    """The deterministic performance/failure model of one object store."""

    #: Flat per-request service cost (ns); the round-trip floor.
    latency_ns: int = 2_000_000
    #: Payload transfer rate (bytes per virtual second).
    bandwidth_bytes_per_sec: int = 20_000_000
    #: Percent of requests that fail retryably (0 = reliable).
    transient_fail_pct: int = 0
    #: Seed for the jitter/failure PRNG.
    seed: int = 0


class ObjectStoreBackend(LocalBackend):
    """Blob map behind a seeded latency, bandwidth and failure model."""

    def __init__(self, config: ObjectStoreConfig | None = None, *, clock=None) -> None:
        super().__init__(clock=clock)
        self.config = config or ObjectStoreConfig()
        self._rng = DeterministicRandom(self.config.seed ^ 0x0B15C0DE)
        self._down = False
        self._down_until_ns: int | None = None

    # -- outage control -------------------------------------------------

    def set_down(self, down: bool) -> None:
        """Open (or close) an indefinite outage window."""
        self._down = down
        if not down:
            self._down_until_ns = None

    def fail_for(self, duration_ns: int) -> None:
        """Outage until the machine clock passes ``now + duration_ns``."""
        if self._clock is None:
            raise TransientBackendError("fail_for needs an attached clock")
        self._down_until_ns = self._clock.now_ns + duration_ns

    @property
    def down(self) -> bool:
        """True while requests are being rejected with an outage."""
        if self._down:
            return True
        if self._down_until_ns is None:
            return False
        if self._clock is not None and self._clock.now_ns >= self._down_until_ns:
            self._down_until_ns = None
            return False
        return True

    # -- the per-request gate -------------------------------------------

    def _service_ns(self, nbytes: int) -> int:
        """Outage/failure checks, then the service time of the request.

        Evaluated when the request is issued, in a fixed order (outage,
        chaos outage, chaos fail, seeded fail, jitter draw) so the PRNG
        draw sequence is a pure function of the call stream.
        """
        if self.down:
            self.stats.outage_rejections += 1
            raise BackendOutage("object store is down")
        chaos = self.chaos
        if chaos is not None and chaos.should_fail("backend_outage"):
            self.stats.outage_rejections += 1
            raise BackendOutage("chaos: backend outage")
        if chaos is not None and chaos.should_fail("backend_fail"):
            self.stats.transient_errors += 1
            raise TransientBackendError("chaos: transient backend failure")
        config = self.config
        if config.transient_fail_pct and (
            self._rng.randrange(100) < config.transient_fail_pct
        ):
            self.stats.transient_errors += 1
            raise TransientBackendError("seeded transient backend failure")
        service = config.latency_ns
        if nbytes and config.bandwidth_bytes_per_sec:
            service += (nbytes * 1_000_000_000) // config.bandwidth_bytes_per_sec
        service += self._rng.randrange(JITTER_NS)
        if chaos is not None:
            service = chaos.io_service_ns(service)
        return service

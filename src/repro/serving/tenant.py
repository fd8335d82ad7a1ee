"""Tenant identities, quotas and fair-share weights.

The paper's deployment serves DPI logs from millions of China Mobile
subscribers through one shared lake (Section VII-A); the serving front
end models that contention as named *tenants*, each with a quota
envelope: a sustained message rate, a sustained byte rate, a cap on
concurrently admitted requests, and a weight that sets its share of
DataBus bandwidth under the deficit-round-robin scheduler.

Quotas are *declared*, not measured: the :class:`TenantRegistry` is the
single source the admission controller, scheduler and SLO tracker all
resolve through, so a tenant's limits cannot drift apart across layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.common.units import GiB
from repro.errors import ConfigError, UnknownTenantError


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's declared limits and scheduling share.

    ``burst_s`` sizes the admission token buckets: a tenant may burst up
    to ``rate * burst_s`` above its sustained rate before queueing
    starts (the classic token-bucket depth, expressed in seconds of
    sustained rate so msg and byte buckets stay proportional).
    """

    rate_msgs_per_s: float = 1_000_000.0
    rate_bytes_per_s: float = 1.0 * GiB
    #: concurrently admitted (not yet completed) requests
    max_in_flight: int = 64
    #: relative share of bus bandwidth under the DRR scheduler
    weight: int = 1
    #: token-bucket depth in seconds of sustained rate
    burst_s: float = 1.0

    def validate(self) -> None:
        if self.rate_msgs_per_s <= 0 or self.rate_bytes_per_s <= 0:
            raise ConfigError(
                f"tenant rates must be positive, got "
                f"{self.rate_msgs_per_s!r} msg/s, "
                f"{self.rate_bytes_per_s!r} B/s"
            )
        if self.max_in_flight < 1:
            raise ConfigError(
                f"max_in_flight must be >= 1, got {self.max_in_flight!r}"
            )
        if self.weight < 1:
            raise ConfigError(f"weight must be >= 1, got {self.weight!r}")
        if self.burst_s <= 0 or not math.isfinite(self.burst_s):
            raise ConfigError(f"burst_s must be positive, got {self.burst_s!r}")


class TenantRegistry:
    """The authoritative tenant -> quota mapping.

    Iteration order is sorted by tenant id everywhere, so every layer
    that walks the registry (the DRR rotation, SLO snapshots, bench
    reports) is deterministic for a given set of registrations.
    """

    def __init__(self) -> None:
        self._quotas: dict[str, TenantQuota] = {}

    def register(self, tenant_id: str,
                 quota: TenantQuota | None = None) -> TenantQuota:
        """Declare a tenant; re-registering an id is a config error."""
        if not tenant_id:
            raise ConfigError("tenant id must be non-empty")
        if tenant_id in self._quotas:
            raise ConfigError(f"tenant {tenant_id!r} already registered")
        quota = quota if quota is not None else TenantQuota()
        quota.validate()
        self._quotas[tenant_id] = quota
        return quota

    def get(self, tenant_id: str) -> TenantQuota:
        quota = self._quotas.get(tenant_id)
        if quota is None:
            raise UnknownTenantError(f"unknown tenant {tenant_id!r}")
        return quota

    def __contains__(self, tenant_id: str) -> bool:
        return tenant_id in self._quotas

    def __len__(self) -> int:
        return len(self._quotas)

    def tenants(self) -> list[str]:
        """All tenant ids, sorted (the deterministic iteration order)."""
        return sorted(self._quotas)

"""Cluster topology and placement knobs.

One :class:`ClusterConfig` describes the whole fleet a cluster sweep
explores: how many model replicas sit behind the load balancer (a
grid, so one sweep emits one capacity curve per replica count), how
many NDP devices back each replica, which sharding policies to
compare, and what crossing a device boundary costs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.balancer import BALANCERS
from repro.cluster.sharding import SHARDING_POLICIES


@dataclass(frozen=True)
class ClusterConfig:
    """Fleet shape for one cluster sweep.

    ``activation_bytes_per_token`` sizes the AMove a request pays per
    remote device its experts live on (0 disables transfer costs).
    The defaults (one device, zero activation bytes) are also the
    single-device cosim sweep's fleet: that sweep runs as one
    ``replicated`` replica of this config.
    """

    #: replica counts to sweep (one capacity curve per entry)
    replicas: tuple[int, ...] = (1, 2)
    #: NDP devices backing each replica (sharding spreads experts
    #: across them; 1 device is a pass-through to one controller)
    devices_per_replica: int = 1
    #: sharding policies to compare (one curve family per entry)
    policies: tuple[str, ...] = ("replicated",)
    #: request placement across replicas
    balancer: str = "round_robin"
    #: share of each layer's experts kept replicated on every device
    #: under ``hot_cold`` sharding
    hot_fraction: float = 0.125
    #: activation bytes per token shipped to each remote device whose
    #: experts a request activates (paid round-trip on the PCIe link)
    activation_bytes_per_token: int = 0

    def __post_init__(self) -> None:
        if not self.replicas:
            raise ValueError("replicas must be non-empty")
        if any(r < 1 for r in self.replicas):
            raise ValueError("replica counts must be >= 1")
        if list(self.replicas) != sorted(set(self.replicas)):
            raise ValueError("replicas must be strictly increasing")
        if self.devices_per_replica < 1:
            raise ValueError("devices_per_replica must be >= 1")
        if not self.policies:
            raise ValueError("policies must be non-empty")
        for policy in self.policies:
            if policy not in SHARDING_POLICIES:
                raise ValueError(
                    f"unknown sharding policy {policy!r}; "
                    f"choose from {SHARDING_POLICIES}"
                )
        if self.balancer not in BALANCERS:
            raise ValueError(
                f"unknown balancer {self.balancer!r}; choose from {BALANCERS}"
            )
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.activation_bytes_per_token < 0:
            raise ValueError("activation_bytes_per_token must be non-negative")

    def to_dict(self) -> dict:
        return {
            "replicas": list(self.replicas),
            "devices_per_replica": self.devices_per_replica,
            "policies": list(self.policies),
            "balancer": self.balancer,
            "hot_fraction": self.hot_fraction,
            "activation_bytes_per_token": self.activation_bytes_per_token,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ClusterConfig":
        known = {
            "replicas",
            "devices_per_replica",
            "policies",
            "balancer",
            "hot_fraction",
            "activation_bytes_per_token",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown ClusterConfig keys: {sorted(unknown)}")
        kwargs = dict(data)
        if "replicas" in kwargs:
            kwargs["replicas"] = tuple(kwargs["replicas"])
        if "policies" in kwargs:
            kwargs["policies"] = tuple(kwargs["policies"])
        return cls(**kwargs)

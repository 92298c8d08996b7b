"""Abstract datacenter topology: directed links plus multipath enumeration.

The fluid engine (:mod:`repro.fluidsim`) consumes these descriptions
directly; small instances can also be realized on the packet engine for
cross-validation. Links are *directed*: every physical cable contributes
two :class:`LinkSpec` entries.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.errors import ConfigurationError, RoutingError


@dataclass(frozen=True)
class LinkSpec:
    """One directed link of an abstract topology."""

    src: str
    dst: str
    capacity_bps: float
    delay_s: float
    #: "host-sw", "sw-host", "sw-sw", or "host-host" — "sw-sw" links form
    #: the set L' that the Section V.C energy price (Eq. 6) applies to.
    kind: str = "sw-sw"

    @property
    def is_switch_to_switch(self) -> bool:
        return self.kind == "sw-sw"


@dataclass
class PathSpec:
    """One directed path: an ordered list of link indices."""

    link_indices: Tuple[int, ...]
    #: Hosts that relay traffic mid-path (BCube's server-centric forwarding).
    relay_hosts: Tuple[str, ...] = ()

    def base_rtt(self, links: Sequence[LinkSpec]) -> float:
        """Two-way propagation floor, assuming a symmetric reverse path."""
        return 2.0 * sum(links[i].delay_s for i in self.link_indices)

    def min_capacity(self, links: Sequence[LinkSpec]) -> float:
        """Bottleneck capacity along the path."""
        return min(links[i].capacity_bps for i in self.link_indices)

    def switch_hops(self, links: Sequence[LinkSpec]) -> int:
        """Number of switch-to-switch links (the L' set of Eq. 6)."""
        return sum(1 for i in self.link_indices if links[i].is_switch_to_switch)


class DcTopology(ABC):
    """Base class: named nodes, directed links, and path enumeration."""

    def __init__(self) -> None:
        self.links: List[LinkSpec] = []
        self.hosts: List[str] = []
        self.switches: List[str] = []
        self._link_index: Dict[Tuple[str, str], int] = {}

    # ----------------------------------------------------------- construction

    def add_host(self, name: str) -> str:
        self.hosts.append(name)
        return name

    def add_switch(self, name: str) -> str:
        self.switches.append(name)
        return name

    def add_duplex_link(
        self, a: str, b: str, capacity_bps: float, delay_s: float, kind_ab: str, kind_ba: str
    ) -> Tuple[int, int]:
        """Add both directions of a cable; returns their link indices."""
        i_ab = self._add_directed(LinkSpec(a, b, capacity_bps, delay_s, kind_ab))
        i_ba = self._add_directed(LinkSpec(b, a, capacity_bps, delay_s, kind_ba))
        return i_ab, i_ba

    def _add_directed(self, spec: LinkSpec) -> int:
        key = (spec.src, spec.dst)
        if key in self._link_index:
            raise RoutingError(f"duplicate link {spec.src}->{spec.dst}")
        self.links.append(spec)
        idx = len(self.links) - 1
        self._link_index[key] = idx
        return idx

    def link_id(self, src: str, dst: str) -> int:
        """Index of the directed link src->dst."""
        try:
            return self._link_index[(src, dst)]
        except KeyError:
            raise RoutingError(f"no link {src}->{dst}") from None

    def path_from_nodes(self, nodes: Sequence[str], relay_hosts: Sequence[str] = ()) -> PathSpec:
        """Build a PathSpec along consecutive nodes."""
        idx = tuple(self.link_id(a, b) for a, b in zip(nodes, nodes[1:]))
        return PathSpec(idx, tuple(relay_hosts))

    # -------------------------------------------------------------- interface

    def paths(self, src_host: str, dst_host: str, max_paths: int) -> Sequence[PathSpec]:
        """Up to ``max_paths`` distinct forward paths between two hosts.

        The result is a :class:`~typing.Sequence` in a fixed enumeration
        order with the prefix property ``paths(s, d, m) ==
        paths(s, d, M)[:m]`` for ``m <= M``. It may be built lazily
        (the fat-tree builds each path on read), so a caller that
        samples indices from ``len()`` pays only for the items it
        reads; copy it with ``list()`` to keep it.
        """
        if max_paths < 1:
            raise ConfigurationError(f"max_paths must be >= 1, got {max_paths}")
        if src_host == dst_host:
            raise ConfigurationError("src and dst must differ")
        return self._paths(src_host, dst_host, max_paths)

    @abstractmethod
    def _paths(self, src_host: str, dst_host: str, max_paths: int) -> Sequence[PathSpec]:
        """:meth:`paths` for two distinct hosts and ``max_paths >= 1``."""

    @property
    def n_links(self) -> int:
        return len(self.links)

    def describe(self) -> str:
        """One-line summary used by experiment reports."""
        return (
            f"{type(self).__name__}: {len(self.hosts)} hosts, "
            f"{len(self.switches)} switches, {len(self.links)} directed links"
        )

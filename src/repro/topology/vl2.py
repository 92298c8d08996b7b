"""VL2 — Greenberg et al. SIGCOMM'09 (paper's Fig. 11 middle, Fig. 14).

A Clos of ToR, aggregation and intermediate switches where the
switch-to-switch fabric runs at a higher rate than the server links ("VL2
uses faster links between switches than FatTree"). The default sizing —
64 ToRs x 2 hosts, 8 aggregation, 8 intermediate — matches the paper's
"VL2: 128 hosts, 80 switches, 1 Gbps 100 ms links" with 100 Mbps server
links and a 1 Gbps fabric.

Each ToR uplinks to 2 aggregation switches; each aggregation switch
connects to every intermediate switch, giving (2 x 8 x 2) = 32 equal-cost
host-pair paths across the fabric.
"""

from __future__ import annotations

from typing import List

from repro.errors import ConfigurationError
from repro.topology.base import DcTopology, PathSpec
from repro.units import gbps, mbps, ms


class Vl2(DcTopology):
    """VL2 Clos fabric with a faster switch-to-switch tier."""

    def __init__(
        self,
        *,
        n_tor: int = 64,
        hosts_per_tor: int = 2,
        n_agg: int = 8,
        n_int: int = 8,
        host_link_bps: float = mbps(100),
        fabric_bps: float = gbps(1),
        link_delay: float = ms(100),
    ):
        if n_agg < 2:
            raise ConfigurationError(f"need at least 2 aggregation switches, got {n_agg}")
        super().__init__()
        self.host_link_bps = host_link_bps
        self.fabric_bps = fabric_bps
        self.link_delay = link_delay
        self.tors = [self.add_switch(f"tor{i}") for i in range(n_tor)]
        self.aggs = [self.add_switch(f"agg{i}") for i in range(n_agg)]
        self.ints = [self.add_switch(f"int{i}") for i in range(n_int)]
        self._host_tor = {}
        #: The two aggregation switches each ToR uplinks to.
        self._tor_aggs: List[List[int]] = []

        for t, tor in enumerate(self.tors):
            for h in range(hosts_per_tor):
                host = self.add_host(f"h{t}_{h}")
                self._host_tor[host] = t
                self.add_duplex_link(host, tor, host_link_bps, link_delay,
                                     "host-sw", "sw-host")
            uplinks = [(2 * t) % n_agg, (2 * t + 1) % n_agg]
            self._tor_aggs.append(uplinks)
            for a in uplinks:
                self.add_duplex_link(tor, self.aggs[a], fabric_bps, link_delay,
                                     "sw-sw", "sw-sw")
        for agg in self.aggs:
            for inter in self.ints:
                self.add_duplex_link(agg, inter, fabric_bps, link_delay,
                                     "sw-sw", "sw-sw")

    def _paths(self, src_host: str, dst_host: str, max_paths: int) -> List[PathSpec]:
        st, dt = self._host_tor[src_host], self._host_tor[dst_host]
        if st == dt:
            return [self.path_from_nodes([src_host, self.tors[st], dst_host])]
        out: List[PathSpec] = []
        seen = set()

        def emit(nodes) -> bool:
            key = tuple(nodes)
            if key in seen:
                return False
            seen.add(key)
            out.append(self.path_from_nodes(nodes))
            return len(out) >= max_paths

        # Shared aggregation switch: the direct (non-bounced) path first.
        for a_up in self._tor_aggs[st]:
            if a_up in self._tor_aggs[dt]:
                if emit([src_host, self.tors[st], self.aggs[a_up],
                         self.tors[dt], dst_host]):
                    return out
        for a_up in self._tor_aggs[st]:
            for inter in self.ints:
                for a_down in self._tor_aggs[dt]:
                    if a_up == a_down:
                        continue
                    if emit([src_host, self.tors[st], self.aggs[a_up], inter,
                             self.aggs[a_down], self.tors[dt], dst_host]):
                        return out
        return out

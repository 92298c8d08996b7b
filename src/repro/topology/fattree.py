"""FatTree(k) — Al-Fares et al. SIGCOMM'08 (paper's Fig. 11 left, Fig. 13).

A k-ary fat-tree has k pods; each pod holds k/2 edge and k/2 aggregation
switches; there are (k/2)^2 core switches; each edge switch serves k/2
hosts. With k = 8 this gives 128 hosts and 80 switches — exactly the
paper's "FatTree: 128 hosts, 80 switches, 100 Mbps 100 ms links".

Between hosts in different pods there are (k/2)^2 equal-cost paths (choose
the aggregation switch, then the core switch); within a pod there are k/2
(via aggregation) or 1 (same edge switch).
"""

from __future__ import annotations

import operator
from typing import List, Sequence

from repro.errors import ConfigurationError
from repro.topology.base import DcTopology, PathSpec
from repro.units import mbps, ms


class FatTree(DcTopology):
    """k-ary fat-tree with uniform link capacity and delay."""

    def __init__(
        self,
        k: int = 8,
        *,
        link_bps: float = mbps(100),
        link_delay: float = ms(100),
    ):
        if k < 2 or k % 2 != 0:
            raise ConfigurationError(f"fat-tree arity k must be even and >= 2, got {k}")
        super().__init__()
        self.k = k
        self.link_bps = link_bps
        self.link_delay = link_delay
        half = k // 2

        self.core = [self.add_switch(f"core{i}") for i in range(half * half)]
        self.edge: List[List[str]] = []
        self.agg: List[List[str]] = []
        self._host_pod = {}
        self._host_edge = {}

        for pod in range(k):
            edges = [self.add_switch(f"p{pod}e{i}") for i in range(half)]
            aggs = [self.add_switch(f"p{pod}a{i}") for i in range(half)]
            self.edge.append(edges)
            self.agg.append(aggs)
            for e_i, edge_name in enumerate(edges):
                for h_i in range(half):
                    host = self.add_host(f"h{pod}_{e_i}_{h_i}")
                    self._host_pod[host] = pod
                    self._host_edge[host] = e_i
                    self.add_duplex_link(
                        host, edge_name, link_bps, link_delay, "host-sw", "sw-host"
                    )
                for agg_name in aggs:
                    self.add_duplex_link(
                        edge_name, agg_name, link_bps, link_delay, "sw-sw", "sw-sw"
                    )
            for a_i, agg_name in enumerate(aggs):
                # Aggregation switch i of every pod connects to core group i.
                for c_i in range(half):
                    core_name = self.core[a_i * half + c_i]
                    self.add_duplex_link(
                        agg_name, core_name, link_bps, link_delay, "sw-sw", "sw-sw"
                    )

    def _paths(self, src_host: str, dst_host: str, max_paths: int) -> FatTreePaths:
        return FatTreePaths(self, src_host, dst_host, max_paths)


class FatTreePaths(Sequence[PathSpec]):
    """The equal-cost paths between two fat-tree hosts, each built on read.

    Enumeration order: cross-pod path ``i`` climbs through aggregation
    switch ``a = i // (k/2)`` and core switch ``i`` of group ``a``;
    same-pod path ``i`` bounces off aggregation switch ``i``; hosts on
    one edge switch have the single path through it. Item ``i`` is
    built from that closed form alone, so a caller that samples a few
    indices out of the (k/2)^2 never pays for the rest.
    """

    __slots__ = ("_topo", "_src", "_dst", "_src_pod", "_dst_pod", "_up", "_down", "_len")

    def __init__(self, topo: FatTree, src_host: str, dst_host: str, max_paths: int):
        half = topo.k // 2
        sp, dp = topo._host_pod[src_host], topo._host_pod[dst_host]
        up = topo.edge[sp][topo._host_edge[src_host]]
        down = topo.edge[dp][topo._host_edge[dst_host]]
        n = half * half if sp != dp else half if up != down else 1
        self._topo = topo
        self._src, self._dst = src_host, dst_host
        self._src_pod, self._dst_pod = sp, dp
        self._up, self._down = up, down
        self._len = min(n, max_paths)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        i = operator.index(index)
        if i < 0:
            i += self._len
        if not 0 <= i < self._len:
            raise IndexError(f"path index {index} out of range for {self._len} paths")
        t, sp, dp = self._topo, self._src_pod, self._dst_pod
        src, dst, up, down = self._src, self._dst, self._up, self._down
        if sp != dp:
            a_i = i // (t.k // 2)
            nodes = [src, up, t.agg[sp][a_i], t.core[i], t.agg[dp][a_i], down, dst]
        elif up != down:
            nodes = [src, up, t.agg[sp][i], down, dst]
        else:
            nodes = [src, up, dst]
        return t.path_from_nodes(nodes)


def fattree24(*, link_bps: float = mbps(100), link_delay: float = ms(1)) -> FatTree:
    """City-scale preset: FatTree(24) — 3456 hosts, 720 switches,
    20736 directed links, 144 equal-cost inter-pod paths per host pair.

    The default 1 ms link delay (vs. the paper-replica 100 ms of
    ``FatTree()``) keeps RTTs datacenter-like at this scale.
    """
    return FatTree(24, link_bps=link_bps, link_delay=link_delay)


def fattree32(*, link_bps: float = mbps(100), link_delay: float = ms(1)) -> FatTree:
    """City-scale preset: FatTree(32) — 8192 hosts, 1280 switches,
    49152 directed links, 256 equal-cost inter-pod paths per host pair."""
    return FatTree(32, link_bps=link_bps, link_delay=link_delay)

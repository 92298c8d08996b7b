"""Datacenter topology generator tests."""

import pytest

from repro.errors import ConfigurationError, RoutingError
from repro.topology import BCube, Ec2Cloud, FatTree, Vl2
from repro.topology.base import DcTopology, LinkSpec, PathSpec
from repro.units import gbps, mbps


def validate_paths(topo, paths, src, dst):
    """Every path must be link-contiguous from src to dst."""
    for path in paths:
        links = [topo.links[i] for i in path.link_indices]
        assert links[0].src == src
        assert links[-1].dst == dst
        for a, b in zip(links, links[1:]):
            assert a.dst == b.src


class TestFatTree:
    def test_paper_scale_counts(self):
        ft = FatTree(8)
        assert len(ft.hosts) == 128
        assert len(ft.switches) == 80

    def test_k4_counts(self):
        ft = FatTree(4)
        assert len(ft.hosts) == 16
        assert len(ft.switches) == 20

    def test_odd_k_rejected(self):
        with pytest.raises(ConfigurationError):
            FatTree(5)

    def test_cross_pod_path_count(self):
        ft = FatTree(4)
        paths = ft.paths(ft.hosts[0], ft.hosts[-1], 99)
        assert len(paths) == 4  # (k/2)^2

    def test_cross_pod_paths_valid(self):
        ft = FatTree(4)
        paths = ft.paths(ft.hosts[0], ft.hosts[-1], 99)
        validate_paths(ft, paths, ft.hosts[0], ft.hosts[-1])

    def test_same_edge_single_path(self):
        ft = FatTree(4)
        paths = ft.paths("h0_0_0", "h0_0_1", 99)
        assert len(paths) == 1
        assert len(paths[0].link_indices) == 2

    def test_same_pod_paths_via_aggregation(self):
        ft = FatTree(4)
        paths = ft.paths("h0_0_0", "h0_1_0", 99)
        assert len(paths) == 2  # k/2 aggregation choices
        validate_paths(ft, paths, "h0_0_0", "h0_1_0")

    def test_max_paths_respected(self):
        ft = FatTree(8)
        assert len(ft.paths(ft.hosts[0], ft.hosts[-1], 3)) == 3

    def test_same_host_rejected(self):
        ft = FatTree(4)
        with pytest.raises(ConfigurationError):
            ft.paths("h0_0_0", "h0_0_0", 4)

    def test_cross_pod_switch_hops(self):
        ft = FatTree(4)
        path = ft.paths(ft.hosts[0], ft.hosts[-1], 1)[0]
        assert path.switch_hops(ft.links) == 4


class TestVl2:
    def test_paper_scale_counts(self):
        vl2 = Vl2()
        assert len(vl2.hosts) == 128
        assert len(vl2.switches) == 80

    def test_fabric_faster_than_host_links(self):
        vl2 = Vl2()
        host_caps = {l.capacity_bps for l in vl2.links if l.kind in ("host-sw", "sw-host")}
        fabric_caps = {l.capacity_bps for l in vl2.links if l.kind == "sw-sw"}
        assert max(host_caps) < min(fabric_caps)

    def test_paths_are_valid(self):
        vl2 = Vl2()
        paths = vl2.paths(vl2.hosts[0], vl2.hosts[-1], 32)
        validate_paths(vl2, paths, vl2.hosts[0], vl2.hosts[-1])

    def test_no_duplicate_paths(self):
        vl2 = Vl2()
        paths = vl2.paths(vl2.hosts[0], vl2.hosts[-1], 64)
        keys = {p.link_indices for p in paths}
        assert len(keys) == len(paths)

    def test_same_tor_short_path(self):
        vl2 = Vl2()
        paths = vl2.paths("h0_0", "h0_1", 8)
        assert len(paths) == 1
        assert len(paths[0].link_indices) == 2

    def test_path_diversity_at_least_eight(self):
        vl2 = Vl2()
        paths = vl2.paths("h0_0", "h40_0", 8)
        assert len(paths) == 8


class TestBCube:
    def test_counts(self):
        bc = BCube(8, 1)
        assert len(bc.hosts) == 64
        assert len(bc.switches) == 16

    def test_bcube42_counts(self):
        bc = BCube(4, 2)
        assert len(bc.hosts) == 64
        assert len(bc.switches) == 48

    def test_all_links_touch_hosts(self):
        bc = BCube(4, 1)
        assert all(l.kind in ("host-sw", "sw-host") for l in bc.links)

    def test_host_digit_roundtrip(self):
        bc = BCube(4, 2)
        for name in bc.hosts[:8]:
            digits = bc.host_digits(name)
            assert bc._host_name[digits] == name

    def test_paths_valid(self):
        bc = BCube(4, 2)
        paths = bc.paths(bc.hosts[0], bc.hosts[-1], 8)
        validate_paths(bc, paths, bc.hosts[0], bc.hosts[-1])

    def test_relay_hosts_recorded(self):
        bc = BCube(4, 1)
        src, dst = "b00", "b11"  # differs in both digits -> needs a relay
        paths = bc.paths(src, dst, 2)
        assert all(p.relay_hosts for p in paths)
        for p in paths:
            assert src not in p.relay_hosts and dst not in p.relay_hosts

    def test_single_digit_difference_direct_path(self):
        bc = BCube(4, 1)
        paths = bc.paths("b00", "b01", 1)
        assert len(paths[0].link_indices) == 2
        assert not paths[0].relay_hosts

    def test_paths_distinct(self):
        bc = BCube(4, 2)
        paths = bc.paths(bc.hosts[0], bc.hosts[-1], 8)
        assert len({p.link_indices for p in paths}) == len(paths)

    def test_invalid_parameters(self):
        with pytest.raises(ConfigurationError):
            BCube(1, 1)
        with pytest.raises(ConfigurationError):
            BCube(4, -1)


class TestEc2:
    def test_counts(self):
        ec2 = Ec2Cloud()
        assert len(ec2.hosts) == 40
        assert len(ec2.switches) == 4

    def test_four_disjoint_paths(self):
        ec2 = Ec2Cloud()
        paths = ec2.paths("vm0", "vm1", 4)
        assert len(paths) == 4
        first_links = {p.link_indices[0] for p in paths}
        assert len(first_links) == 4  # distinct ENIs

    def test_eni_capacity(self):
        ec2 = Ec2Cloud()
        path = ec2.paths("vm0", "vm1", 1)[0]
        assert path.min_capacity(ec2.links) == mbps(256)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Ec2Cloud(n_hosts=1)


class TestBaseHelpers:
    def test_duplicate_link_rejected(self):
        class Tiny(DcTopology):
            def _paths(self, a, b, n):  # pragma: no cover
                return []

        t = Tiny()
        t.add_host("a")
        t.add_switch("s")
        t.add_duplex_link("a", "s", mbps(10), 0.001, "host-sw", "sw-host")
        with pytest.raises(RoutingError):
            t.add_duplex_link("a", "s", mbps(10), 0.001, "host-sw", "sw-host")

    def test_link_id_missing(self):
        class Tiny(DcTopology):
            def _paths(self, a, b, n):  # pragma: no cover
                return []

        t = Tiny()
        with pytest.raises(RoutingError):
            t.link_id("x", "y")

    def test_pathspec_base_rtt(self):
        links = [LinkSpec("a", "s", mbps(10), 0.002, "host-sw"),
                 LinkSpec("s", "b", mbps(10), 0.003, "sw-host")]
        path = PathSpec((0, 1))
        assert path.base_rtt(links) == pytest.approx(0.010)

    def test_pathspec_switch_hops(self):
        links = [LinkSpec("a", "s", mbps(10), 0.002, "host-sw"),
                 LinkSpec("s", "t", mbps(10), 0.002, "sw-sw"),
                 LinkSpec("t", "b", mbps(10), 0.003, "sw-host")]
        assert PathSpec((0, 1, 2)).switch_hops(links) == 1

    def test_describe_mentions_counts(self):
        ft = FatTree(4)
        text = ft.describe()
        assert "16 hosts" in text and "20 switches" in text

"""The ``DcTopology.paths`` contract and the builds that depend on it.

``FluidNetwork.add_connection`` draws its ECMP sample from ``len()`` of
the candidate sequence and reads only the chosen items, so every
topology must enumerate in a fixed order with the prefix property
``paths(s, d, m) == paths(s, d, M)[:m]``. The golden digests pin the
fattree24 build arrays byte for byte to what the eager enumerator
produced before path construction became lazy.
"""

import hashlib
import pickle
from typing import Sequence

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fluidsim import FluidNetwork
from repro.topology import BCube, Ec2Cloud, FatTree, Vl2, fattree24
from repro.workloads.permutation import random_permutation_pairs
from tests.test_topologies import validate_paths

#: Larger than any topology's full path count here.
ALL_PATHS = 4096

TOPOLOGIES = {
    "fattree4": lambda: FatTree(4),
    "fattree8": lambda: FatTree(8),
    "bcube": BCube,
    "vl2": Vl2,
    "ec2": Ec2Cloud,
}


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def topo(request):
    return TOPOLOGIES[request.param]()


def host_pairs(topo, n=12, seed=0):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        a, b = rng.choice(len(topo.hosts), size=2, replace=False)
        pairs.append((topo.hosts[a], topo.hosts[b]))
    return pairs


class TestPathsContract:
    def test_prefix_property_and_length(self, topo):
        for src, dst in host_pairs(topo):
            full = list(topo.paths(src, dst, ALL_PATHS))
            assert full
            for m in range(1, len(full) + 2):
                got = topo.paths(src, dst, m)
                assert isinstance(got, Sequence)
                assert len(got) == min(m, len(full))
                assert list(got) == full[:m]

    def test_paths_are_distinct_link_chains(self, topo):
        for src, dst in host_pairs(topo):
            full = list(topo.paths(src, dst, ALL_PATHS))
            validate_paths(topo, full, src, dst)
            assert len({p.link_indices for p in full}) == len(full)

    @pytest.mark.parametrize("max_paths", [0, -1])
    def test_max_paths_below_one_rejected(self, topo, max_paths):
        src, dst = host_pairs(topo, n=1)[0]
        with pytest.raises(ConfigurationError):
            topo.paths(src, dst, max_paths)

    def test_same_host_rejected(self, topo):
        with pytest.raises(ConfigurationError):
            topo.paths(topo.hosts[0], topo.hosts[0], 4)


class TestFatTreeLazyPaths:
    @pytest.mark.parametrize("dst", ["h0_0_1", "h0_1_0", "h7_3_3"])
    def test_indexing_and_slicing_match_list(self, dst):
        ft = FatTree(8)
        lazy = ft.paths("h0_0_0", dst, ALL_PATHS)
        eager = list(lazy)
        n = len(eager)
        assert n == {"h0_0_1": 1, "h0_1_0": 4, "h7_3_3": 16}[dst]
        for i in range(-n, n):
            assert lazy[i] == eager[i]
        for sl in (slice(None), slice(None, None, 2), slice(1, -1),
                   slice(-3, None), slice(None, None, -1), slice(5, 2)):
            assert lazy[sl] == eager[sl]
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                lazy[bad]

    def test_capped_length_bounds_indexing(self):
        ft = FatTree(8)
        lazy = ft.paths("h0_0_0", "h7_3_3", 5)
        assert len(lazy) == 5
        assert lazy[-1] == ft.paths("h0_0_0", "h7_3_3", ALL_PATHS)[4]
        with pytest.raises(IndexError):
            lazy[5]


def permutation_network(topo, seed, n_subflows, **kwargs):
    net = FluidNetwork(topo, path_seed=seed)
    pairs = random_permutation_pairs(topo.hosts, np.random.default_rng(seed))
    for src, dst in pairs:
        net.add_connection(src, dst, "lia", n_subflows=n_subflows, **kwargs)
    net.finalize()
    return net


def build_digest(net):
    h = hashlib.sha256()
    for arr in (net.routing.indptr, net.routing.indices, net.base_rtt,
                net.switch_hops, net.host_incidence.indices,
                net.host_endpoint_count):
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class TestFluidNetworkPaths:
    # n=1 and n=2 sample from the candidates; n=8 exceeds a same-pod
    # pair's 2 paths and a cross-pod pair's 4, so it keeps them all.
    @pytest.mark.parametrize("n_subflows", [1, 2, 8])
    def test_connection_paths_are_lists_and_network_pickles(self, n_subflows):
        net = permutation_network(FatTree(4), 3, n_subflows)
        assert all(type(c.paths) is list for c in net.connections)
        clone = pickle.loads(pickle.dumps(net))
        assert build_digest(clone) == build_digest(net)
        assert [c.paths for c in clone.connections] == [
            c.paths for c in net.connections]

    @pytest.mark.parametrize("kwargs", [
        {"n_subflows": 0}, {"n_subflows": -1},
        {"n_subflows": 1, "path_pool": 0}, {"n_subflows": 1, "path_pool": -1},
    ])
    def test_bad_counts_rejected_before_the_draw(self, kwargs):
        ft = FatTree(4)
        net = FluidNetwork(ft, path_seed=5)
        with pytest.raises(ConfigurationError):
            net.add_connection(ft.hosts[0], ft.hosts[-1], "lia", **kwargs)
        assert not net.connections
        # The rejected call consumed no randomness.
        fresh = FluidNetwork(ft, path_seed=5)
        a = net.add_connection(ft.hosts[0], ft.hosts[-1], "lia", n_subflows=1)
        b = fresh.add_connection(ft.hosts[0], ft.hosts[-1], "lia", n_subflows=1)
        assert a.paths == b.paths


#: Subflow count and SHA-256 of the fattree24 permutation build (seed 1)
#: as produced by the eager enumerator that built every candidate path
#: before sampling. At 4 subflows, the pairs that share an edge switch
#: have a single path, hence 13800 and not 4 x 3456.
FATTREE24_GOLDEN = {
    1: (3456, "0effab834456533a6e3296d8dd3eb8dff152992fbb0471352c85ca760da1e7f8"),
    4: (13800, "09322a9364766c0eb107f1250dc58d83b03ba8efde76a02f95367909075d7ab1"),
}


class TestFattree24GoldenBuild:
    @pytest.fixture(scope="class")
    def ft24(self):
        return fattree24()

    @pytest.mark.parametrize("n_subflows", sorted(FATTREE24_GOLDEN))
    def test_build_arrays_byte_identical(self, ft24, n_subflows):
        net = permutation_network(ft24, 1, n_subflows)
        assert (net.n_subflows, build_digest(net)) == FATTREE24_GOLDEN[n_subflows]

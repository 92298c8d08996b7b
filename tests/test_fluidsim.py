"""Fluid-simulator tests: state reductions, adapters, network, engine."""

import numpy as np
import pytest

from repro.core.model import ModelState, decomposition
from repro.errors import AlgorithmError, ConfigurationError
from repro.fluidsim import (
    FluidNetwork,
    FluidSimulation,
    create_fluid_algorithm,
    fluid_algorithm_names,
)
from repro.fluidsim.state import CohortState
from repro.topology import Ec2Cloud, FatTree
from repro.topology.base import DcTopology
from repro.units import mbps, ms


def cohort_state(w, rtt, base=None, user_starts=(0,), loss=None, queueing=None,
                 hops=None, marked=None):
    n = len(w)
    starts = np.asarray(user_starts, dtype=np.int64)
    user_of = np.zeros(n, dtype=np.int64)
    for u, s in enumerate(starts):
        end = starts[u + 1] if u + 1 < len(starts) else n
        user_of[s:end] = u
    return CohortState(
        w=np.asarray(w, float),
        rtt=np.asarray(rtt, float),
        base_rtt=np.asarray(base if base is not None else rtt, float),
        loss=np.asarray(loss if loss is not None else np.zeros(n), float),
        queueing=np.asarray(queueing if queueing is not None else np.zeros(n), float),
        switch_hops=np.asarray(hops if hops is not None else np.zeros(n), float),
        ecn_marked=np.asarray(marked if marked is not None else np.zeros(n), float),
        user_starts=starts,
        user_of=user_of,
    )


class TestCohortState:
    def test_user_sum_broadcast(self):
        st = cohort_state([1, 2, 3, 4], [0.1] * 4, user_starts=(0, 2))
        assert list(st.user_sum(st.w)) == [3, 3, 7, 7]

    def test_user_max(self):
        st = cohort_state([1, 5, 3, 4], [0.1] * 4, user_starts=(0, 2))
        assert list(st.user_max(st.w)) == [5, 5, 4, 4]

    def test_user_min(self):
        st = cohort_state([1, 5, 3, 4], [0.1] * 4, user_starts=(0, 2))
        assert list(st.user_min(st.w)) == [1, 1, 3, 3]

    def test_user_count(self):
        st = cohort_state([1, 5, 3], [0.1] * 3, user_starts=(0, 2))
        assert list(st.user_count()) == [2, 2, 1]

    def test_x_pkts(self):
        st = cohort_state([10], [0.05])
        assert st.x_pkts[0] == pytest.approx(200.0)


class TestAdapters:
    def test_registry(self):
        names = fluid_algorithm_names()
        assert "lia" in names and "dts-ext" in names

    def test_unknown_rejected(self):
        with pytest.raises(AlgorithmError):
            create_fluid_algorithm("vegas-prime")

    @pytest.mark.parametrize("name", ["lia", "balia", "ecmtcp", "ewtcp", "coupled"])
    def test_adapter_matches_decomposition(self, name):
        w = [12.0, 28.0]
        rtt = [0.03, 0.08]
        st = cohort_state(w, rtt)
        adapter = create_fluid_algorithm(name)
        measured = adapter.per_ack_increase(st)

        model = decomposition(name)
        expected = model.per_ack_increase(ModelState(w=np.array(w), rtt=np.array(rtt)))
        if name == "lia":
            expected = np.minimum(expected, 1.0 / np.array(w))
        assert list(measured) == pytest.approx(list(expected), rel=1e-6)

    def test_reno_uncoupled(self):
        st = cohort_state([10, 20], [0.05, 0.05])
        inc = create_fluid_algorithm("reno").per_ack_increase(st)
        assert list(inc) == pytest.approx([0.1, 0.05])

    def test_olia_adds_alpha_term(self):
        # Path 1 is best (lower loss) but has the smaller window.
        st = cohort_state([10, 20], [0.05, 0.05], loss=[0.001, 0.05])
        olia = create_fluid_algorithm("olia")
        inc = olia.per_ack_increase(st)
        coupled = olia._coupled_base(st)
        assert inc[0] > coupled[0]  # boosted
        assert inc[1] < coupled[1]  # drained

    def test_dts_epsilon_vectorized(self):
        st = cohort_state([10, 10], [0.1, 0.05], base=[0.05, 0.05])
        dts = create_fluid_algorithm("dts")
        eps = dts.epsilon(st)
        assert eps[0] == pytest.approx(1.0, rel=1e-6)
        assert eps[1] > 1.9

    def test_dts_ext_drain_negative(self):
        st = cohort_state([10, 10], [0.05, 0.05], hops=[4, 4])
        ext = create_fluid_algorithm("dts-ext", kappa=1e-3)
        adj = ext.rate_adjustment(st, dt=0.01)
        assert all(adj < 0)

    def test_wvegas_balances_to_target(self):
        # Heavy backlog shrinks, empty queue grows.
        st = cohort_state([40, 10], [0.1, 0.05], base=[0.05, 0.05],
                          queueing=[0.05, 0.0])
        wv = create_fluid_algorithm("wvegas")
        adj = wv.rate_adjustment(st, dt=0.1)
        assert adj[0] < 0 < adj[1]

    def test_balia_decrease_range(self):
        st = cohort_state([10, 40], [0.05, 0.05])
        factors = create_fluid_algorithm("balia").loss_decrease_factor(st)
        assert factors[0] == pytest.approx(0.25)  # alpha capped at 1.5
        assert factors[1] == pytest.approx(0.5)

    def test_dctcp_drains_only_when_marked(self):
        st = cohort_state([20, 20], [0.05, 0.05], marked=[1.0, 0.0])
        dctcp = create_fluid_algorithm("dctcp")
        # Warm the alpha estimator.
        for _ in range(200):
            adj = dctcp.rate_adjustment(st, dt=0.01)
        assert adj[0] < 0
        assert adj[1] == 0


def tiny_topology():
    class Pair(DcTopology):
        def __init__(self):
            super().__init__()
            self.add_host("a")
            self.add_host("b")
            self.add_switch("s")
            self.add_duplex_link("a", "s", mbps(100), ms(2), "host-sw", "sw-host")
            self.add_duplex_link("s", "b", mbps(100), ms(2), "sw-host", "host-sw")

        def _paths(self, src, dst, n):
            return [self.path_from_nodes([src, "s", dst])]

    return Pair()


class TestFluidNetwork:
    def test_finalize_builds_arrays(self):
        net = FluidNetwork(tiny_topology())
        net.add_connection("a", "b", "lia", n_subflows=1)
        net.finalize()
        assert net.n_subflows == 1
        assert net.routing.shape == (4, 1)
        assert net.base_rtt[0] == pytest.approx(0.008)

    def test_add_after_finalize_rejected(self):
        net = FluidNetwork(tiny_topology())
        net.add_connection("a", "b", "lia", n_subflows=1)
        net.finalize()
        with pytest.raises(ConfigurationError):
            net.add_connection("a", "b", "lia", n_subflows=1)

    def test_double_finalize_rejected(self):
        net = FluidNetwork(tiny_topology())
        net.add_connection("a", "b", "lia", n_subflows=1)
        net.finalize()
        with pytest.raises(ConfigurationError):
            net.finalize()

    def test_endpoint_counts(self):
        net = FluidNetwork(tiny_topology())
        net.add_connection("a", "b", "lia", n_subflows=1)
        net.finalize()
        # Both endpoints hold one subflow each; nothing relays.
        assert list(net.host_endpoint_count) == [1, 1]

    def test_cohorts_group_by_algorithm(self):
        ec2 = Ec2Cloud(n_hosts=4)
        net = FluidNetwork(ec2)
        net.add_connection("vm0", "vm1", "lia", n_subflows=2)
        net.add_connection("vm2", "vm3", "lia", n_subflows=2)
        net.add_connection("vm1", "vm2", "reno", n_subflows=1)
        net.finalize()
        assert len(net.cohorts) == 2
        sizes = sorted(len(c.ids) for c in net.cohorts)
        assert sizes == [1, 4]

    def test_ecmp_sampling_varies_paths(self):
        ft = FatTree(4)
        chosen = set()
        for seed in range(6):
            net = FluidNetwork(ft, path_seed=seed)
            conn = net.add_connection(ft.hosts[0], ft.hosts[-1], "lia",
                                      n_subflows=1)
            chosen.add(conn.paths[0].link_indices)
        assert len(chosen) > 1

    def test_no_path_rejected(self):
        class Disconnected(DcTopology):
            def __init__(self):
                super().__init__()
                self.add_host("a")
                self.add_host("b")

            def _paths(self, src, dst, n):
                return []

        net = FluidNetwork(Disconnected())
        with pytest.raises(ConfigurationError):
            net.add_connection("a", "b", "lia", n_subflows=1)


class TestFluidEngine:
    def run_pair(self, algorithm="reno", duration=20.0, seed=1):
        net = FluidNetwork(tiny_topology())
        net.add_connection("a", "b", algorithm, n_subflows=1)
        net.finalize()
        sim = FluidSimulation(net, dt=0.002, seed=seed)
        return sim.run(duration)

    def test_single_flow_fills_link(self):
        res = self.run_pair()
        assert res.aggregate_goodput_bps > mbps(70)
        assert res.aggregate_goodput_bps <= mbps(100) * 1.01

    def test_delivered_bits_consistent(self):
        res = self.run_pair(duration=10.0)
        assert res.connection_bits[0] == pytest.approx(
            res.connection_goodput_bps[0] * 10.0
        )

    def test_losses_occur_at_overload(self):
        res = self.run_pair()
        assert res.loss_events.sum() > 0

    def test_energy_positive_and_sane(self):
        res = self.run_pair(duration=10.0)
        assert res.host_energy_j > 0
        assert res.switch_energy_j > 0
        # Two hosts idling at 20 W for 10 s is the floor.
        assert res.host_energy_j > 2 * 20.0 * 10.0 * 0.9

    def test_deterministic_given_seed(self):
        a = self.run_pair(seed=3)
        b = self.run_pair(seed=3)
        assert a.aggregate_goodput_bps == pytest.approx(b.aggregate_goodput_bps)
        assert a.total_energy_j == pytest.approx(b.total_energy_j)

    def test_seed_changes_loss_pattern(self):
        a = self.run_pair(seed=3)
        b = self.run_pair(seed=4)
        assert a.loss_events.sum() != b.loss_events.sum() or (
            a.aggregate_goodput_bps != b.aggregate_goodput_bps
        )

    def test_energy_per_gb(self):
        res = self.run_pair(duration=10.0)
        expected = res.total_energy_j / (res.connection_bits.sum() / 8e9)
        assert res.energy_per_gb() == pytest.approx(expected)

    def test_mean_utilization_bounded(self):
        res = self.run_pair()
        assert np.all(res.mean_utilization >= 0)
        assert np.all(res.mean_utilization <= 1.0)

    def test_requires_finalized_network(self):
        net = FluidNetwork(tiny_topology())
        net.add_connection("a", "b", "lia", n_subflows=1)
        with pytest.raises(ConfigurationError):
            FluidSimulation(net)

    def test_invalid_dt_rejected(self):
        net = FluidNetwork(tiny_topology())
        net.add_connection("a", "b", "lia", n_subflows=1)
        net.finalize()
        with pytest.raises(ConfigurationError):
            FluidSimulation(net, dt=0)

    def test_rtt_floor_respected(self):
        res = self.run_pair()
        assert np.all(res.mean_rtt >= 0.008 * 0.999)

    @pytest.mark.parametrize("fast_path", [True, False])
    def test_energy_trailing_window_clamped(self, fast_path):
        # 15 steps sampled every 10: windows are [10, 5]. The trailing
        # partial window used to be billed as a full 10 steps.
        net = FluidNetwork(tiny_topology())
        net.add_connection("a", "b", "reno", n_subflows=1)
        net.finalize()
        dt = 0.002
        sim = FluidSimulation(net, dt=dt, seed=1, energy_sample_every=10,
                              fast_path=fast_path)
        res = sim.run(15 * dt)
        assert len(res.sample_power_w) == 2
        expected = sum(p * dt * w for p, w in zip(res.sample_power_w, [10, 5]))
        assert res.total_energy_j == pytest.approx(expected, rel=1e-12)
        overcounted = sum(p * dt * 10 for p in res.sample_power_w)
        assert res.total_energy_j < overcounted

    def test_energy_unchanged_when_steps_divide_evenly(self):
        # Sanity guard for figure byte-stability: the clamp is a no-op
        # when n_steps is a multiple of energy_sample_every.
        net = FluidNetwork(tiny_topology())
        net.add_connection("a", "b", "reno", n_subflows=1)
        net.finalize()
        dt = 0.002
        sim = FluidSimulation(net, dt=dt, seed=1, energy_sample_every=10)
        res = sim.run(20 * dt)
        expected = sum(p * dt * 10 for p in res.sample_power_w)
        assert res.total_energy_j == pytest.approx(expected, rel=1e-12)


class TestCrossEngineConsistency:
    """Packet-level and fluid engines should agree on simple equilibria."""

    def test_single_bottleneck_goodput_agreement(self):
        from repro.net import Network
        from repro.net.queues import DropTailQueue

        # Packet level.
        pnet = Network(seed=1)
        a, b = pnet.add_host("a"), pnet.add_host("b")
        s = pnet.add_switch("s")
        pnet.link(a, s, rate_bps=mbps(100), delay=ms(2),
                  queue_factory=lambda: DropTailQueue(limit_packets=100))
        pnet.link(s, b, rate_bps=mbps(100), delay=ms(2),
                  queue_factory=lambda: DropTailQueue(limit_packets=100))
        conn = pnet.tcp_connection(pnet.route([a, s, b]), total_bytes=None)
        conn.start()
        pnet.run(until=20.0)
        packet_goodput = conn.aggregate_goodput_bps(elapsed=20.0)

        # Fluid.
        fnet = FluidNetwork(tiny_topology())
        fnet.add_connection("a", "b", "reno", n_subflows=1)
        fnet.finalize()
        fluid_goodput = FluidSimulation(fnet, dt=0.002, seed=1).run(20.0).aggregate_goodput_bps

        assert packet_goodput == pytest.approx(fluid_goodput, rel=0.25)

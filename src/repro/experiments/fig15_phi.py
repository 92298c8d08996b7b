"""Fig. 15 — the compensative parameter phi in hierarchical topologies.

FatTree and VL2 with 8 subflows per connection; LIA vs DTS vs extended DTS
(the Eq. 9 model with the energy price). The paper reports "up to 20%"
energy saving from the phi term. Switches here are energy-proportional
with sleeping ports (``port_idle_w = 0``) per the adaptive power
management the price is derived from (Section V.C's refs [22, 23]) —
phi's whole purpose is to let the network right-size around the reduced
queue/retransmission load.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.report import format_table
from repro.energy.switch import SwitchPowerModel
from repro.experiments.fig12_14_subflows import default_topology
from repro.fluidsim import FluidSimulation, permutation_network

FIG15_ALGORITHMS = ["lia", "dts", "dts-ext"]


@dataclass
class Fig15Row:
    topology: str
    algorithm: str
    energy_per_gb: float
    aggregate_goodput_bps: float
    host_energy_j: float
    switch_energy_j: float
    loss_events: float


@dataclass
class Fig15Result:
    rows: List[Fig15Row]

    def energy(self, topology: str, algorithm: str) -> float:
        for r in self.rows:
            if r.topology == topology and r.algorithm == algorithm:
                return r.energy_per_gb
        raise KeyError((topology, algorithm))

    def goodput(self, topology: str, algorithm: str) -> float:
        for r in self.rows:
            if r.topology == topology and r.algorithm == algorithm:
                return r.aggregate_goodput_bps
        raise KeyError((topology, algorithm))

    def saving(self, topology: str, *, baseline: str = "lia",
               candidate: str = "dts-ext") -> float:
        base = self.energy(topology, baseline)
        return (base - self.energy(topology, candidate)) / base


def proportional_switch_model() -> SwitchPowerModel:
    """Energy-proportional switches with sleeping idle ports."""
    return SwitchPowerModel(chassis_w=10.0, port_idle_w=0.0, port_max_w=1.5)


def run(
    *,
    topologies: Optional[List[str]] = None,
    algorithms: Optional[List[str]] = None,
    n_subflows: int = 8,
    duration: float = 30.0,
    dt: float = 0.004,
    seeds: Optional[List[int]] = None,
    kappa: float = 5e-5,
) -> Fig15Result:
    """Run the Fig. 15 grid (energy) — Fig. 16 reads the same rows'
    goodput column."""
    topos = topologies if topologies is not None else ["fattree", "vl2"]
    algs = algorithms if algorithms is not None else FIG15_ALGORITHMS
    seed_list = seeds if seeds is not None else [1, 2]
    rows: List[Fig15Row] = []
    for topo_name in topos:
        for alg in algs:
            e_gb, goodput, e_host, e_switch, losses = [], [], [], [], []
            for seed in seed_list:
                net = permutation_network(
                    default_topology(topo_name), alg, n_subflows=n_subflows,
                    seed=seed,
                    algorithm_kwargs={"kappa": kappa} if alg == "dts-ext" else None,
                )
                sim = FluidSimulation(
                    net, dt=dt, seed=seed, switch_power=proportional_switch_model()
                )
                res = sim.run(duration)
                e_gb.append(res.energy_per_gb())
                goodput.append(res.aggregate_goodput_bps)
                e_host.append(res.host_energy_j)
                e_switch.append(res.switch_energy_j)
                losses.append(float(res.loss_events.sum()))
            n = len(seed_list)
            rows.append(
                Fig15Row(
                    topology=topo_name,
                    algorithm=alg,
                    energy_per_gb=sum(e_gb) / n,
                    aggregate_goodput_bps=sum(goodput) / n,
                    host_energy_j=sum(e_host) / n,
                    switch_energy_j=sum(e_switch) / n,
                    loss_events=sum(losses) / n,
                )
            )
    return Fig15Result(rows=rows)


def main() -> None:
    """Print the Fig. 15 grid."""
    result = run()
    print(format_table(
        ["topology", "algorithm", "J per GB", "goodput (Gbps)",
         "host E (J)", "switch E (J)", "losses"],
        [[r.topology, r.algorithm, r.energy_per_gb,
          r.aggregate_goodput_bps / 1e9, r.host_energy_j,
          r.switch_energy_j, r.loss_events] for r in result.rows],
    ))
    for topo in ("fattree", "vl2"):
        print(f"{topo}: dts-ext saving vs lia = "
              f"{100*result.saving(topo):.1f}%")


if __name__ == "__main__":
    main()

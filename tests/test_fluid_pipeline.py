"""One fluid scenario pipeline: builder -> stepped or solved -> one summary.

The goldens pin the ``metrics`` of three small campaign points (a
converging equilibrium solve, an equilibrium fallback to integration,
and a sharded stepped run) with exact float equality; they were
recorded before the three executor paths were folded into one.  The
contract and validation tests pin what the fold guarantees: every fluid
engine accepts the same build and stepping ``params``, rejects unknown
ones when the spec is made, and a fallback run is the stepped run.
"""

import pytest

from repro.campaign.executor import execute_run
from repro.campaign.spec import RunSpec
from repro.errors import ConfigurationError

#: The three goldens' shared point: BCube(4, 2), two subflows, seed 1.
POINT = dict(topology="bcube", n_subflows=2, seed=1)


def test_equilibrium_converged_point_byte_identical():
    m = execute_run(RunSpec(engine="fluid-equilibrium", algorithm="lia",
                            duration=2.0, dt=0.004, **POINT))["metrics"]
    assert m == {
        "energy_per_gb": 7421.925547671049,
        "aggregate_goodput_bps": 3625536605.7051554,
        "host_energy_j": 3430.318398241821,
        "switch_energy_j": 3296.7972912330965,
        "total_energy_j": 6727.115689474917,
        "delivered_bits": 7251073211.410311,
        "loss_events": 98,
        "mean_rtt_s": 0.029995453999653615,
        "mean_utilization": 0.5853937882526908,
        "n_connections": 64,
        "n_subflows_total": 128,
        "steps_taken": 0,
        "solver": {"fallback": False, "converged": True, "iterations": 86,
                   "residual": 0.0009795853726385533},
    }


def test_equilibrium_fallback_point_byte_identical():
    m = execute_run(RunSpec(engine="fluid-equilibrium", algorithm="wvegas",
                            duration=0.4, dt=0.01, **POINT))["metrics"]
    assert m == {
        "energy_per_gb": 9703.099879189513,
        "aggregate_goodput_bps": 2696176739.402417,
        "host_energy_j": 664.8255334312952,
        "switch_energy_j": 643.2380762871633,
        "total_energy_j": 1308.0636097184583,
        "delivered_bits": 1078470695.7609668,
        "loss_events": 0,
        "mean_rtt_s": 0.01430731077069567,
        "mean_utilization": 0.4148693365406963,
        "n_connections": 64,
        "n_subflows_total": 128,
        "steps_taken": 40,
        "solver": {"fallback": True,
                   "reason": "no loss-balance equilibrium for algorithm(s) "
                             "wvegas; use the time-stepped engine"},
    }


def test_sharded_point_byte_identical():
    m = execute_run(RunSpec(engine="fluid", algorithm="lia", duration=0.4,
                            dt=0.01, params={"shards": 2}, **POINT))["metrics"]
    assert m == {
        "energy_per_gb": 12782.363619342586,
        "aggregate_goodput_bps": 4034765510.2004232,
        "host_energy_j": 1307.0532283032587,
        "switch_energy_j": 1271.638765204947,
        "total_energy_j": 2578.691993508206,
        "delivered_bits": 1613906204.0801692,
        "loss_events": 0,
        "mean_rtt_s": 0.013178920060643327,
        "mean_utilization": 0.3017899293191965,
        "n_connections": 128,
        "n_subflows_total": 256,
        "steps_taken": 80,
        "n_shards": 2,
    }


@pytest.mark.parametrize("algorithm", ["wvegas", "dctcp"])
def test_equilibrium_fallback_is_the_stepped_run(algorithm):
    spec = RunSpec(engine="fluid", algorithm=algorithm, duration=0.3,
                   dt=0.01, **POINT)
    stepped = execute_run(spec)["metrics"]
    fallback = execute_run(spec.replace(engine="fluid-equilibrium"))["metrics"]
    assert fallback.pop("solver")["fallback"] is True
    assert fallback == stepped


@pytest.mark.parametrize("engine,params", [
    ("fluid", {"bogus": 1}),
    ("fluid-equilibrium", {"bogus": 1}),
    ("fluid", {"shards": 2, "bogus": 1}),
    ("fluid-equilibrium", {"shards": 2}),
])
def test_unknown_params_rejected_when_the_spec_is_made(engine, params):
    with pytest.raises(ConfigurationError, match="bogus|shards"):
        RunSpec(engine=engine, params=params, **POINT)


@pytest.mark.parametrize("engine", ["fluid", "fluid-equilibrium"])
def test_path_pool_reaches_every_fluid_engine(engine):
    # One subflow on a k=8 fat-tree: the default pool draws each flow's
    # core at random, a pool of one pins every flow to its first path.
    spec = RunSpec(engine=engine, topology="fattree", algorithm="lia",
                   n_subflows=1, seed=1, duration=0.3, dt=0.01)
    default = execute_run(spec)["metrics"]
    pinned = execute_run(spec.replace(params={"path_pool": 1}))["metrics"]
    assert pinned["n_subflows_total"] == default["n_subflows_total"]
    assert pinned["mean_utilization"] != default["mean_utilization"]


def test_sharded_runs_accept_the_stepping_params():
    # The legacy loop is the fast path's bit-identical oracle, so a
    # sharded run reaches the same metrics on either loop.
    spec = RunSpec(engine="fluid", algorithm="lia", duration=0.2, dt=0.01,
                   params={"shards": 2}, **POINT)
    legacy = spec.replace(params={"shards": 2, "fast_path": False})
    assert execute_run(legacy)["metrics"] == execute_run(spec)["metrics"]

"""Tests of the benchmark itself (not of the program it measures).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q

The real workloads take 5-10 s per execution, so most tests drive the same code
paths with tiny stand-in workloads.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402
from perfbench.spans import SpanRecorder  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS, CampaignWorkload, DesWorkload, point_label, replay_failures)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _tiny_campaigns(seed):
    from repro.campaign import subflow_sweep_campaign

    return [subflow_sweep_campaign(["bcube"], subflow_counts=(1, 2), seeds=(seed,),
                                   duration=0.2, dt=0.01, name="tiny")]


def tiny_campaign(**kwargs):
    return CampaignWorkload("tiny", _tiny_campaigns, **kwargs)


def tiny_des():
    return DesWorkload(transfer_bytes=256 * 1024)


@pytest.fixture
def in_process_probes(monkeypatch):
    """Stand-in workloads are not in the registry a probe process reads."""
    monkeypatch.setattr(run, "setup_probe", lambda workload, seed: 0.5)


def _fingerprint(inputs):
    if isinstance(inputs, list) and inputs and hasattr(inputs[0], "runs"):
        return [spec.content_hash() for c in inputs for spec in c.runs]
    return list(inputs)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_in_the_seed(name):
    workload = WORKLOADS[name]
    first = _fingerprint(workload.inputs(7))
    assert first == _fingerprint(workload.inputs(7))
    assert first != _fingerprint(workload.inputs(8))


def test_workload_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("make", [tiny_campaign, tiny_des])
def test_printed_metric_names_match_benchmark_json(make, tmp_path, in_process_probes):
    workload = make()
    e2e = run.measure(workload, 2, tmp_path / "e2e", 0)
    assert e2e["failures"] == {}
    block = run._metric_block("end_to_end", e2e["metrics"], SPEC)
    assert list(block) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in block.values())

    layers = run.traced(workload, 2, tmp_path / "traced")
    assert layers["failures"] == {}
    block = run._metric_block("per_layer", layers["metrics"], SPEC)
    assert list(block) == [m["name"] for m in SPEC["per_layer"]]


def test_traced_campaign_attributes_time_and_counts(tmp_path):
    layers = run.traced(tiny_campaign(), 2, tmp_path)["metrics"]
    assert layers["engine.steps"] == 2 * 20
    assert layers["engine.run_s"] > 0 and layers["topology.build_s"] > 0
    assert layers["campaign.cache_hits"] == 2 and layers["campaign.replay_s"] > 0
    assert layers["network.build_reuse_frac"] == 0
    assert layers["batch.rounds"] == 0 and layers["des.events"] == 0


def test_traced_des_reads_simulator_counters(tmp_path):
    layers = run.traced(tiny_des(), 2, tmp_path)["metrics"]
    assert layers["des.events"] > 0 and layers["des.run_s"] > 0
    assert layers["engine.steps"] == 0 and layers["campaign.cache_hits"] == 0
    assert layers["campaign.replay_s"] == 0


def test_injected_failing_point_raises_failed_frac(tmp_path, in_process_probes):
    from repro.campaign.executor import execute_run

    def flaky(spec):
        if spec.n_subflows == 2:
            raise RuntimeError("injected")
        return execute_run(spec)

    result = run.measure(tiny_campaign(run_fn=flaky), 2, tmp_path, 0)
    bad = point_label(_tiny_campaigns(2)[0].runs[1])
    assert list(result["failures"]) == [bad]
    assert "injected" in result["failures"][bad]
    assert len(result["failures"]) / result["attempted"] == 0.5


def test_reference_mismatch_counts_as_failure(tmp_path, in_process_probes, monkeypatch):
    workload = tiny_campaign()
    labels = [point_label(s) for s in _tiny_campaigns(1)[0].runs]
    monkeypatch.setattr("perfbench.workloads.load_reference",
                        lambda: {"tiny": {labels[0]: "0" * 64}})
    failures = run.measure(workload, 1, tmp_path, 0)["failures"]
    assert failures == {labels[0]: "metrics differ from the recorded reference",
                        labels[1]: "no reference recorded for this point"}


def _entry_points(workload):
    """Every attribute the traced pass replaces, with its current value."""
    import repro.campaign.executor as executor_mod
    import repro.experiments.fig09_dts_testbed as fig09
    import repro.fluidsim as fluidsim
    import repro.net.batch as batch
    from repro.campaign import CampaignExecutor, ResultCache, RunSpec
    from repro.fluidsim import FluidNetwork, FluidSimulation
    from repro.net.batch import BatchEngine
    from repro.net.network import Network

    owners = [(CampaignExecutor, "run"), (RunSpec, "content_hash"), (ResultCache, "get"),
              (ResultCache, "put"), (executor_mod, "build_topology"),
              (FluidNetwork, "add_connection"), (FluidNetwork, "finalize"),
              (FluidSimulation, "run"), (fluidsim, "solve_fluid_equilibrium"),
              (fluidsim, "PowerEvaluator"), (batch, "ec2_scenario"),
              (BatchEngine, "run"), (BatchEngine, "result"),
              (fig09, "build_traffic_shifting"), (Network, "run_until_complete")]
    return {(o, a): vars(o)[a] for o, a in owners}


@pytest.mark.parametrize("make", [tiny_campaign, tiny_des])
def test_wrappers_restore_the_originals(make, tmp_path):
    workload = make()
    before = _entry_points(workload)
    recorder = SpanRecorder()
    with workload.traced(recorder):
        inside = _entry_points(workload)
        assert any(inside[k] is not v for k, v in before.items())
    assert all(_entry_points(workload)[k] is v for k, v in before.items())

    run.traced(workload, 2, tmp_path)
    assert all(_entry_points(workload)[k] is v for k, v in before.items())


def test_restores_even_when_the_job_raises():
    workload = tiny_campaign()
    before = _entry_points(workload)
    with pytest.raises(RuntimeError):
        with workload.traced(SpanRecorder()):
            raise RuntimeError("job failed")
    assert all(_entry_points(workload)[k] is v for k, v in before.items())


def test_self_time_subtracts_children():
    rec = SpanRecorder()
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            pass
    outer, first, second = rec.spans
    assert first.parent == second.parent == 0 and outer.parent is None
    own = rec.self_time_by_name()
    assert own["outer"] == pytest.approx(outer.duration - first.duration - second.duration)
    assert own["inner"] == pytest.approx(first.duration + second.duration)


def test_setup_probe_imports_and_generates_inputs():
    assert run.setup_probe(WORKLOADS["packet-des"], 3) > 0


def test_replay_mismatch_counts_as_failure(tmp_path):
    workload = tiny_campaign()
    inputs = workload.inputs(2)
    cold = workload.run(inputs, tmp_path)
    replay = workload.replay(inputs, tmp_path)
    assert replay_failures(cold, replay) == {}
    label = next(iter(replay.outputs))
    replay.outputs[label] = {**replay.outputs[label], "metrics": {}}
    assert replay_failures(cold, replay) == {
        label: "replayed output differs from the cold output"}
    failures = workload.check(2, inputs, cold, replay_failures(cold, replay))
    assert list(failures) == [label]


def test_repeated_cold_runs_must_agree(tmp_path, in_process_probes):
    from repro.campaign.executor import execute_run

    calls = []

    def drifting(spec):
        payload = execute_run(spec)
        calls.append(spec)
        if len(calls) > 2:  # every point after the first cold job
            payload["metrics"] = {**payload["metrics"], "loss_events": -len(calls)}
        return payload

    result = run.measure(tiny_campaign(run_fn=drifting), 2, tmp_path, 0)
    assert len(result["diagnostics"]["job_samples_s"]) == run.MIN_REPS
    assert len(result["failures"]) == 2
    assert set(result["failures"].values()) == {
        "repeated output differs from the cold output"}


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "packet-des", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_unknown_workload_exits_nonzero():
    proc = subprocess.run(SPEC["command"] + ["--workload", "nope", "--seed", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stdout == ""

"""The benchmark's workloads: inputs from a seed, the job a user runs, its
warm replay from the result cache, the output checks, and the per-layer
metrics of a traced pass.

Every job goes through the public entry points a user calls, in one
process with ``jobs=1``:

- ``fluid-equilibrium``: ``subflow_sweep_campaign(["fattree24"], ...)``
  for DTS, LIA and OLIA on the ``fluid-equilibrium`` engine;
- ``packet-batch``: ``ec2_sweep_campaign(n_hosts=1000, ...)`` for DTS
  and LIA on the ``packet-batch`` engine;
- ``packet-des``: ``fig09_dts_testbed.run(transfer_bytes=12 MB, seeds=[s, ..., s + 7])``.

README.md in this directory says why each was chosen and how it is sized.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from perfbench.spans import SpanRecorder, Target, instrument, patched

#: Seed whose outputs are compared against ``reference/seed1.json``.
DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "seed1.json"
#: Equilibrium points may differ from a time-stepped integration of the
#: same spec by this share of aggregate goodput (the bound the repository's
#: ``engine.fluid_equilibrium`` bench case gates).
EQUILIBRIUM_TOLERANCE = 0.10


def canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    return hashlib.sha256(canonical(obj).encode("utf-8")).hexdigest()


def _finite_positive(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value) and value > 0


def load_reference() -> Dict[str, Dict[str, Any]]:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@dataclasses.dataclass
class Job:
    """What one execution of a workload produced, point by point.

    ``outputs`` maps a stable point label to the point's deterministic
    output (``None`` when the point failed); ``errors`` holds why.
    """

    outputs: Dict[str, Any]
    errors: Dict[str, str]
    #: Workload-specific objects the checks and the traced pass read.
    detail: Any = None


def output_digests(job: Job, part: Callable[[Any], Any] = lambda out: out) -> Dict[str, str]:
    """The digest of (``part`` of) each point's output, for points that did
    not fail."""
    return {k: digest(part(v)) for k, v in job.outputs.items() if k not in job.errors}


def replay_failures(cold: Job, replay: Optional[Job], what: str = "replayed",
                    part: Callable[[Any], Any] = lambda out: out) -> Dict[str, str]:
    """Points whose replay (or repeated cold run) failed or differs from
    the cold output in ``part`` (none when the workload has nothing to
    replay)."""
    if replay is None:
        return {}
    got = output_digests(replay, part)
    out = {}
    for label, want in output_digests(cold, part).items():
        if label in replay.errors:
            out[label] = replay.errors[label]
        elif got.get(label) != want:
            out[label] = f"{what} output differs from the cold output"
    return out


# ------------------------------------------------------------ campaigns


def point_label(spec) -> str:
    return (f"{spec.engine}/{spec.algorithm}/{spec.topology}"
            f"/n{spec.n_subflows}/s{spec.seed}")


@dataclasses.dataclass
class CampaignWorkload:
    """A list of campaigns run through ``CampaignExecutor(jobs=1)`` into one
    fresh ``ResultCache``; the replay runs them again from that cache."""

    name: str
    make_campaigns: Callable[[int], list]
    #: Modules ``execute_run`` imports on first use. They are imported with
    #: the inputs, so set-up pays for them and the timed job does not.
    modules: Tuple[str, ...] = ()
    #: The executor's per-point function (``execute_run`` unless a test
    #: substitutes a failing one).
    run_fn: Optional[Callable] = None
    #: ``n_hosts`` of the point checked against the scalar oracle, or None.
    oracle_hosts: Optional[int] = None

    @staticmethod
    def result(payload: Dict[str, Any]) -> Dict[str, Any]:
        """The part of a point's payload that a repeated cold run must
        reproduce; the rest is its wall time and telemetry."""
        return payload["metrics"]

    def inputs(self, seed: int) -> list:
        for module in self.modules:
            importlib.import_module(module)
        return self.make_campaigns(seed)

    def _run(self, campaigns: list, cache_dir: Path, run_fn) -> Job:
        from repro.campaign import CampaignExecutor, ResultCache
        from repro.campaign.executor import execute_run

        executor = CampaignExecutor(jobs=1, cache=ResultCache(cache_dir),
                                    run_fn=run_fn or self.run_fn or execute_run)
        outputs: Dict[str, Any] = {}
        errors: Dict[str, str] = {}
        outcomes = []
        for campaign in campaigns:
            for outcome in executor.run(campaign.runs, campaign.name):
                outcomes.append(outcome)
                label = point_label(outcome.spec)
                outputs[label] = outcome.payload
                if not outcome.ok:
                    errors[label] = f"executor: {outcome.error}"
        return Job(outputs, errors, detail=outcomes)

    def run(self, campaigns: list, work_dir: Path, run_fn=None) -> Job:
        return self._run(campaigns, work_dir / "cache", run_fn)

    def replay(self, campaigns: list, work_dir: Path, run_fn=None) -> Job:
        job = self._run(campaigns, work_dir / "cache", run_fn)
        for outcome in job.detail:
            if outcome.ok and not outcome.cached:
                job.errors[point_label(outcome.spec)] = "replay missed the cache"
        return job

    # --------------------------------------------------------- checks

    def check(self, seed: int, campaigns: list, cold: Job,
              replay_failures: Dict[str, str]) -> Dict[str, str]:
        """Failures by point label: executor errors, invariants, replay
        equality, the default seed's reference and the oracle point."""
        failures = dict(cold.errors)
        reference = load_reference().get(self.name, {}) if seed == DEFAULT_SEED else None
        for spec in (spec for c in campaigns for spec in c.runs):
            label = point_label(spec)
            if label in failures:
                continue
            metrics = cold.outputs[label]["metrics"]
            problem = _invariant_problem(spec, metrics) or replay_failures.get(label)
            if problem is None and reference is not None:
                problem = _reference_problem(spec, metrics, reference.get(label))
            if problem is not None:
                failures[label] = problem
        if self.oracle_hosts is not None:
            label, problem = _oracle_problem(campaigns[0].runs[-1], self.oracle_hosts)
            if problem is not None:
                failures[label] = problem
        return failures

    def attempted(self, campaigns: list) -> int:
        points = sum(len(c.runs) for c in campaigns)
        return points + (1 if self.oracle_hosts is not None else 0)

    # ---------------------------------------------------------- tracing

    def traced_run_fn(self, recorder: SpanRecorder) -> Callable:
        from repro.campaign.executor import execute_run

        inner = self.run_fn or execute_run

        def run_point(spec):
            with recorder.span("campaign.execute_run", engine=spec.engine):
                return inner(spec)

        return run_point

    @contextlib.contextmanager
    def traced(self, recorder: SpanRecorder) -> Iterator[None]:
        import repro.campaign.executor as executor_mod
        import repro.fluidsim as fluidsim
        import repro.net.batch as batch
        from repro.campaign import CampaignExecutor, ResultCache, RunSpec
        from repro.fluidsim import FluidNetwork, FluidSimulation
        from repro.net.batch import BatchEngine

        targets = [
            Target(CampaignExecutor, "run", "campaign.executor"),
            Target(RunSpec, "content_hash", "campaign.hash"),
            Target(ResultCache, "get", "campaign.cache_get"),
            Target(ResultCache, "put", "campaign.cache_put"),
            Target(executor_mod, "build_topology", "topology.build"),
            Target(FluidNetwork, "add_connection", "network.add_connection"),
            Target(FluidNetwork, "finalize", "network.finalize"),
            Target(FluidSimulation, "run", "engine.run"),
            Target(fluidsim, "solve_fluid_equilibrium", "solver.solve",
                   note=lambda eq, *_: {"iterations": eq.iterations,
                                        "converged": bool(eq.converged)}),
            Target(batch, "ec2_scenario", "batch.scenario"),
            Target(BatchEngine, "run", "batch.run"),
            Target(BatchEngine, "result", "batch.result"),
        ]
        power = _traced_power_evaluator(recorder, fluidsim.PowerEvaluator)
        with instrument(recorder, targets), patched(fluidsim, "PowerEvaluator", power):
            yield

    def layer_counts(self, campaigns: list, cold: Job, replay: Job,
                     recorder: SpanRecorder) -> Dict[str, float]:
        """Per-layer counts read from the payloads and the solver spans."""
        specs = [spec for c in campaigns for spec in c.runs]
        payloads = [p for p in cold.outputs.values() if p is not None]
        fluid = [p["metrics"] for p, s in zip(cold.outputs.values(), specs)
                 if p is not None and s.engine.startswith("fluid")]
        equilibrium = [p["metrics"] for p, s in zip(cold.outputs.values(), specs)
                       if p is not None and s.engine == "fluid-equilibrium"]
        solves = [s.attrs for s in recorder.spans if s.name == "solver.solve"]
        rounds = sum(p["obs"].get("engine.rounds", 0) for p in payloads)
        fallback_rounds = sum(p["obs"].get("engine.fallback_rounds", 0) for p in payloads)
        fallbacks = sum(1 for m in equilibrium if m["solver"]["fallback"])
        return {
            "network.subflows": sum(m["n_subflows_total"] for m in fluid),
            "network.build_reuse_frac": build_reuse_frac(specs),
            "engine.steps": sum(m["steps_taken"] for m in fluid),
            "solver.iterations": sum(a["iterations"] for a in solves),
            "solver.converged_frac": _ratio(sum(a["converged"] for a in solves),
                                            len(solves)),
            "solver.fallbacks": fallbacks,
            "solver.fallback_frac": _ratio(fallbacks, len(equilibrium)),
            "batch.rounds": rounds,
            "batch.fallback_rounds": fallback_rounds,
            "batch.fallback_frac": _ratio(fallback_rounds, rounds),
            "campaign.cache_hits": sum(o.cached for o in replay.detail),
        }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def build_reuse_frac(specs: Sequence) -> float:
    """Share of fluid points whose network (topology, seed, subflow count,
    link delay) an earlier point of the same workload already built."""
    seen = set()
    reused = fluid = 0
    for spec in specs:
        if not spec.engine.startswith("fluid"):
            continue
        fluid += 1
        key = (spec.topology, spec.seed, spec.n_subflows, spec.link_delay)
        reused += key in seen
        seen.add(key)
    return _ratio(reused, fluid)


def _traced_power_evaluator(recorder: SpanRecorder, cls) -> Callable:
    """A stand-in for ``repro.fluidsim.PowerEvaluator`` as the equilibrium
    executor looks it up: construction and both power calls are spans.
    The stepping engine binds the class directly and stays untraced."""

    def make(*args, **kwargs):
        with recorder.span("energy.power_eval"):
            evaluator = cls(*args, **kwargs)
        for method in ("host_power_now", "switch_power_now"):
            setattr(evaluator, method,
                    recorder.wrap(getattr(evaluator, method), "energy.power_eval"))
        return evaluator

    return make


def _invariant_problem(spec, metrics: Dict[str, Any]) -> Optional[str]:
    """Seed-independent checks on one campaign point."""
    if spec.engine.startswith("fluid"):
        for key in ("host_energy_j", "switch_energy_j", "total_energy_j",
                    "energy_per_gb", "aggregate_goodput_bps"):
            if not _finite_positive(metrics.get(key)):
                return f"{key} is not finite and positive: {metrics.get(key)!r}"
        stepped = spec.engine == "fluid" or metrics["solver"]["fallback"]
        want = round(spec.duration / spec.dt) if stepped else 0
        if metrics["steps_taken"] != want:
            return f"steps_taken {metrics['steps_taken']} != {want}"
        return None
    if metrics.get("n_connections") != spec.params["n_hosts"]:
        return f"n_connections {metrics.get('n_connections')} != {spec.params['n_hosts']}"
    if not _finite_positive(metrics.get("aggregate_goodput_bps")):
        return "aggregate goodput is not finite and positive"
    return None


def _reference_problem(spec, metrics: Dict[str, Any],
                       want: Any) -> Optional[str]:
    if want is None:
        return "no reference recorded for this point"
    if spec.engine == "fluid-equilibrium":
        stepped = want["integration_goodput_bps"]
        rel = abs(metrics["aggregate_goodput_bps"] - stepped) / stepped
        if rel > EQUILIBRIUM_TOLERANCE:
            return (f"goodput {metrics['aggregate_goodput_bps']:.6g} is {rel:.1%} "
                    f"from the time-stepped {stepped:.6g}")
        return None
    if digest(metrics) != want:
        return "metrics differ from the recorded reference"
    return None


def _oracle_problem(spec, n_hosts: int) -> Tuple[str, Optional[str]]:
    """One small point of the same shape run on the batch engine and on
    ``OracleEngine`` must produce identical metrics."""
    from repro.campaign.executor import execute_run

    small = spec.replace(params={**spec.params, "n_hosts": n_hosts})
    label = "oracle:" + point_label(small)
    try:
        batch = execute_run(small)["metrics"]
        oracle = execute_run(small.replace(engine="packet-oracle"))["metrics"]
    except Exception as exc:  # noqa: BLE001 - a failing point is a result
        return label, f"{type(exc).__name__}: {exc}"
    if canonical(batch) != canonical(oracle):
        return label, "batch engine differs from OracleEngine"
    return label, None


#: Simulated seconds per fattree24 equilibrium point (2 of the spec
#: default's 30): it sets the cost of the OLIA fallback integration.
EQUILIBRIUM_DURATION = 2.0


def _fluid_equilibrium(seed: int) -> list:
    from repro.campaign import subflow_sweep_campaign

    return [subflow_sweep_campaign(["fattree24"], subflow_counts=(1, 4), seeds=(seed,),
                                   engine="fluid-equilibrium", algorithm=algorithm,
                                   duration=EQUILIBRIUM_DURATION,
                                   name=f"fattree24-eq-{algorithm}")
            for algorithm in ("dts", "lia", "olia")]


#: Simulated seconds per 1000-host EC2 point.
BATCH_DURATION = 0.1


def _packet_batch(seed: int) -> list:
    from repro.campaign import ec2_sweep_campaign

    return [ec2_sweep_campaign(n_hosts=1000, subflow_counts=(1, 2), seeds=(seed,),
                               loss_rate=1e-3, duration=BATCH_DURATION,
                               algorithm=algorithm, name=f"ec2-batch-{algorithm}")
            for algorithm in ("dts", "lia")]


# ------------------------------------------------------------------ DES


@dataclasses.dataclass
class DesWorkload:
    """Fig. 9's paired LIA/DTS transfers on the packet DES, 12 MB each
    over eight burst patterns: the per-seed cost varies by up to 1.7x, and
    eight seeds average it out."""

    name: str = "packet-des"
    transfer_bytes: int = 12 * 2**20

    @staticmethod
    def result(output: Dict[str, Any]) -> Dict[str, Any]:
        return output

    def inputs(self, seed: int) -> List[int]:
        # Importing the entry point is part of set-up, not of the timed job.
        import repro.experiments.fig09_dts_testbed  # noqa: F401

        return list(range(seed, seed + 8))

    def run(self, seeds: List[int], work_dir: Path, run_fn=None) -> Job:
        import repro.experiments.fig09_dts_testbed as fig09
        from repro.net.network import Network

        # Fig. 9 returns only energies and goodputs. The checks and the
        # traced counts also read each transfer's delivery and simulator
        # counters, so a small record is taken as each transfer's run
        # returns; the scenario itself is freed as in a plain fig09.run.
        records: List[Dict[str, Any]] = []
        run_until_complete = vars(Network)["run_until_complete"]

        def run_and_record(network, connections=None, **kwargs):
            now = run_until_complete(network, connections, **kwargs)
            sim = network.sim
            (conn,) = connections  # fig09 runs one transfer per network
            records.append({
                "completed": conn.completed, "acked_bytes": conn.acked_bytes,
                "events": sim.events_processed, "heap_compactions": sim.heap_compactions,
                "pool_reuses": sim.pool.reuses,
                "retransmissions": conn.total_retransmissions()})
            return now

        labels = [f"{alg}/s{seed}" for seed in seeds for alg in ("lia", "dts")]
        with patched(Network, "run_until_complete", run_and_record):
            try:
                result = fig09.run(transfer_bytes=self.transfer_bytes, seeds=list(seeds))
            except Exception as exc:  # noqa: BLE001 - a failing job is a result
                error = f"{type(exc).__name__}: {exc}"
                return Job({k: None for k in labels}, {k: error for k in labels},
                           detail=records)
        outputs = {}
        for r in result.runs:
            outputs[f"lia/s{r.seed}"] = {"energy_j": r.energy_lia_j,
                                         "goodput_bps": r.goodput_lia_bps}
            outputs[f"dts/s{r.seed}"] = {"energy_j": r.energy_dts_j,
                                         "goodput_bps": r.goodput_dts_bps}
        return Job(outputs, {}, detail=records)

    def replay(self, seeds: List[int], work_dir: Path, run_fn=None) -> None:
        """Nothing to replay: this path has no result cache."""
        return None

    def check(self, seed: int, seeds: List[int], cold: Job,
              replay_failures: Dict[str, str]) -> Dict[str, str]:
        failures = dict(cold.errors)
        reference = load_reference().get(self.name, {}) if seed == DEFAULT_SEED else None
        for label, rec in zip(cold.outputs, cold.detail):
            if label in failures:
                continue
            out = cold.outputs[label]
            problem = replay_failures.get(label)
            if not (_finite_positive(out["energy_j"]) and _finite_positive(out["goodput_bps"])):
                problem = f"energy or goodput is not finite and positive: {out}"
            elif not rec["completed"] or rec["acked_bytes"] < self.transfer_bytes:
                problem = f"delivered {rec['acked_bytes']} of {self.transfer_bytes} bytes"
            elif problem is None and reference is not None and digest(out) != reference.get(label):
                problem = "result differs from the recorded reference"
            if problem is not None:
                failures[label] = problem
        return failures

    def attempted(self, seeds: List[int]) -> int:
        return 2 * len(seeds)

    def traced_run_fn(self, recorder: SpanRecorder) -> None:
        return None

    @contextlib.contextmanager
    def traced(self, recorder: SpanRecorder) -> Iterator[None]:
        import repro.experiments.fig09_dts_testbed as fig09
        from repro.net.network import Network

        targets = [Target(fig09, "build_traffic_shifting", "des.build"),
                   Target(Network, "run_until_complete", "des.run")]
        with instrument(recorder, targets):
            yield

    def layer_counts(self, seeds: List[int], cold: Job, replay: Job,
                     recorder: SpanRecorder) -> Dict[str, float]:
        return {
            "des.events": sum(r["events"] for r in cold.detail),
            "des.heap_compactions": sum(r["heap_compactions"] for r in cold.detail),
            "des.pool_reuses": sum(r["pool_reuses"] for r in cold.detail),
            "des.retransmissions": sum(r["retransmissions"] for r in cold.detail),
        }


_FLUID_MODULES = ("repro.fluidsim", "repro.topology", "repro.workloads.permutation")

WORKLOADS = {
    "fluid-equilibrium": CampaignWorkload(
        "fluid-equilibrium", _fluid_equilibrium,
        _FLUID_MODULES + ("repro.energy.cpu", "repro.energy.switch")),
    "packet-batch": CampaignWorkload("packet-batch", _packet_batch, ("repro.net.batch",),
                                     oracle_hosts=40),
    "packet-des": DesWorkload(),
}


#: Per-layer time metric -> the span whose self time it sums.
SPAN_METRICS = {
    "topology.build_s": "topology.build",
    "network.add_connection_s": "network.add_connection",
    "network.finalize_s": "network.finalize",
    "engine.run_s": "engine.run",
    "solver.solve_s": "solver.solve",
    "energy.power_eval_s": "energy.power_eval",
    "campaign.hash_s": "campaign.hash",
    "campaign.cache_get_s": "campaign.cache_get",
    "campaign.cache_put_s": "campaign.cache_put",
    "campaign.executor_self_s": "campaign.executor",
    "campaign.run_self_s": "campaign.execute_run",
    "batch.scenario_s": "batch.scenario",
    "batch.run_s": "batch.run",
    "batch.result_s": "batch.result",
    "des.build_s": "des.build",
    "des.run_s": "des.run",
}

#: Every count a workload may report; a workload that never enters a
#: layer reports 0 for it.
COUNT_METRICS = (
    "network.subflows", "network.build_reuse_frac", "engine.steps",
    "solver.iterations", "solver.converged_frac", "solver.fallbacks",
    "solver.fallback_frac", "batch.rounds", "batch.fallback_rounds",
    "batch.fallback_frac", "des.events", "des.heap_compactions",
    "des.pool_reuses", "des.retransmissions", "campaign.cache_hits",
)


def layer_metrics(workload, inputs, cold: Job, replay: Job,
                  recorder: SpanRecorder) -> Dict[str, float]:
    """Every per-layer metric of one traced pass (cold job plus one replay)."""
    by_name = recorder.self_time_by_name()
    out: Dict[str, float] = {m: by_name.get(span, 0.0)
                             for m, span in SPAN_METRICS.items()}
    out.update({m: 0 for m in COUNT_METRICS})
    out.update(workload.layer_counts(inputs, cold, replay, recorder))
    self_times = recorder.self_times()

    def in_equilibrium_point(i: int) -> bool:
        point = recorder.ancestor(i, "campaign.execute_run")
        return point is not None and point.attrs["engine"] == "fluid-equilibrium"

    out["solver.fallback_run_s"] = sum(
        own for i, (s, own) in enumerate(zip(recorder.spans, self_times))
        if s.name == "engine.run" and in_equilibrium_point(i))
    out["engine.step_us"] = 1e6 * _ratio(out["engine.run_s"], out["engine.steps"])
    out["batch.round_us"] = 1e6 * _ratio(out["batch.run_s"], out["batch.rounds"])
    out["des.event_us"] = 1e6 * _ratio(out["des.run_s"], out["des.events"])
    return out

"""Record ``reference/seed1.json``: the default seed's outputs at the
current commit, which every later run of that seed is checked against.

    python3 perfbench/record_reference.py

Re-record only when a change is meant to alter results, and say so in the
change.  Stepped, batch and DES outputs are stored as SHA-256 digests of
their canonical JSON (compared byte for byte); each equilibrium point
stores the aggregate goodput of a 16 s time-stepped integration of the
same spec, which the equilibrium result must match within 10%.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED, REFERENCE_PATH, WORKLOADS, CampaignWorkload, digest, point_label)


#: Simulated seconds of the time-stepped integration an equilibrium point
#: is checked against: the horizon of the repository's own
#: equilibrium-vs-integration bench case. The workload's 2 s would compare
#: the equilibrium with the integration's start-up transient.
INTEGRATION_DURATION = 16.0


def record(name: str, workload, work: Path) -> dict:
    from repro.campaign.executor import execute_run

    inputs = workload.inputs(DEFAULT_SEED)
    job = workload.run(inputs, work / name)
    if job.errors:
        raise SystemExit(f"{name}: points failed: {job.errors}")
    if not isinstance(workload, CampaignWorkload):
        return {label: digest(out) for label, out in job.outputs.items()}
    out = {}
    for spec in (spec for c in inputs for spec in c.runs):
        metrics = job.outputs[point_label(spec)]["metrics"]
        if spec.engine == "fluid-equilibrium":
            stepped = execute_run(spec.replace(engine="fluid",
                                               duration=INTEGRATION_DURATION))["metrics"]
            out[point_label(spec)] = {
                "integration_goodput_bps": stepped["aggregate_goodput_bps"]}
        else:
            out[point_label(spec)] = digest(metrics)
    return out


def main() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as in run.py
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=ROOT / ".perfbench"))
    try:
        reference = {name: record(name, w, work) for name, w in WORKLOADS.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")


if __name__ == "__main__":
    main()

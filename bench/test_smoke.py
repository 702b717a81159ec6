"""Smoke test of the benchmark: a very short run of every workload.

    PYTHONPATH=src python -m pytest bench/test_smoke.py -q

Checks that each end-to-end and per-layer metric named in BENCHMARK.json is
printed with its unit, and that a deliberately failing job is counted.
"""

import json
import math
import os
import subprocess
import sys
import types

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "run.py"), "--workload",
                           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    result = bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"])


def test_deliberately_failing_job_counts_in_fail_ratio():
    lib = workloads.Library()
    good = {"family": "harm-osc", "eps": 1.0, "rho": 0.3, "kind": "si", "index": 0}
    # eps < 0 violates the Morse range: the build raises RangeViolation
    bad = {"family": "morse", "eps": -1.0, "rho": 1.0, "kind": "si", "index": 1}
    doc = workloads.loop(lib, [good, bad, dict(good, index=2)], math.inf)
    doc.update(peak_rss_kb=1)
    metrics, detail = run.summarize("closed-forms", doc, [0.1])
    assert detail["attempted"] == 3 and detail["failed"] == 1
    assert detail["recorded_failures"] == 0
    assert detail["fail_ratio"] == pytest.approx(1 / 3)
    assert detail["failure_classes"] == {"si:RangeViolation": 1}
    assert detail["failures"][0]["job"]["eps"] == -1.0
    assert detail["correct"] is False       # not a recorded baseline defect


def test_recorded_defects_are_keyed_to_their_families_and_shares():
    def failures(count, family):
        return [{"class": "schrodinger:tolerance", "detail": "", "job": {"family": family}}
                ] * count

    recorded = run.outcome("closed-forms", failures(3, "eckart"), 1000)
    assert recorded["correct"] and recorded["failed"] == 0
    assert recorded["recorded_failures"] == 3
    elsewhere = run.outcome("closed-forms", failures(1, "harm-osc"), 1000)
    assert not elsewhere["correct"] and elsewhere["unexpected_failures"] == 1
    assert elsewhere["failed"] == 1
    many = run.outcome("closed-forms", failures(60, "eckart"), 1000)
    assert not many["correct"] and "schrodinger:tolerance" in many["excess_classes"]
    assert 0 < many["failed"] < 60


def test_fd_levels_are_checked_as_eigenvalues_of_the_discrete_operator():
    # V = 0 on [0, pi]: the Dirichlet second-difference matrix has the
    # eigenvalues (4 / h^2) sin^2(j h / 2), j = 1, 2, ...
    box = types.SimpleNamespace(a=0.0, b=math.pi, n=500)
    h = math.pi / 499
    exact = [4 / h ** 2 * math.sin(j * h / 2) ** 2 for j in (1, 2, 3)]
    zero = lambda xs: 0.0 * xs  # noqa: E731
    workloads.check_discrete_levels(zero, box, exact, 3)
    for wrong in ([exact[0], exact[1] * (1 + 1e-4), exact[2]], [exact[0]] * 3, exact[:2]):
        with pytest.raises(workloads.JobFailure) as failure:
            workloads.check_discrete_levels(zero, box, wrong, 3)
        assert failure.value.cls == "fd:not-eigenvalue"

"""Smoke tests of the benchmark itself.

Run from the repository root:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY_CASES = 3


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every operation list to its first few cases."""
    select = workloads.select
    monkeypatch.setattr(workloads, "select", lambda *args: select(*args)[:TINY_CASES])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name, tiny):
    result = run.run(name, seed=7, seconds=0.05, trace=False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert result["metrics"]["ok_frac"]["value"] == 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_corrupted_expected_output_counts_as_failed(name, tiny, monkeypatch):
    load = run.load_expected

    def corrupted(workload_name):
        recorded = load(workload_name)
        for flags, outcomes in recorded["cases"].values():
            outcomes[0] = outcomes[0][:-1] + ("0" if outcomes[0][-1] != "0" else "1")
        return recorded

    monkeypatch.setattr(run, "load_expected", corrupted)
    result = run.run(name, seed=7, seconds=0.05, trace=False)
    assert not result["correct"] and result["failed"] > 0
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_no_pass_starts_that_would_end_past_the_run_limit(monkeypatch):
    monkeypatch.setattr(run, "RUN_LIMIT", 15.0)
    ten_seconds_ago = run.perf_counter() - 10
    assert run.fits(ten_seconds_ago, 0)
    assert run.fits(ten_seconds_ago, 3)
    assert not run.fits(ten_seconds_ago, 1)


def test_traced_run_reports_every_per_layer_metric(tiny):
    result = run.run("crosscheck-dense", seed=7, seconds=0.05, trace=True)
    assert result["correct"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(result["metrics"])
    assert [m["name"] for m in BENCHMARK["per_layer"]] == [name for name, _, _ in tracing.METRICS]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["cli.calls"] == 2 * TINY_CASES
    assert values["coverage.kernel_ms"] > 0 and values["coverage.pairs"] > 0
    assert values["subsemigroups.closure_products"] > 0


def test_same_seed_same_inputs_and_unique_specs():
    corpus = run.load_expected("decide-mix")["corpus"]
    for workload, make_pool in workloads.WORKLOADS.items():
        pool = make_pool(corpus)
        first, again, other = (workloads.select(workload, pool, seed) for seed in (3, 3, 4))
        assert first == again and first != other
        specs = [case.spec for case in first if case.spec is not None]
        assert len(set(specs)) == len(specs)


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "decide-mix", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Tests of the benchmark itself: span arithmetic, hook removal, tiny smoke runs.

Run with `python -m pytest perfbench` from the root of a checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],
        ["b", 2.0, 4.0, 0, 0],  # overlaps a: [1, 4] is covered once
        ["c", 9.0, 12.0, 0, 0],  # only [9, 10] lies inside root
        ["a.inner", 1.5, 2.5, 1, 0],
    ]
    assert probes.self_times(spans) == pytest.approx([6.0, 1.0, 2.0, 3.0, 1.0])
    spans.append(["a", 5.0, 6.0, 0, 1])
    totals = probes.aggregate(spans)
    assert totals["a"] == pytest.approx({"s": 3.0, "self_s": 2.0, "calls": 2})
    assert totals["root"]["self_s"] == pytest.approx(5.0)  # the second a is a child too
    by_op = probes.aggregate(spans, key=lambda span: (span[0], span[4]))
    assert by_op[("a", 1)] == pytest.approx({"s": 1.0, "self_s": 1.0, "calls": 1})


def _bindings():
    """Identity of every callable attribute of the loaded cogent modules."""
    from cogent.tensor import Tensor

    state = {
        (mod.__name__, attr): value
        for mod in probes._cogent_modules()
        for attr, value in vars(mod).items()
        if callable(value)
    }
    state[("Tensor", "backward")] = Tensor.__dict__["backward"]
    return state


def test_hooks_are_removed_after_a_traced_run():
    from cogent import trainer

    before = _bindings()
    patches = probes.Patches()
    probes.Tracer().install(patches)
    probes.StepProbe().install(patches, trainer)
    during = _bindings()
    changed = {key for key in before if during[key] is not before[key]}
    assert ("cogent.tensor", "matmul") in changed
    assert ("cogent.trainer", "adam_step") in changed
    assert ("Tensor", "backward") in changed
    patches.restore()
    after = _bindings()
    assert all(after[key] is before[key] for key in before)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace, tmp_path, capsys, monkeypatch):
    for name in run.BLAS_THREAD_ENV:  # main() sets these; put them back afterwards
        monkeypatch.setenv(name, "1")
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.05",
        "--trace", str(trace), "--tiny", "--work-dir", str(tmp_path),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    section = "per_layer" if trace else "end_to_end"
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(
            line.startswith(f"{section} {m['name']} = ") and line.endswith(f" {m['unit']}")
            for line in lines
        ), m["name"]
    for name in ("setup_s", "train_samples_per_s", "eval_samples_per_s"):
        assert result["metrics"].get(name, {"value": 1})["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain-quick",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout

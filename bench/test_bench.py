"""Self-tests of the benchmark: python3 -m pytest bench -q (from the repo root)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from checks import CheckFailed
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXPECT = json.loads((HERE / "expectations.json").read_text())


@pytest.fixture(scope="module", autouse=True)
def checkout_source():
    run.use_checkout_source()


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


def test_declared_metrics_match_the_code():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(
        run.END_TO_END_UNITS.items()
    )
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_one_command_emits_every_end_to_end_metric_per_workload():
    proc = bench("--workload", "all", "--seed", "0", "--seconds", "0", "--trace", "0")
    last_json(proc)
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert len(results) == len(workloads.WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]
        }
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert proc.stdout.count("error_rate") == len(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_emits_per_layer_metrics_and_predictions(workload):
    # one whole rotation: on montecarlo it includes the sv-tail op
    result = last_json(bench("--workload", workload, "--seed", "0",
                             "--seconds", "0", "--trace", "1"))
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    for rule in EXPECT["predictions"]:
        if workload not in rule["workloads"]:
            continue
        names = [n for n in metrics
                 if n.startswith(rule["prefix"]) and n.endswith(rule["suffix"])]
        assert names, rule
        for name in names:
            value = metrics[name]["value"]
            assert (value == 0) if rule["expect"] == "zero" else (value > 0), (name, value)
    assert metrics["trace.coverage_min"]["value"] > 0.99


def _flow_op_with(mutate):
    """A flow-pipeline whose op outputs pass through `mutate` before the check."""

    class Mutated(workloads.FlowPipeline):
        def op_at(self, k, opdir):
            op = super().op_at(k, opdir)

            def run_then_mutate():
                out = op.run()
                mutate(opdir / "path.jsonl")
                return out

            return workloads.Op(op.kind, op.label, run_then_mutate, op.check)

    return Mutated


def _scale_middle_state(path_file: Path) -> None:
    lines = path_file.read_text().splitlines()
    row = json.loads(lines[len(lines) // 2])
    row["eigenvalues"] = [[re * 1.07, im * 1.07] for re, im in row["eigenvalues"]]
    lines[len(lines) // 2] = json.dumps(row)
    path_file.write_text("\n".join(lines) + "\n")


def test_corrupted_output_counts_as_failed_op(tmp_path):
    k = workloads.FlowPipeline.rotation.index("real")  # the cheapest op kind
    for mutate, failed in ((lambda path: None, False), (_scale_middle_state, True)):
        workload = _flow_op_with(mutate)(0, tmp_path)
        opdir = tmp_path / "op"
        opdir.mkdir()
        op = workload.op_at(k, opdir)
        out = op.run()
        if failed:
            with pytest.raises(CheckFailed, match="criticality residuals"):
                op.check(out)
        else:
            op.check(out)
        shutil.rmtree(opdir)

    class OnlyReal(_flow_op_with(_scale_middle_state)):
        def op_at(self, _, opdir):
            return super().op_at(k, opdir)

    records = run.run_ops(OnlyReal(0, tmp_path), tmp_path, indices=[0])
    assert records[0].error is not None and records[0].error.startswith("check:")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_fixes_the_op_list(tmp_path, workload):
    def op_list(seed, tag):
        work = tmp_path / tag
        work.mkdir()
        w = workloads.WORKLOADS[workload](seed, work)
        ops = []
        for k in range(8):
            opdir = work / f"op{k}"
            opdir.mkdir()
            op = w.op_at(k, opdir)
            files = {str(p.relative_to(work)): p.read_bytes() for p in sorted(work.rglob("*.json"))}
            ops.append((op.kind, op.label, files))
        return ops

    same = op_list(5, "a")
    assert same == op_list(5, "b")
    other = op_list(6, "c")
    assert [kind for kind, *_ in other] == [kind for kind, *_ in same]
    assert [label for _, label, _ in other] != [label for _, label, _ in same]
    if workload == "flow-pipeline":  # one period: the same inputs, in another order
        assert sorted(label for _, label, _ in other) == sorted(label for _, label, _ in same)


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "dyson-sweep", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

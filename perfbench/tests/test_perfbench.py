"""Self-test of the benchmark at toy sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracing  # noqa: E402


def _bench(*args, cwd=ROOT, check=True):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


def _result(proc) -> tuple[dict, dict]:
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.fixture(scope="module")
def report() -> dict:
    proc = _bench("--all", "--scale", "tiny", "--seconds", "1")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_every_workload_and_layer():
    assert [w["name"] for w in SPEC["workloads"]] == ["coverage-mc", "gamma-lp", "adaptive-mc"]
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.PER_LAYER
    ]
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric_with_its_unit(report, trace):
    key = "end_to_end" if trace == 0 else "per_layer"
    for workload in report.values():
        result = workload[f"result_trace{trace}"]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in SPEC[key]
        }
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_report_prints_end_to_end_metrics_per_workload(report):
    expected = {
        "coverage-mc": {"run_s", "sweep_s", "trials_per_s", "queries_per_s"},
        "gamma-lp": {"gamma_s", "dec_s"},
        "adaptive-mc": {"run_s", "certify_s", "adaptivity_s", "trials_per_s", "queries_per_s",
                        "trial_error_ratio"},
    }
    common = {"wall_s", "setup_s", "peak_rss_mb", "failed_ratio"}
    for name, workload in report.items():
        metrics = workload["end_to_end"]
        assert set(metrics) == common | expected[name]
        for m in metrics.values():
            assert m["unit"] and m["n"] >= 1
        assert "trace.overhead_s" in workload["per_layer"]


def test_only_the_known_solver_defect_fails(report):
    for name in ("coverage-mc", "adaptive-mc"):
        assert report[name]["end_to_end"]["failed_ratio"]["value"] == 0.0
    ops = report["gamma-lp"]["ops"]
    net = ops["gamma-net-545"]
    assert net["failed"] == net["attempted"] >= 1
    assert net["errors"] == ["ValueError: min() arg is an empty sequence"]
    assert report["gamma-lp"]["per_layer"]["games.solve.failed"]["value"] >= 1


def _copy_bench(tmp_path: Path) -> Path:
    """A copy of the benchmark next to a link to this checkout's sources."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    return tmp_path / "perfbench" / "references.json"


@pytest.mark.parametrize("digest, message", [
    ("0" * 64, "output digest differs from reference"),
    ("missing", "no reference digest recorded: re-record with --record-references"),
])
def test_bad_reference_digest_counts_as_failed_op(tmp_path, digest, message):
    refs_path = _copy_bench(tmp_path)
    (tmp_path / "src").symlink_to(ROOT / "src")
    refs = json.loads(refs_path.read_text())
    if digest == "missing":
        del refs["tiny"]["coverage-mc"]["run-em-tree"]
    else:
        refs["tiny"]["coverage-mc"]["run-em-tree"] = digest
    refs_path.write_text(json.dumps(refs))
    detail, result = _result(_bench("--workload", "coverage-mc", "--seed", "0", "--seconds", "1",
                                    "--trace", "0", "--scale", "tiny", cwd=tmp_path))
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert detail["end_to_end"]["failed_ratio"]["value"] > 0.0
    assert detail["ops"]["run-em-tree"]["errors"][0].startswith(message)
    assert detail["ops"]["run-mom-tree"]["failed"] == 0


def _run(**references):
    import run

    args = argparse.Namespace(workload="gamma-lp", seed=0, scale="tiny")
    return run.Run(args, {"tiny": {"gamma-lp": references}})


def test_output_check_that_raises_counts_as_failed_op(tmp_path):
    from workloads import Op

    def check(stdout):
        raise IndexError("list index out of range")

    op = Op("bad", ["run"], check, out=str(tmp_path / "never-written.csv"))
    bench = _run(bad="0" * 64)
    bench.check_pass({"wall": 1.0, "results": [(op, 1.0, "", None)]})
    assert (bench.attempted, bench.failed, bench.mismatch) == (1, 1, True)
    first, second = bench.ops["bad"]["errors"]
    assert first == "output check raised IndexError: list index out of range"
    assert second.startswith("output unreadable for its digest: ")


def test_op_recorded_as_raising_that_now_succeeds_is_not_failed():
    from workloads import Op, Outcome

    op = Op("fixed", ["gamma"], lambda stdout: Outcome())
    bench = _run(fixed=None)
    bench.check_pass({"wall": 1.0, "results": [(op, 1.0, "{}", None)]})
    assert (bench.failed, bench.mismatch) == (0, False)
    assert bench.ops["fixed"]["notes"] == [
        "recorded as raising but now succeeds: re-record with --record-references"]


def test_fails_without_the_package_sources(tmp_path):
    _copy_bench(tmp_path)
    proc = _bench("--workload", "coverage-mc", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_excludes_children_and_nested_calls_count_once():
    from maximin_bandits import harness

    original = harness.build_function_class
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        with tracer.span("cli", label="gamma"):
            fclass, _ = harness.build_function_class(
                {"constructor": "tree", "depth": 3, "bucket_size": 1})
    assert harness.build_function_class is original
    total, own, by_label = tracer.summary()
    assert tracer.counts["environments.build.calls"] == 1
    assert tracer.names.count("environments.build") == 1
    assert own["cli"] == pytest.approx(total["cli"] - total["environments.build"])
    assert set(by_label["gamma"]) == {"cli", "environments.build"}
    assert fclass.n_functions == 8

"""Smoke test of the benchmark itself, with every workload at minimum size.

Run from the root of a checkout::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

CLI = run.load_ionlink()

import workloads  # noqa: E402  (needs ionlink on the path)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.NAMES)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace, section, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, small=True) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_wrong_expected_digest_is_counted_as_a_failure(tmp_path):
    commands = workloads.build("grid-export", 3, tmp_path, [1], small=True)
    victim = commands[0]
    oracle = run.Oracle()
    oracle.expect(victim.key, "0" * 64)
    records, _ = run.run_pass(
        commands, lambda c: run.run_inprocess(CLI, c.argv, c.output_file), oracle)
    failed = [r for r in records if r.problem is not None]
    assert [r.command.key for r in failed] == [victim.key]
    assert "digest" in failed[0].problem


def test_wrong_exit_code_and_multiline_error_are_failures(tmp_path):
    oracle = run.Oracle()
    expects_success = workloads.Command(["schemes", "--na", "1.5"])
    one_line = workloads.Command(["chain", "walk"], expect_code=2)
    records, _ = run.run_pass(
        [expects_success, one_line], lambda c: run.run_inprocess(CLI, c.argv), oracle)
    assert records[0].problem == "exit 1, expected 0"
    assert "line error message" in records[1].problem


def test_importtime_counts_each_package_once():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:       200 |        300 |   numpy",
        "import time:        50 |         50 |     scipy._lib",
        "import time:        10 |         60 |   scipy",
        "import time:        40 |        400 | ionlink",
    ])
    totals = run.parse_importtime(text)
    assert totals == pytest.approx({"numpy": 300e-6, "scipy": 60e-6, "ionlink": 400e-6})


def test_fails_without_a_checkout(tmp_path):
    """With only BENCHMARK.json and the benchmark files there is nothing to measure."""
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "planner-session",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

"""Golden corpus for the pump-cycle Monte Carlo.

``mc_golden.json`` was recorded from the original kernel, which drew the
whole ``n_trials`` Philox stream of every cycle and walked full-length
masks.  Each entry pins ``simulate(...).as_dict()`` and the SHA-256 of the
exact ``ionlink chain mc`` stdout.  Any kernel must reproduce them bit for
bit at every ``--threads`` value; never regenerate the file to make a new
kernel pass.  Each case checks ``simulate`` at one and two workers, and the
stdout once, at ``--threads 2``, which also covers the flag's plumbing.

The cases cover both drives, three ``br_650`` models, ``max_cycles`` of 1, 3
and the default 1000, seeds 0 and 2**64 - 1, and trial counts 1, 3, 4, 5
(Philox lane boundaries), 131_073 (one past a chunk boundary of the
kernel) and 200_001 (ending in a partial chunk).
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ionlink import atomic, pump_cycle
from ionlink.cli import main

GOLDEN = json.loads((Path(__file__).with_name("mc_golden.json")).read_text())
DRIVES = {
    "sigma-minus": (atomic.Polarization.SIGMA_MINUS, +1.5),
    "sigma-plus": (atomic.Polarization.SIGMA_PLUS, -1.5),
}


def parse_case(case):
    drive, *fields = case.split()
    values = dict(field.split("=") for field in fields)
    return (drive, float(values["br_650"]), int(values["max_cycles"]),
            int(values["n"]), int(values["seed"]))


def model_with_br650(br_650):
    cg = atomic.default_barium_model().cg
    return atomic.BranchingModel(br_493=1.0 - br_650, br_650=br_650, cg=cg)


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("models")
    paths = {}
    for br_650 in (0.27, 0.6, 0.9):
        paths[br_650] = root / f"br650-{br_650}.txt"
        atomic.save_model(model_with_br650(br_650), paths[br_650])
    return paths


def test_corpus_is_complete():
    assert len(GOLDEN) == 2 * 3 * 3 * 6 * 2
    assert 131_073 % pump_cycle._CHUNK == 1  # one past a chunk boundary
    assert 200_001 % pump_cycle._CHUNK != 0  # ends in a partial chunk


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_simulate_and_cli_match_golden(case, model_files):
    drive, br_650, max_cycles, n, seed = parse_case(case)
    expected = GOLDEN[case]
    polarization, initial_mj = DRIVES[drive]
    config = pump_cycle.PumpCycleConfig(
        initial=atomic.ZeemanState(atomic.Level.D32, initial_mj), drive=polarization,
        model=model_with_br650(br_650),
    )
    for workers in (1, 2):
        outcome = pump_cycle.simulate(config, n_trials=n, seed=seed, workers=workers,
                                      max_cycles=max_cycles)
        assert outcome.as_dict() == expected["as_dict"], f"simulate, workers={workers}"

    argv = ["chain", "mc", "--model", str(model_files[br_650]), "--drive", drive,
            "--max-cycles", str(max_cycles), "--trials", str(n), "--seed", str(seed),
            "--threads", "2"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == expected["stdout_sha256"]

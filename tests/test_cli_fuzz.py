"""Property test over ``main(argv)``: every argv ends in exit 0, 1 or 2.

Each example picks a subcommand and a subset of its flags, each with a value
drawn from a pool of hostile and ordinary texts: non-finite numbers, the
subnormal ``1e-320``, ``1e-300`` and ``1e300``, zero, negatives, garbage,
sublevel texts, real wavelengths and materials, and malformed model,
dispersion and config files.  Values are passed in the ``--flag=value`` form
so that ``-1`` or an empty text stays a value.  ``trap`` and ``qfc plan``
get valid values for the required flags the draw leaves out, so that their
physics is reached.

Grids are capped at 2**20 rows, so grid steps may be drawn as fine as
``1e-300``.  ``--trials`` stays at or below 1e4: the Monte Carlo's memory is
bounded but its run time grows with the trial count.  The integers beyond
what a count or a period can hold (``1e30`` trials, a 400-digit poling
order) are refused before any work.
"""

from __future__ import annotations

import contextlib
import io
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ionlink.cli import main

NUMBERS = ("nan", "inf", "-inf", "1e-320", "1e-300", "1e300", "0", "-1", "banana", "", "0.05",
           "0.5", "1", "2", "20", "138", "260", "493", "650", "780", "1259", "1343", "1550")
INTEGERS = ("nan", "1e-320", "0", "-1", "banana", "", "3/2", "1", "2", "3", "7", "1" * 400)
TRIALS = ("0", "-1", "1e4", "banana", "1", "100", "10000", "1" + "0" * 30)
SEEDS = ("0", "-1", "17", "18446744073709551615", "18446744073709551616", "banana")
NA_STEPS = ("nan", "inf", "-inf", "1e-320", "1e-300", "0", "-1", "banana", "2", "0.5", "0.1",
            "0.01")
KM_STEPS = ("nan", "inf", "-inf", "1e-320", "1e-300", "0", "-1", "banana", "0.5", "1", "7")
ANGLE_STEPS = ("nan", "inf", "-inf", "1e-320", "1e-300", "0", "-1", "banana", "1e300", "1e308",
               "7", "30", "90")
MJ = ("+3/2", "-3/2", "+1/2", "-1/2", "+5/2", "3/2", "-3/2 ", "banana", "", "nan")

#: Float flags the non-finite config file sets to ``nan``.
NON_FINITE_KEYS = ("na", "f_max", "v0", "eta", "srs_threshold_thz", "eta_780", "step_km",
                   "efficiency", "length_km", "theta_step_deg")
#: Malformed input files, written once per module under ``{files}``.
FILES = {
    "model-not-utf8.txt": b"\xff\xfe",
    "model-bad-number.txt": b"format = branching-model/1\nbr_493 = abc\nbr_650 = 0.3\n[cg]\n",
    "model-bad-level.txt": (b"format = branching-model/1\nbr_493 = 0.7\nbr_650 = 0.3\n[cg]\n"
                            b"Q12 +1/2 -> S12 +1/2 : 0.5\n"),
    "dispersion-truncated.json": b'{"form": "mgo',
    "dispersion-not-utf8.json": b"\xff\xfe",
    "dispersion-list.json": b"[1, 2]",
    "dispersion-missing-key.json": b'{"form": "mgo_cln_e"}',
    "config-not-utf8.cfg": b"na = 0.5 # \xe9\n",
    "config-no-equals.cfg": b"na\n",
    "config-non-finite.cfg": b"".join(f"{key} = nan\n".encode() for key in NON_FINITE_KEYS),
}
MATERIALS = ("ppln", "ppktp", "pplne", "bbo", "", "/nonexistent/dispersion.json",
             *(f"{{files}}/{name}" for name in FILES if name.startswith("dispersion")))
MODELS = ("/nonexistent/model.txt", "",
          *(f"{{files}}/{name}" for name in FILES if name.startswith("model")))
CONFIGS = ("/nonexistent/config.cfg",
           *(f"{{files}}/{name}" for name in FILES if name.startswith("config")))
COLLECTIONS = ("quadratic", "exact", "bogus")
SCHEMES = ("d-shelving", "weak", "strong", "bogus")

CURVE = {"--scheme": SCHEMES, "--na-step": NA_STEPS, "--collection": COLLECTIONS}
CHAIN = {"--model": MODELS, "--drive": ("sigma-minus", "sigma-plus", "bogus"), "--initial-mj": MJ}

#: subcommand words -> (flag pools, default output is JSON)
LEAVES = {
    ("schemes",): ({"--na": NUMBERS, "--collection": COLLECTIONS}, False),
    ("fidelity-curve",): ({**CURVE, "--f-max": NUMBERS}, False),
    ("prob-curve",): (CURVE, False),
    ("chain", "exact"): (CHAIN, True),
    ("chain", "mc"): ({**CHAIN, "--trials": TRIALS, "--seed": SEEDS,
                       "--threads": ("0", "-1", "1", "2", "banana"),
                       "--max-cycles": ("0", "-1", "1", "3", "1000", "banana")}, True),
    ("trap",): ({flag: NUMBERS for flag in ("--v0", "--freq-mhz", "--r-um", "--eta",
                                             "--mass-amu", "--charge-e")}, True),
    ("qfc", "plan"): ({"--input-nm": NUMBERS, "--pump-nm": NUMBERS, "--material": MATERIALS,
                       "--kind": ("dfg", "sfg", "bogus"), "--order": INTEGERS,
                       "--efficiency": NUMBERS, "--srs-threshold-thz": NUMBERS}, True),
    ("qfc", "table2"): ({}, False),
    ("fiber", "curves"): ({"--max-km": NUMBERS, "--step-km": KM_STEPS, "--eta-780": NUMBERS,
                           "--eta-1259": NUMBERS, "--eta-1550": NUMBERS}, False),
    ("fiber", "crossing"): ({flag: NUMBERS for flag in (
        "--raw-nm", "--converted-nm", "--efficiency", "--raw-db-per-km",
        "--converted-db-per-km")}, True),
    ("fiber", "budget"): ({flag: NUMBERS for flag in (
        "--source-rate", "--rep-rate-hz", "--qfc-efficiency", "--fiber-nm", "--db-per-km",
        "--length-km", "--detector")}, True),
    ("emission", "pattern"): ({"--theta-step-deg": ANGLE_STEPS,
                               "--phi-step-deg": ANGLE_STEPS}, False),
}

#: Valid values for the required flags of ``trap`` and ``qfc plan``.
REQUIRED = {
    ("trap",): {"--v0": "200", "--freq-mhz": "20", "--r-um": "260", "--eta": "0.9",
                "--mass-amu": "138"},
    ("qfc", "plan"): {"--input-nm": "650", "--pump-nm": "1343", "--material": "ppln"},
}

#: Flags parsed as floats: their pools are the number and step pools.
FLOAT_POOLS = (NUMBERS, NA_STEPS, KM_STEPS, ANGLE_STEPS)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("malformed")
    for name, content in FILES.items():
        (directory / name).write_bytes(content)
    return str(directory)


@st.composite
def command_lines(draw):
    words = draw(st.sampled_from(sorted(LEAVES)))
    pools, json_default = LEAVES[words]
    pools = {**pools, "--config": CONFIGS}
    flags = draw(st.lists(st.sampled_from(sorted(pools)), max_size=8))
    pairs = [(flag, draw(st.sampled_from(pools[flag]))) for flag in flags]
    pairs += [pair for pair in REQUIRED.get(words, {}).items() if pair[0] not in flags]
    fmt = draw(st.sampled_from((None, "csv", "json", "xml")))
    if fmt is not None:
        pairs.append(("--output-format", fmt))
    return list(words), pairs, fmt == "json" or (fmt is None and json_default)


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:  # argparse rejects it with exit 2
        return 0.0


def non_finite_float_flag(words, pairs) -> bool:
    """Whether a float flag's effective value is NaN or +-inf: the last one
    given, any ``--qfc-efficiency`` (their product is used), or the
    non-finite config file's value for a flag argv does not give."""
    pools = LEAVES[tuple(words)][0]
    given = {}
    for flag, value in pairs:
        given.setdefault(flag, []).append(value)
    for flag, values in given.items():
        if pools.get(flag) in FLOAT_POOLS:
            considered = values if flag == "--qfc-efficiency" else values[-1:]
            if not all(math.isfinite(_float(value)) for value in considered):
                return True
    if given.get("--config", [""])[-1].endswith("config-non-finite.cfg"):
        return any(f"--{key.replace('_', '-')}" in pools.keys() - given.keys()
                   for key in NON_FINITE_KEYS)
    return False


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=command_lines())
def test_every_argv_exits_cleanly(files, command):
    words, pairs, expects_json = command
    argv = words + [f"{flag}={value.format(files=files)}" for flag, value in pairs]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code, err)
    if code == 0:
        assert not non_finite_float_flag(words, pairs), argv
        if expects_json:
            json.loads(out)
        return
    assert out == "", argv
    lines = err.splitlines()
    assert lines and "error" in lines[-1], (argv, err)
    if code == 1:
        assert len(lines) == 1 and err.startswith("error: "), (argv, err)

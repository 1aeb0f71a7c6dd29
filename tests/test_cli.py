import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import ionlink
from ionlink import cli, emission, fiber, schemes
from ionlink.cli import main


TRAP = ("trap", "--v0", "200", "--freq-mhz", "20", "--r-um", "260", "--eta", "0.9",
        "--mass-amu", "138")
QFC_PLAN = ("qfc", "plan", "--input-nm", "650", "--pump-nm", "1343", "--material", "ppln")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    footnotes = [line[2:] for line in text.splitlines() if line.startswith("# ")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], rows[1:], footnotes


class TestSchemes:
    def test_csv_and_json_encode_identical_values(self, capsys):
        _, csv_text, _ = run(capsys, "schemes", "--na", "0.6")
        _, json_text, _ = run(capsys, "schemes", "--na", "0.6", "--output-format", "json")
        _header, csv_rows, _ = parse_csv(csv_text)
        payload = json.loads(json_text)
        for csv_row, json_row in zip(csv_rows, payload["rows"]):
            assert csv_row[0] == json_row[0]
            for cell, value in zip(csv_row[1:], json_row[1:]):
                assert cell == format(value, ".6g")


class TestChain:
    @pytest.mark.parametrize("drive, mj", [("sigma-minus", +1.5), ("sigma-plus", -1.5)])
    def test_library_default_sublevel_is_the_cli_default(self, capsys, drive, mj):
        from ionlink.atomic import Level, Polarization, ZeemanState
        from ionlink.pump_cycle import PumpCycleConfig, solve_exact

        config = PumpCycleConfig(drive=Polarization[drive.replace("-", "_").upper()])
        assert config.initial == ZeemanState(Level.D32, mj)
        _, out, _ = run(capsys, "chain", "exact", "--drive", drive)
        assert solve_exact(config).as_dict() == json.loads(out)  # p_dark was 1.0 under sigma+


class TestQuotedNumbers:
    """The numbers the notes and defaults quote are the layer values they name."""

    @staticmethod
    def handled(*argv):
        args = cli._parse(cli._build_parser(), list(argv))
        return args, args._run(args)

    def test_schemes_note_quotes_the_weak_and_strong_probabilities(self):
        _, (_, _, notes) = self.handled("schemes")
        quoted = re.search(r"probabilities (\S+)/(\S+) while the exact solid-angle fraction "
                           r"gives (\S+)/(\S+);", notes[-1]).groups()
        assert quoted == ("0.0131", "0.0657", "0.0146", "0.0730")
        assert quoted == tuple(f"{schemes.entanglement_probability(spec, 0.6, model):.4f}"
                               for model in ("quadratic", "exact")
                               for spec in (schemes.WEAK, schemes.STRONG))

    def test_table2_note_quotes_the_493_nm_row(self):
        from ionlink import qfc

        row = qfc.standard_conversion_table()[0]
        _, (_, rows, notes) = self.handled("qfc", "table2")
        printed = round(row.output_thz)
        assert row.conversion == "493 nm -> 779 nm" and rows[0][2] == printed
        assert f"output {row.output_thz:.2f} THz (779 nm) prints as {printed}" in notes[0]
        assert f"sitting {row.output_thz - 384:.2f} THz above the nominal 384 THz" in notes[0]

    def test_budget_source_rate_is_d_shelving_at_na_0_6(self):
        args, _ = self.handled("fiber", "budget")
        layer = schemes.entanglement_probability(schemes.D_SHELVING, 0.6)
        assert layer == pytest.approx(0.08523, abs=1e-12)
        assert args.source_rate == 0.085 == float(f"{layer:.2g}")


class TestQfc:
    def test_version_line(self, capsys):
        """``--version`` prints pyproject.toml's version and the dispersion data's."""
        pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
        version = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE).group(1)
        assert ionlink.__version__ == version
        assert run(capsys, "--version") == (0, f"ionlink {version} (dispersion-data 2026.08)\n", "")


class TestFiber:
    def test_curves_header_reflects_efficiencies(self, capsys):
        """The handler names the columns: each converted trace carries its efficiency."""
        etas = ("--eta-780", "0.07", "--eta-1259", "1", "--eta-1550", "2.5e-05")
        _, out, _ = run(capsys, "fiber", "curves", "--max-km", "1", *etas)
        header, _, _ = parse_csv(out)
        assert header == ["length_km", "t_493", "t_780_x0.07", "t_650",
                          "t_1259_x1", "t_1550_x2.5e-05"]
        _, out, _ = run(capsys, "fiber", "curves", "--max-km", "1", *etas, "--output-format", "json")
        assert json.loads(out)["columns"] == header

    def test_budget_calls_link_rate_once(self, capsys, monkeypatch):
        calls = []
        link_rate = fiber.link_rate
        monkeypatch.setattr(fiber, "link_rate", lambda *args: calls.append(args) or link_rate(*args))
        for argv in ((), ("--qfc-efficiency", "0.05", "--qfc-efficiency", "0.18")):
            code, out, _err = run(capsys, "fiber", "budget", *argv)
            assert code == 0
            assert len(calls) == 1 and json.loads(out)["rate_hz"] == link_rate(*calls.pop())


class TestOutputAndConfig:
    def test_bad_config_value_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("na = banana\n")
        code, _out, err = run(capsys, "schemes", "--config", str(config))
        assert code == 2
        assert "na" in err

    @pytest.mark.parametrize("override", [(), ("--collection", "exact")])
    def test_bad_config_choice_is_usage_error(self, capsys, tmp_path, override):
        """A config value is checked as a flag is, even where argv overrides it."""
        config = tmp_path / "run.conf"
        config.write_text("collection = bogus\n")
        code, out, err = run(capsys, "schemes", "--config", str(config), *override)
        assert code == 2 and out == ""
        assert "--collection" in err

    TRAP_CONFIG = "v0 = 200\nfreq_mhz = 20\nr-um = 260\neta = 0.9\nmass_amu = 138\n"
    TRAP_FLAGS = ("--v0", "200", "--freq-mhz", "20", "--r-um", "260", "--mass-amu", "138")

    @pytest.mark.parametrize("config_text, argv, reference", [
        (TRAP_CONFIG, ("trap",), ("trap", *TRAP_FLAGS, "--eta", "0.9")),
        (TRAP_CONFIG, ("trap", "--eta", "0.5"), ("trap", *TRAP_FLAGS, "--eta", "0.5")),
        ("qfc_efficiency = 0.05, 0.18\n", ("fiber", "budget"),
         ("fiber", "budget", "--qfc-efficiency", "0.05", "--qfc-efficiency", "0.18")),
        ("qfc_efficiency = 0.05, 0.18\n", ("fiber", "budget", "--qfc-efficiency", "0.5"),
         ("fiber", "budget", "--qfc-efficiency", "0.5")),
        ("initial_mj = -3/2\n", ("chain", "exact"), ("chain", "exact", "--initial-mj=-3/2")),
        ("trials = 5\nscheme = weak\noutput_format = json\noutput = {tmp}/x.csv\n"
         "config = {tmp}/other.conf\ncommand = trap\n", ("schemes",), ("schemes",)),
        ("\ufeffna = 0.3\n", ("schemes",), ("schemes", "--na", "0.3")),  # a byte-order mark
        ("trials = 5000\nseed = 17\n", ("chain", "mc"),
         ("chain", "mc", "--trials", "5000", "--seed", "17")),
    ])
    def test_config_contract(self, capsys, tmp_path, config_text, argv, reference):
        """argv > config > default; only the chosen subcommand's keys are read."""
        config = tmp_path / "run.conf"
        config.write_text(config_text.format(tmp=tmp_path), encoding="utf-8")
        code, out, err = run(capsys, *argv, "--config", str(config))
        assert (code, err) == (0, "")
        assert out == run(capsys, *reference)[1]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.conf"]

    @pytest.mark.parametrize("config_text, key", [
        ("na = 0.4\nna = 0.6\n", "na"),  # ran as --na 0.6
        ("# trap\nr-um = 260\n\nr_um = 300\n", "r_um"),
        ("v0 = 200\nv0 = 300\n", "v0"),  # another subcommand's key, else ignored
    ], ids=["na", "dash-and-underscore", "other-subcommand"])
    def test_repeated_config_key_is_usage_error(self, capsys, tmp_path, config_text, key):
        config = tmp_path / "run.conf"
        config.write_text(config_text)
        code, out, err = run(capsys, "schemes", "--config", str(config), "--na", "0.5")
        line = len(config_text.splitlines())
        assert (code, out) == (2, "")
        assert err == f"usage error: {config}:{line}: repeated key {key!r}\n"

    def test_non_utf8_config_file_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"na = 0.5 # \xe9\n")
        code, out, err = run(capsys, "schemes", "--config", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"usage error: cannot read config file {path}") and err.count("\n") == 1

    def test_missing_config_file_is_usage_error(self, capsys, tmp_path):
        code, _out, _err = run(capsys, "schemes", "--config", str(tmp_path / "absent.conf"))
        assert code == 2


#: (argv, exit code, fragment): bad input is refused, never with a traceback,
#: and nothing reaches standard output.  Exit 1 prints one ``error:`` line
#: holding the fragment; a usage error (exit 2) ends standard error with it.
REFUSED = [
    # domain errors
    (("schemes", "--na", "1.5"), 1, "NA out of range: 1.5"),
    (QFC_PLAN[:-1] + ("bbo",), 1, "unknown dispersion model 'bbo'"),
    (("qfc", "plan", "--input-nm", "1343", "--pump-nm", "650", "--material", "ppln"), 1,
     "DFG requires the input above the pump frequency"),
    (("fiber", "crossing", "--raw-nm", "1550", "--converted-nm", "493"), 1, "no crossover"),
    # records: the handler refuses before the output format is reached
    (TRAP + ("--v0", "nan"), 1, "v0"),
    (TRAP + ("--v0", "inf"), 1, "v0"),
    (TRAP + ("--eta", "nan"), 1, "eta"),
    (TRAP + ("--charge-e", "-1"), 1, "charge_e"),
    (TRAP + ("--freq-mhz", "nan"), 1, "f_rf_mhz"),
    (("fiber", "budget", "--db-per-km", "inf"), 1, "attenuation_db_per_km"),
    (QFC_PLAN + ("--srs-threshold-thz", "nan"), 1, "srs_threshold_thz"),
    # finite inputs whose result over- or underflows
    (TRAP + ("--freq-mhz", "1e-320"), 1, "omega_rf"),
    (TRAP + ("--r-um", "1e-320"), 1, "r_um out of range: 1e-320"),
    (TRAP + ("--r-um", "1e-300"), 1, "r=1e-306"),
    (TRAP + ("--r-um", "1e300"), 1, "r=1e+294"),
    (("fiber", "crossing", "--efficiency", "1e-320"), 1, "efficiency 1e-320"),
    # integers beyond what the computation can hold
    (("chain", "mc", "--trials", "1" + "0" * 30), 1, "n_trials"),
    (QFC_PLAN + ("--order", "1" * 400), 1, "poling order"),
    # non-finite, zero or too fine grid steps
    (("fiber", "curves", "--max-km", "inf"), 1, "max_km"),
    (("fiber", "curves", "--max-km", "nan"), 1, "max_km"),
    (("fiber", "curves", "--step-km", "nan"), 1, "step_km"),
    (("fiber", "curves", "--step-km", "inf"), 1, "step_km"),
    (("emission", "pattern", "--theta-step-deg", "nan"), 1, "theta_step_deg"),
    (("emission", "pattern", "--theta-step-deg", "inf"), 1, "theta_step_deg"),
    (("emission", "pattern", "--theta-step-deg", "0"), 1, "theta_step_deg"),
    (("emission", "pattern", "--phi-step-deg=-inf"), 1, "phi_step_deg"),
    (("fiber", "curves", "--step-km", "1e-320"), 1, "step_km"),
    (("emission", "pattern", "--theta-step-deg", "1e-320"), 1, "theta_step_deg"),
    (("emission", "pattern", "--phi-step-deg", "1e-320"), 1, "phi_step_deg"),
    (("fidelity-curve", "--na-step", "1e-320"), 1, "na_step"),
    (("prob-curve", "--na-step", "1e-320"), 1, "na_step"),
    # files and link inputs
    (("chain", "exact", "--model", "/nonexistent/model.txt"), 1, "/nonexistent/model.txt"),
    (("chain", "mc", "--trials", "10", "--model", "/nonexistent/model.txt"), 1,
     "/nonexistent/model.txt"),
    (("fiber", "crossing", "--raw-nm", "nan"), 1, "nan nm"),
    (("fiber", "crossing", "--raw-nm=-inf"), 1, "-inf nm"),
    (("fiber", "budget", "--fiber-nm", "nan"), 1, "nan nm"),
    # a finite wavelength is rounded to look it up, but printed compactly
    (("fiber", "crossing", "--raw-nm", "1e308"), 1, "for 1e+308 nm"),
    (("fiber", "budget", "--fiber-nm", "1e308"), 1, "for 1e+308 nm"),
    (("fiber", "budget", "--length-km", "nan"), 1, "length_km"),
    (("fiber", "budget", "--rep-rate-hz", "inf"), 1, "repetition_rate_hz"),
    (("fiber", "budget", "--source-rate", "2"), 1, "source_rate"),
    (("fiber", "budget", "--qfc-efficiency", "1.5"), 1, "qfc_efficiency"),
    (("fiber", "budget", "--qfc-efficiency", "2", "--qfc-efficiency", "0.1"), 1, "qfc_efficiency"),
    # the cutoff is checked after the model file is read and before the trial count
    (("chain", "mc", "--max-cycles", "0"), 1,
     "max_cycles out of range: 0 (must be an integer in [1, inf))"),
    (("chain", "mc", "--trials", "0", "--max-cycles", "0"), 1, "max_cycles out of range: 0"),
    (("chain", "mc", "--model", "/nonexistent/model.txt", "--max-cycles", "0"), 1,
     "/nonexistent/model.txt"),
    (("chain", "exact", "--initial-mj", "banana"), 1,
     "cannot parse mj value 'banana' (expected e.g. +1/2)"),
    # usage errors: argparse's synopsis and error, or one ``usage error:`` line
    (("schemes", "--frobnicate", "1"), 2, "error: unrecognized arguments: --frobnicate 1"),
    ((), 2, "error: the following arguments are required: command"),
    (("trap", "--v0", "200"), 2, "usage error: missing required option --freq-mhz"),
] + [(argv + ("--output-format", fmt), 1, name) for argv, name in [
    # tables: refused while the first block is rendered, in either format
    (("fidelity-curve", "--f-max", "nan"), "max_fidelity"),
    (("fidelity-curve", "--f-max", "inf", "--na-step", "0.5"), "max_fidelity"),
    (("fidelity-curve", "--f-max", "7"), "max_fidelity"),
    (("fiber", "curves", "--eta-780", "nan"), "eta_780"),
    (("fiber", "curves", "--eta-1550", "-3"), "eta_1550"),
    # grids above 2**20 rows
    (("fidelity-curve", "--na-step", "1e-300"), "na_step"),
    (("prob-curve", "--na-step", "1e-7"), "na_step"),
    (("fiber", "curves", "--step-km", "1e-300"), "step_km"),
    (("fiber", "curves", "--max-km", "1048576", "--step-km", "1"), "step_km"),
    (("emission", "pattern", "--theta-step-deg", "1e-300"), "theta_step_deg"),
    (("emission", "pattern", "--theta-step-deg", "0.01", "--phi-step-deg", "1"),
     "phi_step_deg"),
] for fmt in ("csv", "json")]


def assert_one_line_error(code, out, err, *fragments):
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    for fragment in fragments:
        assert fragment in err


@pytest.mark.parametrize("argv, code, fragment", REFUSED)
def test_bad_input_is_refused(capsys, argv, code, fragment):
    if code == 1:
        assert_one_line_error(*run(capsys, *argv), fragment)
    else:
        exit_code, out, err = run(capsys, *argv)
        assert (exit_code, out) == (code, "")
        assert fragment in err.splitlines()[-1]


class TestFailuresExitOne:
    """Bad input files and outputs end with exit 1 and a one-line message."""

    def test_non_finite_json_result_is_refused(self, capsys, tmp_path):
        """A dispersion file's material must be a string, so a NaN there is
        refused on load, before it reaches any renderer."""
        payload = json.loads(
            resources.files("ionlink.data").joinpath("ppln_mgo_cln.json").read_text())
        path = tmp_path / "nan-material.json"
        path.write_text(json.dumps({**payload, "material": math.nan}))
        argv = QFC_PLAN[:-1] + (str(path),)
        assert_one_line_error(*run(capsys, *argv), "malformed dispersion file", str(path))

    @pytest.mark.parametrize("flag, content, fragment", [
        ("--model", b"\xff\xfe", "codec can't decode"),
        ("--model", b"format = branching-model/1\nbr_493 = abc\nbr_650 = 0.3\n[cg]\n",
         "could not convert"),
        ("--model", b"format = branching-model/1\nbr_493 = 0.7\nbr_650 = 0.3\n[cg]\n"
         b"P12 +1/2 -> S12 +1/2 : 0.123\nP12 +1/2 -> S12 +1/2 : 0.5\n",
         "repeated channel in line 'P12 +1/2 -> S12 +1/2 : 0.5'"),
        pytest.param("--model", b"hello world\nbr_650_typo = 5\n"
                     + resources.files("ionlink.data").joinpath("ba138_branching.txt").read_bytes(),
                     "cannot parse header line 'hello world'", id="model-stray-header-line"),
        ("--model", b"format = branching-model/1\nbr_493 = 0.7\n[cg]\n",
         "model file missing key 'br_650'"),
        ("--model", b"format = branching-model/1\nbr_493 = 0.7\nbr_650 = 0.3\n[cg]\n"
         b"P12 +1/2 -> P12 +1/2 : 1.0\n", "amplitude table lower state may not be P1/2"),
        ("--model", b"format = branching-model/1\nbr_493 = 0.7\nbr_650 = 0.3\n[cg]\n"
         b"S12 +1/2 -> D32 +1/2 : 1.0\n", "amplitude table may only contain P1/2 upper states"),
        ("--material", b'{"form": "mgo', "cannot parse dispersion file"),
        ("--material", b"\xff\xfe", "cannot parse dispersion file"),
        ("--material", b"[1, 2]", "unsupported dispersion form"),
        ("--material", b'{"form": "mgo_cln_e"}', "KeyError('valid_range_nm')"),
    ])
    def test_malformed_input_files(self, capsys, tmp_path, flag, content, fragment):
        path = tmp_path / "malformed"
        path.write_bytes(content)
        head = ("chain", "exact") if flag == "--model" else QFC_PLAN[:-2]
        assert_one_line_error(*run(capsys, *head, flag, str(path)), fragment, str(path))

    @pytest.mark.parametrize("flag, data, head", [
        ("--model", "ba138_branching.txt", ("chain", "exact")),
        ("--material", "ppln_mgo_cln.json", QFC_PLAN[:-2]),
    ])
    def test_byte_order_mark_is_ignored(self, capsys, tmp_path, flag, data, head):
        """A file saved with a UTF-8 byte-order mark reads as the same file without one."""
        path = tmp_path / data
        content = resources.files("ionlink.data").joinpath(data).read_bytes()
        printed = []
        for prefix in (b"", b"\xef\xbb\xbf"):
            path.write_bytes(prefix + content)
            printed.append(run(capsys, *head, flag, str(path)))
        assert printed[1] == printed[0] and printed[0][0] == 0

    @pytest.mark.parametrize("br_493, mj, fragment", [
        (0.0, +1.5, "error: absorbing-chain solve failed: Singular matrix\n"),
        (1e-12, +1.5, "sum to 1.0000221222095027, not 1"),  # printed as p_good once
        # both P1/2 sublevels decay to D3/2 +1/2, so I - Q is [[1, -1], [0, 0]]:
        # the first pivot is 1, the second 0
        (0.0, +0.5, "error: absorbing-chain solve failed: Singular matrix\n"),
    ])
    def test_closed_or_nearly_closed_chain(self, capsys, tmp_path, br_493, mj, fragment):
        """All D3/2 amplitude on the re-driven sublevels, ``P1/2 +1/2`` to
        ``D3/2 mj``, so only br_493 leaves the chain."""
        from ionlink.atomic import (BranchingModel, Level, ZeemanState, default_barium_model,
                                    save_model)

        cg = {k: v for k, v in default_barium_model().cg.items() if k[1].level is Level.S12}
        cg[(ZeemanState(Level.P12, +0.5), ZeemanState(Level.D32, mj))] = 1.0
        cg[(ZeemanState(Level.P12, -0.5), ZeemanState(Level.D32, +0.5))] = 1.0
        path = tmp_path / "closed.txt"
        save_model(BranchingModel(br_493=br_493, br_650=1.0 - br_493, cg=cg), path)
        argv = ("chain", "exact", "--drive", "sigma-minus", "--model", str(path))
        assert_one_line_error(*run(capsys, *argv), fragment)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_unwritable_output_path(self, capsys, tmp_path, fmt):
        target = tmp_path / "missing" / "x"
        code, out, err = run(capsys, "schemes", "--output-format", fmt, "--output", str(target))
        assert_one_line_error(code, out, err, "cannot write", str(target))
        code, out, err = run(capsys, "qfc", "table2", "--output", str(tmp_path))
        assert_one_line_error(code, out, err, "cannot write", str(tmp_path))

    def test_empty_output_path_is_named(self, capsys):
        code, out, err = run(capsys, "schemes", "--output", "")
        assert_one_line_error(code, out, err, "cannot write '':")


#: The cap steps: the finest emission grid (1.03 M rows) and NA grid (1.05 M) under 2**20 rows.
FINEST_NA_STEP = "9.5368e-07"
#: The emission export of the grid pairs whose peak memory is compared.
EMISSION_JSON = ("emission", "pattern", "--output-format", "json")


class TestStreamedExport:
    """Table rows are computed as their blocks are written.  Nothing reaches
    stdout or ``--output`` on failure because every check runs before the
    first block: inputs up front, and no table cell is ever non-finite."""

    @staticmethod
    def table_cells(*argv):
        """Every cell of a table subcommand's rows, as its handler builds them."""
        args = cli._parse(cli._build_parser(), list(argv))
        _, rows, _ = args._run(args)
        return itertools.chain.from_iterable(rows)

    @pytest.mark.parametrize("argv", [
        *[("schemes", "--na", na, "--collection", model)
          for na in ("5e-324", "1e-160", "1") for model in ("quadratic", "exact")],
        *[("fidelity-curve", "--na-step", "1", "--f-max", f_max, "--collection", model)
          for f_max in ("0", "1") for model in ("quadratic", "exact")],
        ("fidelity-curve", "--na-step", FINEST_NA_STEP, "--f-max", "1", "--collection", "exact"),
        *[("prob-curve", "--na-step", "1", "--scheme", scheme)
          for scheme in ("d-shelving", "weak", "strong")],
        ("prob-curve", "--na-step", FINEST_NA_STEP, "--scheme", "strong", "--collection", "exact"),
        *[("fiber", "curves", "--eta-780", eta, "--eta-1259", eta, "--eta-1550", eta)
          for eta in ("0", "1")],
        ("fiber", "curves", "--max-km", "1.7976931348623157e308", "--step-km", "1e304"),
        ("fiber", "curves", "--max-km", "2", "--step-km", "1e308"),
        ("fiber", "curves", "--max-km", "1e-300", "--step-km", "1e-305"),
        ("fiber", "curves", "--max-km", "1048575", "--step-km", "1"),
        ("emission", "pattern", "--theta-step-deg", "180", "--phi-step-deg", "360"),
        ("emission", "pattern", "--theta-step-deg", "1e300", "--phi-step-deg", "1e300"),
        ("emission", "pattern", "--theta-step-deg", "0.18", "--phi-step-deg", "0.35"),
        ("qfc", "table2"),
    ], ids=" ".join)
    def test_table_cells_are_finite_by_construction(self, argv):
        n_cells = 0
        for cell in self.table_cells(*argv):
            n_cells += 1
            assert isinstance(cell, str) or math.isfinite(cell), (argv, cell)
        assert n_cells

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_failed_export_leaves_no_trace(self, capsys, tmp_path, fmt):
        existing, missing = tmp_path / "existing", tmp_path / "missing"
        existing.write_bytes(b"kept\n")
        # the step is checked when the rows are first pulled, while writing
        too_fine = ("emission", "pattern", "--theta-step-deg", "1e-9", "--output-format", fmt)
        for output in ((), ("--output", str(existing)), ("--output", str(missing))):
            code, out, err = run(capsys, *too_fine, *output)
            assert (code, out) == (1, "")
            assert err.startswith("error: theta_step_deg") and err.count("\n") == 1
        assert existing.read_bytes() == b"kept\n" and not missing.exists()

    @staticmethod
    def peak_rss_kb(*argv):
        """Peak RSS of a fresh ``ionlink`` run of ``argv``, stdout discarded, in KiB.

        The child is started and reaped with ``os.wait4`` by a small
        launcher: Linux carries the forking process's peak RSS into the
        child's ``ru_maxrss``, and this process is large.
        """
        launcher = (
            "import os, subprocess, sys\n"
            "proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
            "_, status, usage = os.wait4(proc.pid, 0)\n"
            "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
        )
        src = str(Path(ionlink.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        argv = [sys.executable, "-c", launcher, sys.executable, "-m", "ionlink.cli", *argv]
        code, rss_kb = subprocess.run(argv, capture_output=True, text=True, env=env,
                                      check=True).stdout.split()
        assert code == "0"
        return int(rss_kb)

    @pytest.mark.parametrize("argv, small, large, slack_mb", [
        (EMISSION_JSON, ("--theta-step-deg", "0.5", "--phi-step-deg", "1"),
         ("--theta-step-deg", "0.25", "--phi-step-deg", "0.5"), 8),
        # 128 k phi on two theta lines: the phi factors, in two float arrays and
        # one list of phases, take ~8 MB over the 0.5 x 1 degree grid; one factor
        # tuple per phi took ~21 MB, and a polarization record per phi besides ~38 MB
        (EMISSION_JSON, ("--theta-step-deg", "0.5", "--phi-step-deg", "1"),
         ("--theta-step-deg", "180", "--phi-step-deg", "0.0028"), 12),
        (("fiber", "curves", "--step-km", "1"), ("--max-km", "1000"), ("--max-km", "200000"), 8),
        (("fidelity-curve", "--output-format", "json"), ("--na-step", "1e-3"),
         ("--na-step", "5e-6"), 8),
        (EMISSION_JSON + ("--phi-step-deg", "360"), ("--theta-step-deg", "0.18"),
         ("--theta-step-deg", "3.6e-4"), 8),
    ], ids=["emission pattern json", "emission pattern phi columns", "fiber curves",
            "fidelity-curve json", "emission pattern theta lines"])
    def test_peak_memory_is_flat_in_grid_size(self, argv, small, large, slack_mb):
        """~2 x 10^5 rows (5 x 10^5 theta lines, 4x the rows of the 0.5 x 1
        degree grid) cost no more than a few MB over ~10^3 rows (that grid)."""
        assert (self.peak_rss_kb(*argv, *large) - self.peak_rss_kb(*argv, *small)
                < slack_mb * 1024)


def subcommands(parser, words=()):
    """(words, parser) for the top level and every subcommand below it."""
    yield " ".join(words), parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from subcommands(sub, (*words, name))


#: SHA-256 of ``ionlink <words> --help`` at 80 columns, as argparse of
#: Python 3.11 lays it out, for the top level, each group and each leaf.
HELP_DIGESTS = {
    "": "f5edd764ab6fa81a849e2cdd1774dee0d5469b7be93ea44841e51b1084635029",
    "schemes": "42a11f3d450fcc8c6cb86ce2225ed3d7770d91f9bd050e1a69e30ce0911186da",
    "fidelity-curve": "c3502e60c73eacb7daa768856152caa0486278a2c208c622d110dc2410b20f51",
    "prob-curve": "caec66b9f7be416e96c47f881cc53633c85727704ffa3240a2a9eb8f0aa294ac",
    "chain": "0bf2b7a7af095215d344b4ece8381fdcb33eb18af21039eb3e9e7697bba39613",
    "chain exact": "805af3788a12815a0fccb219e6ffb1d505e1a54a2d8f7ec3e2702d28ed644b1b",
    "chain mc": "2ed8d5fde75073d2be3a779234bb728c9b1f7bc23c21a3c1684acfa6009a7916",
    "trap": "5cba719c9938839bb48fe1ec0630f3a00b32f724fe9110db7d7778950b06c86e",
    "qfc": "fb20d9442f29a1537b8c02f653b6ae528c7574ad8dd63426f09289e25f070084",
    "qfc plan": "981e7f9a6b71f1b7f3581f40c8614fcf2408b3f91a5d6c326ad00068ed5b6b1e",
    "qfc table2": "a7944e6efb24c5c30a377c34378e2c34ab797f14cfd7d8f2c38b2afed946dc71",
    "fiber": "98205011637697e7a73456a8118921302e11d76ee1bf002f1ae17a5a9da1bc5b",
    "fiber curves": "e7d9b73859660266ded41e554c4d0c4cfd05fb172de1859130eae089a1f16221",
    "fiber crossing": "934b0647641693c7cb1595c1e35f21661b3f003ce770513256c1fdae76510b5e",
    "fiber budget": "b5783624eaf09311e7aeedbd0af39441fdf195efd39f03a5dcb3b478f13cbd40",
    "emission": "03cdcc20ad3f92f76dff5fa21b441484abb2f945fe6afe645a1dd5415ac618a6",
    "emission pattern": "77ce70828bb59063d59ab1c9e3d8e1d0ecd610208bb6d3244dabcd0ffd74ab13",
}


class TestParser:
    """Parsing imports no layer, so the choices are plain tuples and
    ``--version`` builds its line only when given; neither shows in the bytes."""

    @staticmethod
    def choices(flag):
        """The distinct choices of ``flag`` over every subcommand that has it."""
        return {tuple(action.choices) for _, parser in subcommands(cli._build_parser())
                for action in parser._actions if flag in action.option_strings}

    def test_choice_tuples_are_the_layers_names(self):
        assert self.choices("--scheme") == {tuple(schemes.SCHEMES)}
        assert self.choices("--collection") == {tuple(m.value for m in emission.CollectionModel)}
        drives = {"sigma-minus": ionlink.Polarization.SIGMA_MINUS,
                  "sigma-plus": ionlink.Polarization.SIGMA_PLUS}
        assert self.choices("--drive") == {tuple(drives)}
        for name, polarization in drives.items():
            args = argparse.Namespace(model=None, drive=name, initial_mj=None)
            assert cli._chain_config(args).drive is polarization

    def test_every_subcommand_has_a_help_digest(self):
        assert [words for words, _ in subcommands(cli._build_parser())] == list(HELP_DIGESTS)

    @pytest.mark.parametrize("words", HELP_DIGESTS, ids=lambda words: words or "ionlink")
    def test_help_bytes(self, capsys, monkeypatch, words):
        monkeypatch.setenv("COLUMNS", "80")
        code, out, err = run(capsys, *words.split(), "--help")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == HELP_DIGESTS[words]

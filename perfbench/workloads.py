"""Seeded command lists and output oracles for the three benchmark workloads.

Every workload is a fixed *composition* of commands (the same subcommands,
trial counts and grid sizes for every seed), so its cost does not depend on
the seed.  The seed only picks the values that do not change the amount of
work: Monte Carlo seeds, numerical apertures, trap and fiber parameters,
which outputs go to a file, and the order of the commands.

Each command carries its own oracle, computed from direct library calls
when the list is built.  ``ionlink`` must already be importable from the
checkout under test (``run.load_ionlink`` arranges that).
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ionlink import atomic, fiber, pump_cycle, qfc, schemes, trap
from ionlink.atomic import Level, Polarization, ZeemanState
from ionlink.emission import CollectionModel

NAMES = ("mc-scaling", "grid-export", "planner-session")

Check = Callable[[bytes], "str | None"]


@dataclass
class Command:
    """One ``ionlink`` invocation and what its outcome must be."""

    argv: list[str]
    expect_code: int = 0
    check: Check | None = None     # validates the output bytes (file or stdout)
    output_file: str | None = None  # the --output PATH, if any
    argparse_error: bool = False    # usage synopsis precedes the one-line message
    reference: bool = False         # digest must match an in-process cli.main run
    trials: int = 0
    threads: int = 0

    @property
    def key(self) -> str:
        """Identity for digest comparison: argv without --output and --threads."""
        return " ".join(_without(self.argv, ("--output", "--threads")))

    def reference_argv(self) -> list[str]:
        """The same argv rendering to stdout instead of --output."""
        return _without(self.argv, ("--output",))


def _without(argv: list[str], flags: tuple[str, ...]) -> list[str]:
    """``argv`` with each of ``flags`` and its value removed."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token in flags:
            next(tokens, None)
        else:
            out.append(token)
    return out


# ---------------------------------------------------------------------------
# output helpers shared by the oracles
# ---------------------------------------------------------------------------


def _csv_rows(data: bytes) -> tuple[list[str], list[list[str]]]:
    lines = [line for line in data.decode("utf-8").splitlines() if not line.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(lines))))
    return rows[0], rows[1:]


def _close(a: float, b: float) -> bool:
    """Agreement of a 6-significant-digit CSV cell with a library float."""
    return math.isclose(a, b, rel_tol=1e-5, abs_tol=1e-12)


def _table_rows(data: bytes, fmt: str, n_columns: int, n_rows: int) -> str | None:
    if fmt == "csv":
        header, rows = _csv_rows(data)
    else:
        payload = json.loads(data)
        header, rows = payload["columns"], payload["rows"]
    if len(header) != n_columns:
        return f"expected {n_columns} columns, got {len(header)}"
    if len(rows) != n_rows:
        return f"expected {n_rows} rows, got {len(rows)}"
    if any(len(row) != n_columns for row in rows):
        return "ragged table"
    return None


def _record_equals(expected: dict) -> Check:
    def check(data: bytes) -> str | None:
        got = json.loads(data)
        for key, value in expected.items():
            if got.get(key) != value:
                return f"{key}: expected {value!r}, got {got.get(key)!r}"
        return None
    return check


def _fmt(value: float, digits: int) -> str:
    return f"{value:.{digits}f}"


def _chain_config(drive: str, model: atomic.BranchingModel) -> pump_cycle.PumpCycleConfig:
    """The configuration ``chain`` builds for ``--drive drive`` and no ``--initial-mj``."""
    if drive == "sigma-minus":
        return pump_cycle.PumpCycleConfig(
            initial=ZeemanState(Level.D32, 1.5), drive=Polarization.SIGMA_MINUS, model=model)
    return pump_cycle.PumpCycleConfig(
        initial=ZeemanState(Level.D32, -1.5), drive=Polarization.SIGMA_PLUS, model=model)


def _model_with_br650(br_650: float) -> atomic.BranchingModel:
    base = atomic.default_barium_model()
    return atomic.BranchingModel(br_493=1.0 - br_650, br_650=br_650, cg=base.cg)


def _write_model(workdir: Path, name: str, br_650: float) -> tuple[str, atomic.BranchingModel]:
    model = _model_with_br650(br_650)
    path = workdir / name
    atomic.save_model(model, path)
    return str(path), atomic.load_model(path)


# ---------------------------------------------------------------------------
# mc-scaling
# ---------------------------------------------------------------------------


def _mc_check(trials: int, seed: int, exact: pump_cycle.ChainOutcome | None) -> Check:
    """Sum rule always; within 5 standard errors of solve_exact when uncut."""
    def check(data: bytes) -> str | None:
        got = json.loads(data)
        if got["n_trials"] != trials or got["seed"] != seed:
            return "n_trials/seed not echoed"
        total = got["p_good"] + got["p_bad"] + got["p_dark"]
        if abs(total - 1.0) > 1e-12:
            return f"p_good+p_bad+p_dark = {total!r}"
        if exact is None:
            return None
        for name in ("good", "bad", "dark"):
            p_exact = getattr(exact, f"p_{name}")
            se = max(got[f"se_{name}"], math.sqrt(p_exact * (1.0 - p_exact) / trials))
            if abs(got[f"p_{name}"] - p_exact) > 5.0 * se + 1e-12:
                return f"p_{name} {got[f'p_{name}']!r} is more than 5 SE from exact {p_exact!r}"
        return None
    return check


def _mc_scaling(rng: random.Random, workdir: Path, threads: list[int], small: bool) -> list[Command]:
    trial_sizes = (10_000, 20_000) if small else (1_000_000, 3_000_000)
    base_trials = trial_sizes[0]
    default = atomic.default_barium_model()
    commands: list[Command] = []

    def add(trials, seed, drive, model_path, model, max_cycles=None):
        argv = ["chain", "mc", "--trials", str(trials), "--seed", str(seed), "--drive", drive]
        if model_path:
            argv += ["--model", model_path]
        if max_cycles is not None:
            argv += ["--max-cycles", str(max_cycles)]
        exact = None if max_cycles is not None else pump_cycle.solve_exact(_chain_config(drive, model))
        for n_threads in threads:
            commands.append(Command(
                argv + ["--threads", str(n_threads)], check=_mc_check(trials, seed, exact),
                trials=trials, threads=n_threads,
            ))

    for trials in trial_sizes:
        seed = rng.randrange(2**32)
        for drive in ("sigma-minus", "sigma-plus"):
            add(trials, seed, drive, None, default)
    for i, br_650 in enumerate((0.27, 0.6, 0.9)):
        path, model = _write_model(workdir, f"model-{i}.txt", br_650)
        add(base_trials, rng.randrange(2**32), rng.choice(("sigma-minus", "sigma-plus")), path, model)
    for max_cycles in (1, 3):
        add(base_trials, rng.randrange(2**32), rng.choice(("sigma-minus", "sigma-plus")),
            None, default, max_cycles)
    return commands


# ---------------------------------------------------------------------------
# grid-export
# ---------------------------------------------------------------------------


def _grid_export(rng: random.Random, workdir: Path, small: bool) -> list[Command]:
    emission_steps = ((10.0, 30.0), (20.0, 45.0)) if small else ((0.5, 1.0), (1.0, 2.0))
    fiber_km, fiber_step = (2.0, 0.1) if small else (200.0, 0.01)
    na_step = 0.01 if small else 0.0001
    groups: list[tuple[list[str], int, int]] = []  # (argv, columns, rows)

    for theta_step, phi_step in emission_steps:
        groups.append((["emission", "pattern", "--theta-step-deg", f"{theta_step:g}",
                        "--phi-step-deg", f"{phi_step:g}"],
                       6, (round(180 / theta_step) + 1) * round(360 / phi_step)))
    etas = [_fmt(rng.uniform(0.02, 0.4), 3) for _ in range(3)]
    groups.append((["fiber", "curves", "--max-km", f"{fiber_km:g}", "--step-km", f"{fiber_step:g}",
                    "--eta-780", etas[0], "--eta-1259", etas[1], "--eta-1550", etas[2]],
                   6, round(fiber_km / fiber_step) + 1))
    n_na = round(1 / na_step) + 1
    groups.append((["fidelity-curve", "--scheme", rng.choice(sorted(schemes.SCHEMES)),
                    "--na-step", f"{na_step:g}",
                    "--f-max", _fmt(rng.uniform(0.85, 0.99), 3),
                    "--collection", rng.choice(("quadratic", "exact"))], 2, n_na))
    groups.append((["prob-curve", "--scheme", rng.choice(sorted(schemes.SCHEMES)),
                    "--na-step", f"{na_step:g}",
                    "--collection", rng.choice(("quadratic", "exact"))], 2, n_na))

    commands = []
    for i, (argv, n_columns, n_rows) in enumerate(groups):
        to_file = rng.choice(("csv", "json"))  # one of the pair renders beside stdout
        for fmt in ("csv", "json"):
            full = argv + ["--output-format", fmt]
            path = None
            if fmt == to_file:
                path = str(workdir / f"grid-{i}.{fmt}")
                full += ["--output", path]
            commands.append(Command(
                full, output_file=path, reference=True,
                check=lambda data, f=fmt, c=n_columns, r=n_rows: _table_rows(data, f, c, r),
            ))
    rng.shuffle(commands)
    return commands


# ---------------------------------------------------------------------------
# planner-session
# ---------------------------------------------------------------------------


def _schemes_check(na: float, collection: str, fmt: str) -> Check:
    expected = schemes.scheme_comparison(na, CollectionModel(collection))

    def check(data: bytes) -> str | None:
        if fmt == "json":
            rows = json.loads(data)["rows"]
            if rows != [list(row) for row in expected]:
                return "scheme rows differ from scheme_comparison"
            return None
        _, rows = _csv_rows(data)
        if len(rows) != len(expected):
            return "scheme row count differs"
        for got, want in zip(rows, expected):
            if got[0] != want[0] or not all(_close(float(g), w) for g, w in zip(got[1:], want[1:])):
                return f"scheme row {got} differs from {tuple(want)}"
        return None
    return check


def _table2_check(data: bytes) -> str | None:
    _, rows = _csv_rows(data)
    expected = [[r.conversion, str(round(r.input_thz)), str(round(r.output_thz)),
                 str(round(r.pump_thz)), r.device] for r in qfc.standard_conversion_table()]
    return None if rows == expected else "table2 rows differ from standard_conversion_table"


def _planner_session(rng: random.Random, workdir: Path, small: bool) -> list[Command]:
    commands: list[Command] = []

    for collection in ("quadratic", "exact"):
        for _ in range(1 if small else 3):
            na = _fmt(rng.uniform(0.05, 0.95), 3)
            fmt = rng.choice(("csv", "json"))
            commands.append(Command(
                ["schemes", "--na", na, "--collection", collection, "--output-format", fmt],
                check=_schemes_check(float(na), collection, fmt),
            ))

    default = atomic.default_barium_model()
    model_path, model = _write_model(workdir, "planner-model.txt", round(rng.uniform(0.2, 0.9), 3))
    for drive, path, chosen in (("sigma-minus", None, default), ("sigma-plus", None, default),
                                (rng.choice(("sigma-minus", "sigma-plus")), model_path, model)):
        argv = ["chain", "exact", "--drive", drive] + (["--model", path] if path else [])
        expected = pump_cycle.solve_exact(_chain_config(drive, chosen)).as_dict()
        commands.append(Command(argv, check=_record_equals(expected)))

    for _ in range(2):
        values = {"--v0": _fmt(rng.uniform(100, 400), 1), "--freq-mhz": _fmt(rng.uniform(10, 40), 2),
                  "--r-um": _fmt(rng.uniform(150, 400), 1), "--eta": _fmt(rng.uniform(0.5, 1.0), 3),
                  "--mass-amu": "138"}
        config = trap.TrapConfig.from_lab_units(*(float(v) for v in values.values()))
        argv = ["trap"] + [token for pair in values.items() for token in pair]
        commands.append(Command(argv, check=_record_equals(
            {"omega_s_rad_s": trap.secular_frequency(config)})))

    plans = [("650", "1343", "dfg", "ppln"), (rng.choice(("650", "780")), "1600", "dfg", "ppktp"),
             ("1550", "1343", "sfg", "ppln"), ("1259", "1550", "sfg", "ppktp")]
    for input_nm, pump_nm, kind, material in plans:
        argv = ["qfc", "plan", "--input-nm", input_nm, "--pump-nm", pump_nm,
                "--kind", kind, "--material", material]
        if kind == "sfg":  # no SFG ordering phase-matches under the k_in - k_p - k_out convention
            commands.append(Command(argv, expect_code=1))
            continue
        stage, _ = qfc.plan_stage(float(input_nm), float(pump_nm), qfc.MixKind(kind),
                                  qfc.load_dispersion(material))
        commands.append(Command(argv, check=_record_equals({
            "output_nm": stage.output.wavelength_nm,
            "poling_period_um": stage.poling_period_um,
        })))
    commands.append(Command(["qfc", "table2"], check=_table2_check))

    for raw_nm, converted_nm in rng.sample([(493, 780), (650, 1259), (780, 1550), (650, 1550)], 2):
        efficiency = _fmt(rng.uniform(0.02, 0.6), 3)
        crossing = fiber.conversion_crossing(
            fiber.standard_channel(raw_nm), fiber.standard_channel(converted_nm), float(efficiency))
        commands.append(Command(
            ["fiber", "crossing", "--raw-nm", str(raw_nm), "--converted-nm", str(converted_nm),
             "--efficiency", efficiency],
            check=_record_equals({"crossing_km": crossing}),
        ))

    for _ in range(2):
        length = _fmt(rng.uniform(0.1, 20.0), 2)
        fiber_nm = rng.choice((780, 1259, 1550))
        stages = [_fmt(rng.uniform(0.05, 0.6), 3) for _ in range(rng.randint(1, 2))]
        conversion = 1.0
        for value in stages:
            conversion *= float(value)
        rate = fiber.link_rate(0.085, 1e6, conversion, fiber.standard_channel(fiber_nm),
                               float(length), 0.95)
        argv = ["fiber", "budget", "--fiber-nm", str(fiber_nm), "--length-km", length]
        for value in stages:
            argv += ["--qfc-efficiency", value]
        commands.append(Command(argv, check=_record_equals({"rate_hz": rate})))

    config_path = workdir / "planner.cfg"
    na = _fmt(rng.uniform(0.05, 0.95), 3)
    collection = rng.choice(("quadratic", "exact"))
    config_path.write_text(f"# planner defaults\nna = {na}\ncollection = {collection}\n",
                           encoding="utf-8")
    commands.append(Command(["schemes", "--config", str(config_path), "--output-format", "json"],
                            check=_schemes_check(float(na), collection, "json")))

    commands += [
        Command(["schemes", "--na", _fmt(rng.uniform(1.05, 2.0), 2)], expect_code=1),
        Command(["trap", "--v0", "200"], expect_code=2),
        Command(["schemes", "--config", str(workdir / "missing.cfg")], expect_code=2),
        Command(["chain", "walk"], expect_code=2, argparse_error=True),
    ]
    rng.shuffle(commands)
    return commands


def build(name: str, seed: int, workdir: Path, threads: list[int], small: bool = False) -> list[Command]:
    """The command list of one pass of workload ``name`` for ``seed``.

    ``small`` shrinks trial counts and grids for the smoke test; the
    benchmark itself always runs the full sizes.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "mc-scaling":
        return _mc_scaling(rng, workdir, threads, small)
    if name == "grid-export":
        return _grid_export(rng, workdir, small)
    if name == "planner-session":
        return _planner_session(rng, workdir, small)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")

"""Command-line interface.

Every capability of the library is reachable from one executable::

    ionlink schemes --na 0.6                    # scheme comparison table
    ionlink fidelity-curve --scheme d-shelving  # fidelity vs NA sweep
    ionlink prob-curve --scheme strong          # probability vs NA sweep
    ionlink chain exact                         # pump-cycle branch probabilities
    ionlink chain mc --trials 1000000 --seed 1  # Monte Carlo cross-check
    ionlink trap --v0 200 --freq-mhz 20 --r-um 260 --eta 0.9 --mass-amu 138
    ionlink qfc plan --input-nm 650 --pump-nm 1343 --kind dfg --material ppln
    ionlink qfc table2                          # bundled conversion designs
    ionlink fiber curves --max-km 2             # transmission traces
    ionlink fiber crossing --raw-nm 493 --converted-nm 780 --efficiency 0.05
    ionlink fiber budget --length-km 1
    ionlink emission pattern                    # angular intensity/overlap grid

Tabular subcommands default to CSV, scalar ones to JSON; ``--output-format``
switches either way and ``--output`` redirects to a file.  A ``--config``
file of ``key = value`` lines supplies defaults that explicit flags
override.  JSON output never carries NaN or infinity: a non-finite result
is an error.  Exit codes: 0 success, 1 domain or numeric error (or an
output path that cannot be written), 2 usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from importlib import metadata

from . import atomic, emission, fiber, pump_cycle, qfc, schemes, trap
from ._format import render_csv, render_json, table_payload, write_output
from .errors import DomainError, NumericError

__all__ = ["main"]

_COLLECTION = {
    "quadratic": emission.CollectionModel.QUADRATIC,
    "exact": emission.CollectionModel.EXACT_SOLID_ANGLE,
}
_DRIVES = {
    "sigma-minus": atomic.Polarization.SIGMA_MINUS,
    "sigma-plus": atomic.Polarization.SIGMA_PLUS,
}


def _version_string() -> str:
    try:
        package_version = metadata.version("ionlink")
    except metadata.PackageNotFoundError:
        package_version = "unknown"
    return f"ionlink {package_version} (dispersion-data {qfc.dispersion_data_version()})"


class _UsageError(Exception):
    pass


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


class _Options:
    """Per-subcommand flag registry: resolves argv > config file > default."""

    def __init__(self, parser: argparse.ArgumentParser):
        self.parser = parser
        self.defaults: dict[str, object] = {}
        self.types: dict[str, object] = {}
        self.choices: dict[str, tuple] = {}
        parser.add_argument("--output-format", choices=("csv", "json"), default=None,
                            help="encoding of the result (default depends on the subcommand)")
        parser.add_argument("--output", default=None, metavar="PATH",
                            help="write to PATH instead of standard output ('-')")
        parser.add_argument("--config", default=None, metavar="PATH",
                            help="key = value file supplying defaults; flags override")

    def add(self, flag: str, *, type=float, default=None, required=False,
            choices=None, action=None, help: str = ""):  # noqa: A002
        dest = flag.lstrip("-").replace("-", "_")
        kwargs = {"dest": dest, "default": None, "help": help}
        if action == "append":
            kwargs["action"] = "append"
            kwargs["type"] = type
        else:
            kwargs["type"] = str  # convert later so config values share the path
        self.parser.add_argument(flag, **kwargs)
        self.defaults[dest] = ([] if action == "append" else default)
        self.types[dest] = type
        self.choices[dest] = tuple(choices) if choices else ()
        if required:
            self.defaults[dest] = _REQUIRED
        return self

    def resolve(self, args: argparse.Namespace) -> argparse.Namespace:
        config = _read_config(args.config) if args.config else {}
        for dest, default in self.defaults.items():
            is_append = isinstance(default, list)
            raw = getattr(args, dest)
            if is_append:
                if raw:  # argv values win outright
                    continue
                if dest in config:  # comma-separated list in the config file
                    try:
                        setattr(args, dest,
                                [self.types[dest](v.strip()) for v in config[dest].split(",")])
                    except (TypeError, ValueError) as exc:
                        raise _UsageError(
                            f"bad value for --{dest.replace('_', '-')}: {config[dest]!r}"
                        ) from exc
                else:
                    setattr(args, dest, list(default))
                continue
            if raw is None and dest in config:
                raw = config[dest]
            if raw is None:
                if default is _REQUIRED:
                    raise _UsageError(f"missing required option --{dest.replace('_', '-')}")
                setattr(args, dest, default)
                continue
            if isinstance(raw, str):
                try:
                    value = self.types[dest](raw)
                except (TypeError, ValueError) as exc:
                    raise _UsageError(f"bad value for --{dest.replace('_', '-')}: {raw!r}") from exc
                if self.choices[dest] and value not in self.choices[dest]:
                    raise _UsageError(
                        f"--{dest.replace('_', '-')} must be one of "
                        f"{', '.join(map(str, self.choices[dest]))}, got {value!r}"
                    )
                setattr(args, dest, value)
        return args


_REQUIRED = object()


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, _Options]]:
    parser = argparse.ArgumentParser(
        prog="ionlink",
        description="Ion-photon entanglement, frequency conversion and fiber-link planning.",
    )
    parser.add_argument("--version", action="version", version=_version_string())
    sub = parser.add_subparsers(dest="command", required=True)
    options: dict[str, _Options] = {}

    def leaf(name_path: str, parent, help_text: str) -> _Options:
        p = parent.add_parser(name_path.split()[-1], help=help_text)
        opts = _Options(p)
        p.set_defaults(_leaf=name_path)
        options[name_path] = opts
        return opts

    opts = leaf("schemes", sub, "compare excitation schemes at one NA")
    opts.add("--na", type=float, default=0.6, help="collection numerical aperture")
    opts.add("--collection", type=str, default="quadratic", choices=tuple(_COLLECTION),
             help="solid-angle fraction model")

    opts = leaf("fidelity-curve", sub, "fidelity vs NA sweep")
    opts.add("--scheme", type=str, default="d-shelving", choices=tuple(schemes.SCHEMES))
    opts.add("--f-max", type=float, default=None, help="override the scheme's zero-NA fidelity")
    opts.add("--na-step", type=float, default=0.01)
    opts.add("--collection", type=str, default="quadratic", choices=tuple(_COLLECTION))

    opts = leaf("prob-curve", sub, "entanglement probability vs NA sweep")
    opts.add("--scheme", type=str, default="d-shelving", choices=tuple(schemes.SCHEMES))
    opts.add("--na-step", type=float, default=0.01)
    opts.add("--collection", type=str, default="quadratic", choices=tuple(_COLLECTION))

    chain = sub.add_parser("chain", help="pump-cycle branch probabilities").add_subparsers(
        dest="mode", required=True
    )
    for mode, help_text in (("exact", "absorbing-chain linear solve"),
                            ("mc", "Monte Carlo trajectories")):
        opts = leaf(f"chain {mode}", chain, help_text)
        opts.add("--model", type=str, default=None, help="branching-model file (default: bundled Ba+)")
        opts.add("--drive", type=str, default="sigma-minus", choices=tuple(_DRIVES))
        opts.add("--initial-mj", type=str, default=None,
                 help="shelf sublevel, e.g. +3/2 (default: stretched state matching the drive)")
        if mode == "mc":
            opts.add("--trials", type=int, default=1_000_000)
            opts.add("--seed", type=int, default=0)
            opts.add("--threads", type=int, default=1)
            opts.add("--max-cycles", type=int, default=1000)

    opts = leaf("trap", sub, "secular frequency of a linear RF trap")
    opts.add("--v0", type=float, required=True, help="RF amplitude, V")
    opts.add("--freq-mhz", type=float, required=True, help="RF drive frequency, MHz")
    opts.add("--r-um", type=float, required=True, help="ion-electrode distance, um")
    opts.add("--eta", type=float, required=True, help="geometric factor in (0, 1]")
    opts.add("--mass-amu", type=float, required=True, help="ion mass, amu")
    opts.add("--charge-e", type=float, default=1.0, help="charge in elementary charges")

    qfc_sub = sub.add_parser("qfc", help="three-wave-mixing conversion planning").add_subparsers(
        dest="mode", required=True
    )
    opts = leaf("qfc plan", qfc_sub, "design one conversion stage")
    opts.add("--input-nm", type=float, required=True)
    opts.add("--pump-nm", type=float, required=True)
    opts.add("--kind", type=str, default="dfg", choices=("dfg", "sfg"))
    opts.add("--material", type=str, required=True,
             help="bundled name (ppln, ppktp) or dispersion JSON path")
    opts.add("--order", type=int, default=1, help="odd poling order")
    opts.add("--efficiency", type=float, default=1.0)
    opts.add("--srs-threshold-thz", type=float, default=5.0)
    leaf("qfc table2", qfc_sub, "bundled single-pump conversion designs")

    fiber_sub = sub.add_parser("fiber", help="fiber transmission and link budgets").add_subparsers(
        dest="mode", required=True
    )
    opts = leaf("fiber curves", fiber_sub, "transmission traces vs distance")
    opts.add("--max-km", type=float, default=2.0)
    opts.add("--step-km", type=float, default=0.01)
    opts.add("--eta-780", type=float, default=0.05)
    opts.add("--eta-1259", type=float, default=0.05)
    opts.add("--eta-1550", type=float, default=0.18)

    opts = leaf("fiber crossing", fiber_sub, "distance where conversion starts to win")
    opts.add("--raw-nm", type=float, default=493.0)
    opts.add("--converted-nm", type=float, default=780.0)
    opts.add("--efficiency", type=float, default=0.05)
    opts.add("--raw-db-per-km", type=float, default=None, help="override the bundled attenuation")
    opts.add("--converted-db-per-km", type=float, default=None)

    opts = leaf("fiber budget", fiber_sub, "end-to-end entanglement rate")
    opts.add("--source-rate", type=float, default=0.085, help="entangled photon probability per attempt")
    opts.add("--rep-rate-hz", type=float, default=1e6)
    opts.add("--qfc-efficiency", type=float, action="append",
             help="per-stage conversion efficiency, repeatable (product is used)")
    opts.add("--fiber-nm", type=float, default=780.0)
    opts.add("--db-per-km", type=float, default=None, help="override the bundled attenuation")
    opts.add("--length-km", type=float, default=1.0)
    opts.add("--detector", type=float, default=0.95)

    emission_sub = sub.add_parser("emission", help="dipole emission geometry").add_subparsers(
        dest="mode", required=True
    )
    opts = leaf("emission pattern", emission_sub, "intensity / overlap on an angular grid")
    opts.add("--theta-step-deg", type=float, default=5.0)
    opts.add("--phi-step-deg", type=float, default=30.0)

    return parser, options


def _channel(nm: float, override_db_per_km) -> fiber.FiberChannel:
    if override_db_per_km is not None:
        return fiber.FiberChannel(nm, override_db_per_km)
    return fiber.standard_channel(int(round(nm)))


def _chain_config(args) -> pump_cycle.PumpCycleConfig:
    model = atomic.load_model(args.model) if args.model else atomic.default_barium_model()
    drive = _DRIVES[args.drive]
    if args.initial_mj is None:
        mj = 1.5 if drive is atomic.Polarization.SIGMA_MINUS else -1.5
    else:
        mj = atomic._mj_from_text(args.initial_mj)
    kwargs = {"initial": atomic.ZeemanState(atomic.Level.D32, mj), "drive": drive, "model": model}
    if getattr(args, "max_cycles", None) is not None:
        kwargs["max_cycles"] = args.max_cycles
    return pump_cycle.PumpCycleConfig(**kwargs)


def _run_leaf(args) -> tuple[str, object, tuple[str, ...], str]:
    """Returns (kind, data, footnotes, default format): kind is 'table' or 'record'."""
    leaf = args._leaf

    if leaf == "schemes":
        model = _COLLECTION[args.collection]
        rows = schemes.scheme_comparison(args.na, model)
        notes = [
            "probability = pe_ps x collected solid-angle fraction; "
            f"fidelity = max fidelity - 0.24 x fraction ({args.collection} model)",
        ]
        if args.collection == "quadratic" and math.isclose(args.na, 0.6):
            notes.append(
                "at na=0.6 the quadratic fraction gives weak/strong probabilities "
                "0.0131/0.0657 while the exact solid-angle fraction gives "
                "0.0146/0.0730; tabulated values 0.014/0.068 fall in between"
            )
        return ("table", (("scheme", "pe_ps", "probability", "fidelity"), rows), tuple(notes), "csv")

    if leaf == "fidelity-curve":
        f_max = args.f_max if args.f_max is not None else schemes.SCHEMES[args.scheme].max_fidelity
        pairs = schemes.fidelity_curve(f_max, args.na_step, _COLLECTION[args.collection])
        return ("table", (("na", "fidelity"), pairs), (), "csv")

    if leaf == "prob-curve":
        spec = schemes.SCHEMES[args.scheme]
        pairs = schemes.probability_curve(spec, args.na_step, _COLLECTION[args.collection])
        return ("table", (("na", "probability"), pairs), (), "csv")

    if leaf == "chain exact":
        outcome = pump_cycle.solve_exact(_chain_config(args))
        return ("record", outcome.as_dict(), (), "json")

    if leaf == "chain mc":
        outcome = pump_cycle.simulate(
            _chain_config(args), n_trials=args.trials, seed=args.seed, workers=args.threads
        )
        return ("record", outcome.as_dict(), (), "json")

    if leaf == "trap":
        trap_config = trap.TrapConfig.from_lab_units(
            v0=args.v0, f_rf_mhz=args.freq_mhz, r_um=args.r_um,
            eta=args.eta, mass_amu=args.mass_amu, charge_e=args.charge_e,
        )
        omega_s = trap.secular_frequency(trap_config)
        record = {
            "omega_s_rad_s": omega_s,
            "f_s_mhz": omega_s / (2.0 * math.pi) / 1e6,
            "depth_note": "pseudopotential depth is not modeled; secular frequency only",
        }
        return ("record", record, (), "json")

    if leaf == "qfc plan":
        dispersion = qfc.load_dispersion(args.material)
        stage, findings = qfc.plan_stage(
            args.input_nm, args.pump_nm, qfc.MixKind(args.kind), dispersion,
            poling_order=args.order, efficiency=args.efficiency,
            srs_threshold_thz=args.srs_threshold_thz,
        )
        record = {
            "input_nm": stage.input.wavelength_nm,
            "pump_nm": stage.pump.wavelength_nm,
            "kind": stage.kind.value,
            "material": dispersion.material,
            "poling_order": stage.poling_order,
            "output_nm": stage.output.wavelength_nm,
            "output_thz": stage.output.frequency_thz,
            "poling_period_um": stage.poling_period_um,
            "efficiency": stage.efficiency,
            "noise_findings": [{"code": f.code, "message": f.message} for f in findings],
        }
        return ("record", record, (), "json")

    if leaf == "qfc table2":
        rows = [
            (row.conversion, round(row.input_thz), round(row.output_thz),
             round(row.pump_thz), row.device)
            for row in qfc.standard_conversion_table()
        ]
        notes = (
            "frequencies follow exact energy conservation; the 493 nm row's output "
            "384.87 THz (779 nm) prints as 385, sitting 0.87 THz above the nominal "
            "384 THz / 780 nm target usually quoted for this pump",
            "poling designs come from the bundled dispersion data, not from "
            "measured device parameters",
        )
        return ("table", (("conversion", "input_thz", "output_thz", "pump_thz", "device"), rows),
                notes, "csv")

    if leaf == "fiber curves":
        header, rows = fiber.transmission_curves(
            args.max_km, args.step_km, args.eta_780, args.eta_1259, args.eta_1550
        )
        return ("table", (header, rows), (), "csv")

    if leaf == "fiber crossing":
        raw = _channel(args.raw_nm, args.raw_db_per_km)
        converted = _channel(args.converted_nm, args.converted_db_per_km)
        crossing = fiber.conversion_crossing(raw, converted, args.efficiency)
        record = {
            "raw_nm": raw.wavelength_nm,
            "raw_db_per_km": raw.attenuation_db_per_km,
            "converted_nm": converted.wavelength_nm,
            "converted_db_per_km": converted.attenuation_db_per_km,
            "efficiency": args.efficiency,
            "crossing_km": crossing,
        }
        return ("record", record, (), "json")

    if leaf == "fiber budget":
        channel = _channel(args.fiber_nm, args.db_per_km)
        conversion_efficiency = 1.0
        for value in args.qfc_efficiency or []:
            conversion_efficiency *= value
        rate = fiber.link_rate(
            args.source_rate, args.rep_rate_hz, conversion_efficiency,
            channel, args.length_km, args.detector,
        )
        record = {
            "source_rate": args.source_rate,
            "repetition_rate_hz": args.rep_rate_hz,
            "conversion_efficiency": conversion_efficiency,
            "fiber_nm": channel.wavelength_nm,
            "attenuation_db_per_km": channel.attenuation_db_per_km,
            "length_km": args.length_km,
            "detector_efficiency": args.detector,
            "rate_hz": rate,
        }
        return ("record", record, (), "json")

    if leaf == "emission pattern":
        thetas, phis = emission.pattern_grid(args.theta_step_deg, args.phi_step_deg)
        rows = list(emission.pattern_rows(thetas, phis))
        header = ("theta", "phi", "i_pi", "i_sigma_plus", "i_sigma_minus", "overlap_abs")
        return ("table", (header, rows), (), "csv")

    raise _UsageError(f"unknown subcommand {leaf!r}")


def _render(kind, data, footnotes, fmt) -> str:
    if kind == "table":
        columns, rows = data
        if fmt == "csv":
            return render_csv(columns, rows, footnotes)
        return render_json(table_payload(columns, rows, footnotes))
    if fmt == "json":
        return render_json(data)
    flat = {
        key: ("; ".join(f"{f['code']}: {f['message']}" for f in value)
              if isinstance(value, list) else value)
        for key, value in data.items()
    }
    return render_csv(list(flat.keys()), [list(flat.values())], footnotes)


def main(argv=None) -> int:
    parser, options = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        options[args._leaf].resolve(args)
        kind, data, footnotes, default_fmt = _run_leaf(args)
        text = _render(kind, data, footnotes, args.output_format or default_fmt)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        write_output(text, args.output)
    except OSError as exc:
        print(f"error: cannot write {args.output or '-'}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

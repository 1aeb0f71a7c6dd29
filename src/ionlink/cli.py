"""Command-line interface.

One executable runs each planning command of the library::

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

``fiber budget`` takes a conversion chain as bare efficiencies (repeated
``--qfc-efficiency``).  Chains of planned ``qfc`` stages, with
``qfc.chain_efficiency``'s check that they connect, are library-only, as
are building blocks such as ``allowed_decays`` and ``noise_audit``.

Tabular subcommands default to CSV, scalar ones to JSON; ``--output-format``
switches either way and ``--output`` redirects to a file.  A ``--config``
file of ``key = value`` lines, each key once, supplies defaults for the
subcommand's own flags, checked as flags are; explicit flags override it.
A non-finite or out-of-range physics input, a result that over- or
underflows and a grid above 2**20 rows are refused naming the argument;
neither CSV nor JSON output carries NaN or infinity.  Exit codes: 0
success; 1 domain or numeric error, a file that cannot be read, parsed or
written (standard output too: also when it is closed, when the write fails
only as it is flushed at the end of the run, when a reader such as
``head -1`` closes the pipe early, and for ``--help`` and ``--version``
text), or ``chain mc`` without numpy (one ``error:`` line); 2 usage error.
A malformed value or unknown flag prints argparse's usage synopsis and
``error: argument --na: invalid float value: 'banana'``; a missing
required flag, or a config file that cannot be read or repeats a key,
prints one ``usage error:`` line.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from collections.abc import Iterator

from . import __version__
from ._format import render_csv, render_json, stdout, table_payload, write_output
from .errors import DomainError, NumericError, check

__all__ = ["main", "run"]

# The layers' names as plain tuples, in the order --help shows them, so that
# parsing imports no layer; tests pin them to SCHEMES, CollectionModel and
# Polarization (a drive names its member in lower case, "-" for "_").
_SCHEMES = ("d-shelving", "weak", "strong")
_COLLECTIONS = ("quadratic", "exact")
_DRIVES = ("sigma-minus", "sigma-plus")


class _Parser(argparse.ArgumentParser):
    """argparse's parser, except that help or version text that cannot be
    written to standard output raises the ``OSError`` argparse would drop."""

    def _print_message(self, message, file=None):
        if message and file is sys.stdout:
            stdout().write(message)
        else:  # usage errors, on standard error
            super()._print_message(message, file)


class _Version(argparse._VersionAction):
    """argparse's ``version`` action, reading the dispersion data only when given."""

    def __call__(self, parser, namespace, values, option_string=None):
        from . import qfc

        self.version = f"ionlink {__version__} (dispersion-data {qfc.dispersion_data_version()})"
        super().__call__(parser, namespace, values, option_string)


class _UsageError(Exception):
    pass


def _read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise _UsageError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
                key = key.strip().replace("-", "_")
                if key in values:
                    raise _UsageError(f"{path}:{lineno}: repeated key {key!r}")
                values[key] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UsageError(f"cannot read config file {path}: {exc}") from exc
    return values


def _channel(nm: float, override_db_per_km) -> fiber.FiberChannel:
    from . import fiber

    if override_db_per_km is not None:
        return fiber.FiberChannel(nm, override_db_per_km)
    return fiber.standard_channel(nm)


# Each handler imports its layer when it runs, so a command loads only its own
# layer (and numpy only with pump_cycle's Monte Carlo, for chain mc).  Handlers
# call the layer through its module, where a tracer patches it.
def _chain_config(args):
    from . import atomic, pump_cycle

    model = atomic.load_model(args.model) if args.model else atomic.default_barium_model()
    drive = atomic.Polarization[args.drive.replace("-", "_").upper()]
    initial = (None if args.initial_mj is None  # the config picks the drive's stretched state
               else atomic.ZeemanState(atomic.Level.D32, atomic.mj_from_text(args.initial_mj)))
    return pump_cycle.PumpCycleConfig(initial=initial, drive=drive, model=model)


def _schemes(args):
    from . import schemes

    rows = schemes.scheme_comparison(args.na, args.collection)
    notes = [
        "probability = pe_ps x collected solid-angle fraction; fidelity = max fidelity - "
        f"{schemes.POLARIZATION_MIXING_COEFF:g} x fraction ({args.collection} model)",
    ]
    if args.collection == "quadratic" and math.isclose(args.na, 0.6):
        notes.append(
            "at na=0.6 the quadratic fraction gives weak/strong probabilities "
            "0.0131/0.0657 while the exact solid-angle fraction gives "
            "0.0146/0.0730; tabulated values 0.014/0.068 fall in between"
        )
    return ("scheme", "pe_ps", "probability", "fidelity"), rows, notes


def _fidelity_curve(args):
    from . import schemes

    f_max = args.f_max if args.f_max is not None else schemes.SCHEMES[args.scheme].max_fidelity
    pairs = schemes.fidelity_curve(f_max, args.na_step, args.collection)
    return ("na", "fidelity"), pairs, ()


def _prob_curve(args):
    from . import schemes

    spec = schemes.SCHEMES[args.scheme]
    pairs = schemes.probability_curve(spec, args.na_step, args.collection)
    return ("na", "probability"), pairs, ()


def _chain_exact(args):
    from . import pump_cycle

    return pump_cycle.solve_exact(_chain_config(args)).as_dict()


def _chain_mc(args):
    from . import pump_cycle

    outcome = pump_cycle.simulate(_chain_config(args), n_trials=args.trials, seed=args.seed,
                                  workers=args.threads, max_cycles=args.max_cycles)
    return outcome.as_dict()


def _trap(args):
    from . import trap

    trap_config = trap.TrapConfig.from_lab_units(
        v0=args.v0, f_rf_mhz=args.freq_mhz, r_um=args.r_um,
        eta=args.eta, mass_amu=args.mass_amu, charge_e=args.charge_e,
    )
    omega_s = trap.secular_frequency(trap_config)
    return {
        "omega_s_rad_s": omega_s,
        "f_s_mhz": omega_s / (2.0 * math.pi) / 1e6,
        "depth_note": "pseudopotential depth is not modeled; secular frequency only",
    }


def _qfc_plan(args):
    from . import qfc

    dispersion = qfc.load_dispersion(args.material)
    stage, findings = qfc.plan_stage(
        args.input_nm, args.pump_nm, qfc.MixKind(args.kind), dispersion,
        poling_order=args.order, efficiency=args.efficiency,
        srs_threshold_thz=args.srs_threshold_thz,
    )
    return {
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


def _qfc_table2(args):
    from . import qfc

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
    return ("conversion", "input_thz", "output_thz", "pump_thz", "device"), rows, notes


def _fiber_curves(args):
    from . import fiber

    header = ("length_km", "t_493", f"t_780_x{args.eta_780:g}", "t_650",
              f"t_1259_x{args.eta_1259:g}", f"t_1550_x{args.eta_1550:g}")
    return header, fiber.transmission_curves(args.max_km, args.step_km, args.eta_780,
                                             args.eta_1259, args.eta_1550), ()


def _fiber_crossing(args):
    from . import fiber

    raw = _channel(args.raw_nm, args.raw_db_per_km)
    converted = _channel(args.converted_nm, args.converted_db_per_km)
    return {
        "raw_nm": raw.wavelength_nm,
        "raw_db_per_km": raw.attenuation_db_per_km,
        "converted_nm": converted.wavelength_nm,
        "converted_db_per_km": converted.attenuation_db_per_km,
        "efficiency": args.efficiency,
        "crossing_km": fiber.conversion_crossing(raw, converted, args.efficiency),
    }


def _fiber_budget(args):
    from . import fiber

    channel = _channel(args.fiber_nm, args.db_per_km)
    efficiency = math.prod(
        (check("qfc_efficiency", e, 0.0, 1.0) for e in args.qfc_efficiency), start=1.0)
    rate = fiber.link_rate(args.source_rate, args.rep_rate_hz, efficiency, channel,
                           args.length_km, args.detector)
    return {
        "source_rate": args.source_rate,
        "repetition_rate_hz": args.rep_rate_hz,
        "conversion_efficiency": efficiency,
        "fiber_nm": channel.wavelength_nm,
        "attenuation_db_per_km": channel.attenuation_db_per_km,
        "length_km": args.length_km,
        "detector_efficiency": args.detector,
        "rate_hz": rate,
    }


def _emission_pattern(args):
    from . import emission

    header = ("theta", "phi", "i_pi", "i_sigma_plus", "i_sigma_minus", "overlap_abs")
    return header, emission.pattern_rows(args.theta_step_deg, args.phi_step_deg), ()


#: Default of a required flag.  ``_parse`` reports a missing one on one line;
#: argparse's ``required=True`` would print its usage synopsis as well.
_REQUIRED = object()


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ionlink",
        description="Ion-photon entanglement, frequency conversion and fiber-link planning.",
    )
    parser.add_argument("--version", action=_Version)
    commands = parser.add_subparsers(dest="command", required=True)

    def group(name: str, help_text: str):
        return commands.add_parser(name, help=help_text).add_subparsers(dest="mode", required=True)

    def leaf(parent, name: str, help_text: str, run):
        """Adds a subcommand run by ``run``; returns its ``add_argument``."""
        p = parent.add_parser(name, help=help_text)
        p.set_defaults(_run=run)
        p.add_argument("--output-format", choices=("csv", "json"),
                       help="encoding of the result (default depends on the subcommand)")
        p.add_argument("--output", metavar="PATH",
                       help="write to PATH instead of standard output ('-')")
        p.add_argument("--config", metavar="PATH",
                       help="key = value file supplying defaults; flags override")
        return p.add_argument

    flag = leaf(commands, "schemes", "compare excitation schemes at one NA", _schemes)
    flag("--na", type=float, default=0.6, help="collection numerical aperture")
    flag("--collection", default="quadratic", choices=_COLLECTIONS,
         help="solid-angle fraction model")

    flag = leaf(commands, "fidelity-curve", "fidelity vs NA sweep", _fidelity_curve)
    flag("--scheme", default="d-shelving", choices=_SCHEMES)
    flag("--f-max", type=float, help="override the scheme's zero-NA fidelity")
    flag("--na-step", type=float, default=0.01)
    flag("--collection", default="quadratic", choices=_COLLECTIONS)

    flag = leaf(commands, "prob-curve", "entanglement probability vs NA sweep", _prob_curve)
    flag("--scheme", default="d-shelving", choices=_SCHEMES)
    flag("--na-step", type=float, default=0.01)
    flag("--collection", default="quadratic", choices=_COLLECTIONS)

    chain = group("chain", "pump-cycle branch probabilities")
    exact = leaf(chain, "exact", "absorbing-chain linear solve", _chain_exact)
    mc = leaf(chain, "mc", "Monte Carlo trajectories", _chain_mc)
    for flag in (exact, mc):
        flag("--model", help="branching-model file (default: bundled Ba+)")
        flag("--drive", default="sigma-minus", choices=_DRIVES)
        flag("--initial-mj",
             help="shelf sublevel, e.g. +3/2 (default: stretched state matching the drive)")
    mc("--trials", type=int, default=1_000_000)
    mc("--seed", type=int, default=0)
    mc("--threads", type=int, default=1)
    mc("--max-cycles", type=int, default=1000)

    flag = leaf(commands, "trap", "secular frequency of a linear RF trap", _trap)
    flag("--v0", type=float, default=_REQUIRED, help="RF amplitude, V")
    flag("--freq-mhz", type=float, default=_REQUIRED, help="RF drive frequency, MHz")
    flag("--r-um", type=float, default=_REQUIRED, help="ion-electrode distance, um")
    flag("--eta", type=float, default=_REQUIRED, help="geometric factor in (0, 1]")
    flag("--mass-amu", type=float, default=_REQUIRED, help="ion mass, amu")
    flag("--charge-e", type=float, default=1.0, help="charge in elementary charges")

    conversion = group("qfc", "three-wave-mixing conversion planning")
    flag = leaf(conversion, "plan", "design one conversion stage", _qfc_plan)
    flag("--input-nm", type=float, default=_REQUIRED)
    flag("--pump-nm", type=float, default=_REQUIRED)
    flag("--kind", default="dfg", choices=("dfg", "sfg"))
    flag("--material", default=_REQUIRED, help="bundled name (ppln, ppktp) or dispersion JSON path")
    flag("--order", type=int, default=1, help="odd poling order")
    flag("--efficiency", type=float, default=1.0)
    flag("--srs-threshold-thz", type=float, default=5.0)
    leaf(conversion, "table2", "bundled single-pump conversion designs", _qfc_table2)

    link = group("fiber", "fiber transmission and link budgets")
    flag = leaf(link, "curves", "transmission traces vs distance", _fiber_curves)
    flag("--max-km", type=float, default=2.0)
    flag("--step-km", type=float, default=0.01)
    flag("--eta-780", type=float, default=0.05)
    flag("--eta-1259", type=float, default=0.05)
    flag("--eta-1550", type=float, default=0.18)

    flag = leaf(link, "crossing", "distance where conversion starts to win", _fiber_crossing)
    flag("--raw-nm", type=float, default=493.0)
    flag("--converted-nm", type=float, default=780.0)
    flag("--efficiency", type=float, default=0.05)
    flag("--raw-db-per-km", type=float, help="override the bundled attenuation")
    flag("--converted-db-per-km", type=float)

    flag = leaf(link, "budget", "end-to-end entanglement rate", _fiber_budget)
    flag("--source-rate", type=float, default=0.085, help="entangled photon probability per attempt")
    flag("--rep-rate-hz", type=float, default=1e6)
    flag("--qfc-efficiency", type=float, action="append", default=[],
         help="per-stage conversion efficiency, repeatable (product is used)")
    flag("--fiber-nm", type=float, default=780.0)
    flag("--db-per-km", type=float, help="override the bundled attenuation")
    flag("--length-km", type=float, default=1.0)
    flag("--detector", type=float, default=0.95)

    flag = leaf(group("emission", "dipole emission geometry"), "pattern",
                "intensity / overlap on an angular grid", _emission_pattern)
    flag("--theta-step-deg", type=float, default=5.0)
    flag("--phi-step-deg", type=float, default=30.0)

    return parser


#: Namespace entries no config key sets: the subcommand words, the handler
#: and the flags every subcommand shares.
_NOT_CONFIGURABLE = frozenset({"command", "mode", "_run", "output_format", "output", "config"})


def _parse(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """argv > config file > default, every value through its flag's type and choices.

    The config keys of the chosen subcommand become ``--key=value`` tokens
    (the ``=`` form keeps a value like ``-3/2`` from reading as a flag),
    parsed after the subcommand words and before argv's flags, so that
    argparse's last-wins rule lets argv override them.  A repeatable flag's
    comma list is used only when argv does not give the flag: argv's values
    replace the list outright.
    """
    args = parser.parse_args(argv)
    if args.config:
        config = _read_config(args.config)
        tokens = []
        for dest, value in vars(args).items():
            if dest in _NOT_CONFIGURABLE or dest not in config:
                continue
            flag = "--" + dest.replace("_", "-")
            if not isinstance(value, list):
                tokens.append(f"{flag}={config[dest]}")
            elif not value:
                tokens += [f"{flag}={item.strip()}" for item in config[dest].split(",")]
        n_words = 2 if "mode" in args else 1
        args = parser.parse_args(argv[:n_words] + tokens + argv[n_words:])
    missing = [dest for dest, value in vars(args).items() if value is _REQUIRED]
    if missing:
        raise _UsageError(f"missing required option --{missing[0].replace('_', '-')}")
    return args


def _render(result, fmt: str | None) -> Iterator[str]:
    """A handler's record (a dict, JSON by default) or table (CSV by default),
    as the texts the renderer yields block by block."""
    if isinstance(result, dict):
        if fmt != "csv":
            return render_json(result)
        flat = {
            key: ("; ".join(f"{f['code']}: {f['message']}" for f in value)
                  if isinstance(value, list) else value)
            for key, value in result.items()
        }
        return render_csv(list(flat), [list(flat.values())])
    columns, rows, footnotes = result
    if fmt == "json":
        return render_json(table_payload(columns, rows, footnotes))
    return render_csv(columns, rows, footnotes)


def _write_error(target: str, exc: OSError) -> int:
    print(f"error: cannot write {target!r}: {exc.strerror or exc}", file=sys.stderr)
    return 1


def _command(argv) -> int:
    parser = _build_parser()
    try:
        args = _parse(parser, sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:  # argparse has printed help, the version or its error
        return int(exc.code or 0)
    except OSError as exc:  # the help or version text
        return _write_error("-", exc)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:  # a table's rows are computed as its blocks are written
        try:
            chunks = _render(args._run(args), args.output_format)
        except OSError as exc:  # a --model or --material file
            print(f"error: cannot read {exc.filename}: {exc.strerror or exc}", file=sys.stderr)
            return 1
        try:
            write_output(chunks, args.output)
        except OSError as exc:
            return _write_error("-" if args.output is None else args.output, exc)
    except (DomainError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:  # chain mc without numpy; any other module still raises
        if exc.name != "numpy":
            raise
        print("error: this command needs numpy, which is not installed (pip install numpy)",
              file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """Runs one command and returns its exit code once standard output is flushed.

    A flush that fails makes a successful run exit 1 with one ``error:`` line;
    a failed run has reported its own error already.
    """
    code = _command(argv)
    try:
        if sys.stdout is not None:  # None: descriptor 1 is closed, and nothing was due on it
            sys.stdout.flush()
    except OSError as exc:
        if code == 0:
            code = _write_error("-", exc)
    return code


def run() -> None:
    """The process entry point: :func:`main`, then ``os._exit`` with its code.

    Skipping the interpreter's finalization loses nothing: :func:`main` has
    flushed standard output, the ``--output`` file and the model and material
    files are closed by ``with``, and ``pump_cycle.simulate`` joins its worker
    threads before it returns.  An exception escaping :func:`main` exits the
    usual way, with its traceback.  Unless the user has set it,
    ``OPENBLAS_NUM_THREADS`` is 1: no command calls BLAS, and the idle pool
    numpy's OpenBLAS would start on import competes with ``chain mc``'s walkers.
    """
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    try:
        sys.stderr.flush()
    except OSError:  # nowhere left to report it
        pass
    os._exit(code)


if __name__ == "__main__":
    run()

"""Start-up contract: ``import ionlink`` is lazy, each command loads only its own
layer, and only the Monte Carlo (``chain mc``) loads numpy.

Each check runs in a fresh interpreter, since the test process itself has
long since imported numpy and every ionlink module.
"""

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import ionlink

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What ``from ionlink import *`` binds: the exported names and the modules.
STAR_NAMES = sorted("""
    BranchProbabilities BranchingModel ChainError ChainOutcome CollectionModel CollectionOptic
    ConversionStage CycleAmplitudes D_SHELVING DecayChannel DispersionModel DomainError
    EmissionDirection FiberChannel Level LightField LinkBudget MixKind NoCrossingError
    NoiseFinding NumericError Polarization PolarizationVector PumpCycleConfig SCHEMES STRONG
    SchemeSpec TrapConfig TwoQubitState WEAK ZeemanState allowed_decays atomic bad_state
    chain_efficiency collection_fraction conversion_crossing default_barium_model dfg_output
    double_excitation_probability emission end_to_end_rate entanglement_probability errors
    fiber fidelity fidelity_at_na geometric_branch_probabilities good_state link_rate
    load_dispersion load_model noise_audit pi_emission plan_stage polarization_overlap
    pseudopotential pump_cycle qfc qpm_residual reexcitation_mixture save_model
    scheme_comparison schemes secular_frequency sfg_output sigma_emission simulate solve_exact
    solve_poling_period standard_channel standard_conversion_table transmission trap
""".split())

TRAP = "trap --v0 200 --freq-mhz 20 --r-um 260 --eta 0.9 --mass-amu 138"

#: (argv, exit code, numpy loaded afterwards, the layers it loads), run in
#: this order in one process for the numpy column; each alone for the layers.
SCHEMES = ("atomic", "emission", "schemes")
QFC = ("data", "qfc")  # importlib.resources imports the bundled data directory
CHAIN_DEFAULT = ("atomic", "data", "pump_cycle")
COMMANDS = [
    ("--version", 0, False, QFC),
    (TRAP, 0, False, ("trap",)),
    ("schemes", 0, False, SCHEMES),
    ("schemes --output-format json", 0, False, SCHEMES),
    ("qfc plan --input-nm 650 --pump-nm 1343 --material ppln", 0, False, QFC),
    ("qfc table2", 0, False, QFC),
    ("fiber crossing", 0, False, ("fiber",)),
    ("fiber budget", 0, False, ("fiber",)),
    ("trap --v0 200", 2, False, ()),          # a missing required flag
    ("schemes --na banana", 2, False, ()),    # argparse's own usage error
    ("schemes --na 2", 1, False, SCHEMES),    # a domain error
    ("fiber crossing --output-format csv", 0, False, ("fiber",)),  # one-row records
    ("fiber budget --output-format csv", 0, False, ("fiber",)),
    *[(f"{table} --output-format {fmt}", 0, False, layers)  # every table export is plain Python
      for table, layers in (("emission pattern", ("emission",)), ("fiber curves", ("fiber",)),
                            ("fidelity-curve", SCHEMES), ("prob-curve", SCHEMES))
      for fmt in ("csv", "json")],
    # the 2x2 solve is plain Python; the default model is read from the bundled data directory
    *[(f"chain exact{flags}", 0, False, layers) for flags, layers in (
        ("", CHAIN_DEFAULT), (" --drive sigma-plus", CHAIN_DEFAULT),
        (" --model src/ionlink/data/ba138_branching.txt", ("atomic", "pump_cycle")))],
    ("chain mc --trials 10", 0, True, CHAIN_DEFAULT),  # the first command that does array work
]

#: What every command loads: the package, the CLI and the two modules it imports.
CLI_MODULES = ("ionlink", "ionlink._format", "ionlink.cli", "ionlink.errors")


def run_fresh(code: str, *argv: str):
    """Runs ``code`` in a new interpreter on this checkout with ``argv`` as
    ``sys.argv[1:]`` from the checkout's root; returns the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code), *argv], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_scalar_commands_and_package_import_never_load_numpy():
    report = run_fresh(f"""
        import contextlib, io, json, sys

        import ionlink
        report = {{"numpy_after_import": "numpy" in sys.modules,
                   "atomic": ionlink.atomic.__name__}}
        try:
            ionlink.no_such_name
        except AttributeError:
            report["unknown"] = "AttributeError"

        from ionlink.cli import main
        report["commands"] = []
        for argv, _, _, _ in {COMMANDS!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = main(argv.split())
            report["commands"].append([argv, code, "numpy" in sys.modules])

        from ionlink import simulate
        report["simulate"] = simulate is sys.modules["ionlink.pump_cycle"].simulate
        namespace = {{}}
        exec("from ionlink import *", namespace)
        report["star"] = sorted(set(namespace) - {{"__builtins__"}})
        print(json.dumps(report))
    """)
    assert report["numpy_after_import"] is False
    assert report["atomic"] == "ionlink.atomic"
    assert report.get("unknown") == "AttributeError"
    assert report["commands"] == [[argv, code, numpy] for argv, code, numpy, _ in COMMANDS]
    assert report["simulate"] is True
    assert len(STAR_NAMES) == 74
    assert report["star"] == STAR_NAMES


def test_every_exported_name_is_in_its_modules_all():
    for module, names in ionlink._EXPORTS.items():
        missing = set(names) - set(importlib.import_module(f"ionlink.{module}").__all__)
        assert not missing, module


def test_chain_commands_call_the_module_attributes_a_tracer_patches():
    """A tracer patches ``ionlink.pump_cycle`` after ``cli`` is loaded (``cli``
    imports it only when a chain command runs), and the ``_format`` functions
    where ``cli`` binds them; both routes must reach the patched functions."""
    report = run_fresh("""
        import contextlib, io, json, sys

        from ionlink import _format, cli
        report = {"pump_cycle_loaded": "ionlink.pump_cycle" in sys.modules,
                  "format": [name for name in ("render_csv", "render_json", "table_payload",
                                               "write_output")
                             if vars(cli).get(name) is getattr(_format, name)]}

        from ionlink import pump_cycle
        calls = []

        def patch(name):
            original = getattr(pump_cycle, name)

            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            setattr(pump_cycle, name, wrapper)

        patch("simulate")
        patch("solve_exact")
        codes = []
        for argv in (["chain", "mc", "--trials", "1000"], ["chain", "exact"]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        report.update(codes=codes, calls=calls)
        print(json.dumps(report))
    """)
    assert report["pump_cycle_loaded"] is False
    assert report["format"] == ["render_csv", "render_json", "table_payload", "write_output"]
    assert report["codes"] == [0, 0]
    assert report["calls"] == ["simulate", "solve_exact"]


def test_no_command_loads_dataclasses_and_only_numpy_loads_inspect():
    """The records need no ``dataclasses``, so a command that leaves numpy
    unloaded never loads ``inspect`` either; numpy itself imports it.  The
    commands run in one process, in order, so each check covers those before."""
    report = run_fresh(f"""
        import contextlib, io, json, sys

        from ionlink.cli import main
        loaded = []
        for argv, _, _, _ in {COMMANDS!r}:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(argv.split())
            loaded.append([argv, "dataclasses" in sys.modules, "inspect" in sys.modules])
        print(json.dumps(loaded))
    """)
    assert report == [[argv, False, numpy] for argv, _, numpy, _ in COMMANDS]


def test_monte_carlo_loads_neither_numpy_ma_nor_fractions():
    """``chain mc`` builds its decay table without ``np.unique`` (which loads
    ``numpy.ma``), and only the exact solve needs ``fractions``."""
    report = run_fresh("""
        import contextlib, io, json, sys

        from ionlink.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(["chain", "mc", "--trials", "10"])
        print(json.dumps([code, *(name in sys.modules
                                  for name in ("numpy", "numpy.ma", "fractions", "dataclasses"))]))
    """)
    assert report == [0, True, False, False, False]


@pytest.mark.parametrize("argv, code, numpy, layers", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_each_command_loads_only_its_own_layer(argv, code, numpy, layers):
    """A fresh ``ionlink <argv>`` loads the CLI and the import closure of its own
    layer, and no other: ``--version`` loads ``qfc``, a usage error no layer."""
    report = run_fresh("""
        import contextlib, io, json, sys

        from ionlink.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(sys.argv[1:])
        print(json.dumps([code, "numpy" in sys.modules,
                          sorted(name for name in sys.modules if name.startswith("ionlink"))]))
    """, *argv.split())
    assert report == [code, numpy, sorted([*CLI_MODULES, *(f"ionlink.{m}" for m in layers)])]


def test_every_handler_calls_the_layer_functions_a_tracer_patches(tmp_path):
    """The benchmark's tracer patches every function ``perfbench/spans.py``
    names in ``ENTRY_POINTS`` once ``cli`` is loaded, before any handler has
    imported its layer; one command per handler must reach every patch."""
    model = tmp_path / "model.txt"
    report = run_fresh("""
        import contextlib, importlib, io, json, sys

        from ionlink import atomic, cli
        sys.path.insert(0, sys.argv[1])
        from spans import ENTRY_POINTS

        atomic.save_model(atomic.default_barium_model(), sys.argv[2])
        reached = set()

        def patch(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                reached.add(f"{module.__name__}.{name}")
                return original(*args, **kwargs)
            setattr(module, name, wrapper)

        for layer, names in ENTRY_POINTS.items():
            for name in names:
                patch(importlib.import_module(f"ionlink.{layer}"), name)
        codes = []
        for argv in (["--version"], ["schemes"], ["fidelity-curve"], ["prob-curve"],
                     ["chain", "exact", "--model", sys.argv[2]], ["chain", "mc", "--trials", "1000"],
                     ["trap", "--v0", "200", "--freq-mhz", "20", "--r-um", "260", "--eta", "0.9",
                      "--mass-amu", "138"],
                     ["qfc", "plan", "--input-nm", "650", "--pump-nm", "1343", "--material", "ppln"],
                     ["qfc", "table2"], ["fiber", "curves"], ["fiber", "crossing"],
                     ["fiber", "budget"], ["emission", "pattern"]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        entry_points = sorted(f"ionlink.{layer}.{name}"
                              for layer, names in ENTRY_POINTS.items() for name in names)
        print(json.dumps({"codes": codes, "reached": sorted(reached), "entry_points": entry_points}))
    """, str(ROOT / "perfbench"), str(model))
    assert report["codes"] == [0] * 13
    assert report["reached"] == report["entry_points"]

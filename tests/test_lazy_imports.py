"""Start-up contract: ``import ionlink`` is lazy, each command loads only its own
layer, only the Monte Carlo (``chain mc``) loads numpy, no command loads a module
of ``NEVER_LOADED``, and nothing but the Monte Carlo needs a third-party package:
without site-packages (``python -S``) every other command and demo runs, and the
golden ones write their golden bytes.

Each check runs in a fresh interpreter, since the test process itself has
long since imported numpy and every ionlink module.
"""

import hashlib
import importlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import textwrap
import tokenize
from pathlib import Path

import numpy
import pytest

import ionlink

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: What ``from ionlink import *`` binds: the exported names and the modules.
STAR_NAMES = sorted("""
    BranchingModel ChainOutcome CollectionModel ConversionStage D_SHELVING
    DecayChannel DispersionModel DomainError EmissionDirection FiberChannel Level LightField
    MixKind NoiseFinding NumericError Polarization PolarizationVector
    PumpCycleConfig SCHEMES STRONG SchemeSpec TrapConfig WEAK ZeemanState allowed_decays
    atomic chain_efficiency collection_fraction conversion_crossing default_barium_model
    dfg_output emission entanglement_probability errors fiber fidelity_at_na
    geometric_branch_probabilities link_rate load_dispersion load_model mixture_fidelity
    noise_audit pi_emission plan_stage polarization_overlap pseudopotential pump_cycle qfc
    qpm_residual save_model scheme_comparison schemes secular_frequency sfg_output
    sigma_emission simulate solve_exact solve_poling_period standard_channel
    standard_conversion_table transmission trap
""".split())

TRAP = "trap --v0 200 --freq-mhz 20 --r-um 260 --eta 0.9 --mass-amu 138"

#: (argv, exit code, numpy loaded afterwards, the layers it loads): what each
#: command may load, stated once; each row runs in its own ``python -S`` interpreter.
SCHEMES = ("emission", "schemes")  # no scheme needs the atomic model
QFC = ("qfc",)
CHAIN = ("atomic", "pump_cycle")
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
    # the 2x2 solve is plain Python
    *[(f"chain exact{flags}", 0, False, CHAIN)
      for flags in ("", " --drive sigma-plus", " --model src/ionlink/data/ba138_branching.txt")],
    ("chain mc --trials 10", 0, True, CHAIN),  # the first command that does array work
    ("chain mc --trials 200001 --threads 2", 0, True, CHAIN),  # several chunks, two threads
]

#: What every command loads: the package, the CLI and the two modules it imports.
CLI_MODULES = ("ionlink", "ionlink._format", "ionlink.cli", "ionlink.errors")

#: What no command loads.  The records need no ``dataclasses``; ``chain mc``
#: builds its decay table without ``np.unique`` (which loads ``numpy.ma``); the
#: exact solve is Cramer's rule over the entries' ``as_integer_ratio()``
#: integers (no ``fractions``); the Monte Carlo's worker threads are plain
#: ``threading.Thread``s (no ``concurrent.futures`` or ``logging``); and the
#: bundled data files are opened beside the modules, so the data directory is
#: never imported as a package.
NEVER_LOADED = ("dataclasses", "numpy.ma", "fractions", "concurrent.futures", "logging",
                "importlib.resources", "ionlink.data")
#: What a command loads only with numpy, which imports both (``typing`` as of numpy 2.4).
NUMPY_LOADS = ("inspect", "typing")

#: The directory numpy is imported from: site-packages, which ``python -S`` leaves out.
NUMPY_PATH = os.path.dirname(os.path.dirname(numpy.__file__))


def run_fresh(code: str, *argv: str, flags: tuple[str, ...] = (), path: tuple[str, ...] = ()):
    """Runs ``code`` in a new interpreter, started with the interpreter ``flags``,
    on this checkout (then ``path``) with ``argv`` as ``sys.argv[1:]`` from the
    checkout's root; returns the JSON it prints."""
    pythonpath = [str(SRC), os.environ.get("PYTHONPATH"), *path]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath)))
    done = subprocess.run([sys.executable, *flags, "-c", textwrap.dedent(code), *argv], env=env,
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_package_import_is_lazy_and_binds_every_export():
    report = run_fresh("""
        import json, sys

        import ionlink
        report = {"numpy_after_import": "numpy" in sys.modules,
                  "atomic": ionlink.atomic.__name__}
        try:
            ionlink.no_such_name
        except AttributeError:
            report["unknown"] = "AttributeError"

        from ionlink import simulate
        report["simulate"] = simulate is sys.modules["ionlink.pump_cycle"].simulate
        namespace = {}
        exec("from ionlink import *", namespace)
        report["star"] = sorted(set(namespace) - {"__builtins__"})
        print(json.dumps(report))
    """)
    assert report["numpy_after_import"] is False
    assert report["atomic"] == "ionlink.atomic"
    assert report.get("unknown") == "AttributeError"
    assert report["simulate"] is True
    assert len(STAR_NAMES) == 62
    assert report["star"] == STAR_NAMES


def test_every_exported_name_is_in_its_modules_all():
    for module, names in ionlink._EXPORTS.items():
        missing = set(names) - set(importlib.import_module(f"ionlink.{module}").__all__)
        assert not missing, module


#: Where an exported name counts as used: the command line, the demos, the
#: README, the acceptance suite and the benchmark.
USER_SOURCES = ("src/ionlink/cli.py", "demos/*.py", "README.md", "tests/test_acceptance.py",
                "perfbench/*.py", "perfbench/*.md")


def code_names(path: Path) -> set[str]:
    """The names a user source writes as code: a Python file's NAME tokens,
    so neither strings nor comments count, and a Markdown file's words in
    fenced code blocks, so prose does not."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".py":
        return {token.string for token in tokenize.generate_tokens(io.StringIO(text).readline)
                if token.type == tokenize.NAME}
    return set(re.findall(r"\w+", "".join(re.findall(r"^```.*\n((?:.*\n)*?)```", text, re.M))))


#: Exports that no user source names, each a type that a named export
#: takes, returns or raises: the type, then that export.
TYPES_OF_USED_CALLABLES = {
    "ConversionStage": "plan_stage",             # returned, with the noise findings
    "DecayChannel": "allowed_decays",            # returned, one per channel
    "DispersionModel": "load_dispersion",        # returned
    "NoiseFinding": "noise_audit",               # returned, one per finding
    "PolarizationVector": "pi_emission",         # returned, as by sigma_emission
    "SchemeSpec": "entanglement_probability",    # taken, as D_SHELVING, WEAK and STRONG are
}


def test_every_export_has_a_user():
    """Each name ``ionlink`` exports is named in the code of a user source, or
    is listed above as the type of a name that is; a listed type that gains a
    user leaves the list."""
    used = set().union(*(code_names(path) for pattern in USER_SOURCES
                         for path in ROOT.glob(pattern)))
    named = set(ionlink._MODULE_OF) & used
    assert sorted(set(ionlink._MODULE_OF) - named - set(TYPES_OF_USED_CALLABLES)) == []
    assert sorted(named & set(TYPES_OF_USED_CALLABLES)) == []
    for name, user in TYPES_OF_USED_CALLABLES.items():
        assert isinstance(getattr(ionlink, name), type), name
        assert user in named, user


GOLDEN = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
DEMO_GOLDEN = json.loads((ROOT / "tests" / "demo_golden.json").read_text())
#: Every demo but 03, which runs the Monte Carlo (``tests/test_demos.py`` runs it).
DEMOS_WITHOUT_NUMPY = sorted(set(DEMO_GOLDEN) - {"03_pump_cycle_oracle.py"})
NOTHING = hashlib.sha256(b"").hexdigest()


@pytest.fixture(scope="module")
def without_numpy(tmp_path_factory):
    """What one ``python -S`` interpreter, so one without site-packages, with
    numpy blocked should ``PYTHONPATH`` reach one, reports after ``from ionlink
    import *``: the exit code, stdout and ``FILE`` digests and stderr of each
    golden argv, the stdout digest of each demo of ``DEMOS_WITHOUT_NUMPY``, and
    the modules of ``NEVER_LOADED`` and ``NUMPY_LOADS`` it loaded."""
    return run_fresh("""
        import contextlib, hashlib, io, json, sys

        sys.modules["numpy"] = None  # ``import numpy`` now raises ModuleNotFoundError
        exec("from ionlink import *", {})
        from ionlink.cli import main

        def sha(data):
            return hashlib.sha256(data).hexdigest()

        golden, target, watched, *demos = sys.argv[1:]
        cases = {}
        for case in json.load(open(golden)):
            argv = [target if word == "FILE" else word for word in case.split()]
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                try:
                    code = main(argv)
                except Exception as exc:  # an uncaught error fails the comparison
                    code = f"{type(exc).__name__}: {exc}"
            written = sha(open(target, "rb").read()) if case.endswith(" FILE") else None
            cases[case] = [code, sha(stdout.getvalue().encode()), written, stderr.getvalue()]
        printed = {}
        for name in demos:
            stdout = io.StringIO()
            # runs the demo as runpy.run_path would; run_path imports pkgutil, and so typing
            with open(f"demos/{name}", encoding="utf-8") as fh, contextlib.redirect_stdout(stdout):
                try:
                    exec(compile(fh.read(), f"demos/{name}", "exec"), {"__name__": "__main__"})
                    printed[name] = sha(stdout.getvalue().encode())
                except Exception as exc:  # fails that demo's comparison
                    printed[name] = f"{type(exc).__name__}: {exc}"
        print(json.dumps({"no_site": sys.flags.no_site, "blocked": sys.modules.get("numpy", 0) is None,
                          "loaded": [name for name in json.loads(watched) if name in sys.modules],
                          "cases": cases, "demos": printed}))
    """, "tests/cli_golden.json", str(tmp_path_factory.mktemp("golden") / "out"),
        json.dumps(NEVER_LOADED + NUMPY_LOADS), *DEMOS_WITHOUT_NUMPY, flags=("-S",))


def test_everything_but_the_monte_carlo_runs_without_numpy(without_numpy):
    """numpy is not a dependency, nor is any other third-party package; the
    tests below compare the bytes of each argv and demo without them."""
    assert without_numpy["no_site"] == 1
    assert without_numpy["blocked"] is True
    assert without_numpy["loaded"] == []
    assert sum(case.startswith("chain mc ") for case in GOLDEN) == 5


@pytest.mark.parametrize("case", list(GOLDEN))
def test_golden_argv_without_numpy(case, without_numpy):
    """Each golden argv but ``chain mc`` writes its golden bytes (to the file,
    for ``--output FILE``) and nothing else; ``chain mc`` exits 1 with one
    ``error:`` line naming numpy."""
    code, printed, written, stderr = without_numpy["cases"][case]
    if case.startswith("chain mc "):
        assert [code, printed, written] == [1, NOTHING, None]
        assert stderr.startswith("error: ") and "numpy" in stderr and stderr.count("\n") == 1
    elif case.endswith(" FILE"):
        assert [code, printed, written, stderr] == [0, NOTHING, GOLDEN[case], ""]
    else:
        assert [code, printed, written, stderr] == [0, GOLDEN[case], None, ""]


@pytest.mark.parametrize("name", DEMOS_WITHOUT_NUMPY)
def test_demo_without_numpy(name, without_numpy):
    """Every demo but 03 prints its golden bytes."""
    assert without_numpy["demos"][name] == DEMO_GOLDEN[name]


#: One use of each name ``ionlink`` exports from ``schemes``, as an expression.
SCHEMES_EXPORT_CALLS = {
    "D_SHELVING": "D_SHELVING",
    "SCHEMES": "SCHEMES",
    "STRONG": "STRONG",
    "WEAK": "WEAK",
    "SchemeSpec": "SchemeSpec('x', 0.5, 0.5, 0.9)",
    "entanglement_probability": "entanglement_probability(D_SHELVING, 0.6, 'exact')",
    "fidelity_at_na": "fidelity_at_na(0.891, 0.6)",
    "mixture_fidelity": "mixture_fidelity(0.844, 0.103)",
    "scheme_comparison": "scheme_comparison(0.6)",
}


def test_every_schemes_export_runs_without_numpy():
    """With numpy blocked, each name ``ionlink`` exports from ``schemes`` is used
    and gives what it gives with numpy loaded, and none loads ``atomic``."""
    assert sorted(SCHEMES_EXPORT_CALLS) == sorted(ionlink._EXPORTS["schemes"])
    report = run_fresh("""
        import json, sys

        sys.modules["numpy"] = None  # ``import numpy`` now raises ModuleNotFoundError
        import ionlink
        namespace = {name: getattr(ionlink, name) for name in ionlink._EXPORTS["schemes"]}
        print(json.dumps([{name: repr(eval(expression, namespace))
                           for name, expression in json.loads(sys.argv[1]).items()},
                          "ionlink.atomic" in sys.modules]))
    """, json.dumps(SCHEMES_EXPORT_CALLS))
    namespace = {name: getattr(ionlink, name) for name in ionlink._EXPORTS["schemes"]}
    assert report == [{name: repr(eval(expression, namespace))
                       for name, expression in SCHEMES_EXPORT_CALLS.items()}, False]


@pytest.mark.parametrize("argv, code, with_numpy, layers", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_each_command_loads_only_its_own_layer(argv, code, with_numpy, layers):
    """A fresh ``ionlink <argv>`` under ``python -S`` loads the CLI and the import
    closure of its own layer, and no other: ``--version`` loads ``qfc``, a usage
    error no layer.  Only a row that loads numpy finds site-packages, after the
    checkout, so every other row also runs without any third-party package.
    No row loads a module of ``NEVER_LOADED``, and one of ``NUMPY_LOADS`` only
    with numpy: ``inspect`` exactly then, ``typing`` unpinned."""
    report = run_fresh("""
        import contextlib, io, json, sys

        from ionlink.cli import main
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(sys.argv[2:])
        print(json.dumps([code, "numpy" in sys.modules,
                          [name for name in json.loads(sys.argv[1]) if name in sys.modules],
                          sorted(name for name in sys.modules if name.startswith("ionlink"))]))
    """, json.dumps(NEVER_LOADED + NUMPY_LOADS), *argv.split(), flags=("-S",),
        path=(NUMPY_PATH,) if with_numpy else ())
    exit_code, numpy_loaded, loaded, modules = report
    assert [exit_code, numpy_loaded] == [code, with_numpy]
    assert modules == sorted([*CLI_MODULES, *(f"ionlink.{m}" for m in layers)])
    assert [name for name in loaded if not (with_numpy and name == "typing")] == (
        ["inspect"] if with_numpy else [])


def test_every_handler_calls_the_layer_functions_a_tracer_patches(tmp_path):
    """The benchmark's tracer patches every function ``perfbench/spans.py``
    names in ``ENTRY_POINTS`` once ``cli`` is loaded, before any handler has
    imported its layer, and the ``FORMAT_FUNCTIONS`` where ``cli`` binds them;
    one command per handler, and one JSON table, must reach every patch.

    The tracer counts what a generator function yields, but calls ``len()`` on
    a plain function's result, so the layer functions behind the large tables
    stay generator functions.  The default test run does not collect
    ``perfbench/``."""
    for fn in (ionlink.emission.pattern_rows, ionlink.fiber.transmission_curves,
               ionlink.schemes.fidelity_curve, ionlink.schemes.probability_curve):
        assert inspect.isgeneratorfunction(fn), fn.__qualname__
    model = tmp_path / "model.txt"
    report = run_fresh("""
        import contextlib, importlib, io, json, sys

        from ionlink import atomic, cli
        sys.path.insert(0, sys.argv[1])
        from spans import ENTRY_POINTS, FORMAT_FUNCTIONS

        atomic.save_model(atomic.default_barium_model(), sys.argv[2])
        loaded = sorted(name for name in sys.modules if name.startswith("ionlink"))
        reached = set()

        def patch(module, name, span):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                reached.add(span)
                return original(*args, **kwargs)
            setattr(module, name, wrapper)

        targets = [(importlib.import_module(f"ionlink.{layer}"), layer, name)
                   for layer, names in ENTRY_POINTS.items() for name in names]
        targets += [(cli, "format", name) for name in FORMAT_FUNCTIONS]
        spans = sorted(f"{layer}.{name}" for _, layer, name in targets)
        for module, layer, name in targets:
            patch(module, name, f"{layer}.{name}")
        codes = []
        for argv in (["--version"], ["schemes", "--output-format", "json"], ["fidelity-curve"],
                     ["prob-curve"], ["chain", "exact", "--model", sys.argv[2]],
                     ["chain", "mc", "--trials", "1000"],
                     ["trap", "--v0", "200", "--freq-mhz", "20", "--r-um", "260", "--eta", "0.9",
                      "--mass-amu", "138"],
                     ["qfc", "plan", "--input-nm", "650", "--pump-nm", "1343", "--material", "ppln"],
                     ["qfc", "table2"], ["fiber", "curves"], ["fiber", "crossing"],
                     ["fiber", "budget"], ["emission", "pattern"]):
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
        print(json.dumps({"loaded": loaded, "codes": codes, "reached": sorted(reached),
                          "spans": spans}))
    """, str(ROOT / "perfbench"), str(model))
    assert report["loaded"] == sorted([*CLI_MODULES, "ionlink.atomic"])
    assert report["codes"] == [0] * 13
    assert report["reached"] == report["spans"]

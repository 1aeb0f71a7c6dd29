"""Golden corpus for the command-line output bytes.

``cli_golden.json`` maps an argv (space-separated) to the SHA-256 of the
bytes it writes, recorded from the per-point emission loop, the per-row
fiber loop and the per-cell CSV / ``json.dumps(indent=2)`` renderers that
the array kernels and block renderers replaced.  Any rewrite of the
kernels or of ``_format`` must reproduce every digest; never regenerate
the file to make new code pass.  New argv are appended, recorded by the
code they pin before any change to it.

It is the one statement of what each command prints.  Every leaf
subcommand is covered in CSV and JSON (emission patterns at 0.5x1, 1x2,
default and 7x13 degree steps; fiber curves at 200 km / 0.01 km, at an odd
grid and at the defaults; both NA curves at a 1e-4 step for every scheme
and both collection models; ``schemes`` including the na=0.6 footnote;
``qfc table2``; every record command), every option of every leaf is used
by one of its argv, and each leaf runs once with ``--config
tests/golden.conf`` and no ``--output-format``, which pins its default
format and its config path.  Argv entries with ``FILE`` write to
``--output FILE``; their digest is of the file.  Argv name files relative
to the checkout's root, where they run.

Each digest is compared in one test.  The ``chain mc`` argv run here,
in-process; every other argv runs without numpy, under ``python -S``, in
``tests/test_lazy_imports.py::test_golden_argv_without_numpy``.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ionlink import cli
from ionlink.cli import main
from test_cli import subcommands

GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())
ROOT = Path(__file__).resolve().parent.parent

#: Leaf options that need no golden argv, by ``dest``, each with where its bytes are pinned.
EXEMPT = {
    "help": "HELP_DIGESTS in tests/test_cli.py pins each leaf's --help bytes",
    "output": "write_output serves every leaf alike, and the two FILE argv pin it",
}


def test_every_leaf_option_has_a_golden_argv():
    """Each leaf is in the corpus in CSV and in JSON, and each of its option
    strings is given, as ``--flag value`` or ``--flag=value``, by one of its argv."""
    argv_of = {}
    for case in GOLDEN:
        words = case.split()
        n_words = next(i for i, word in enumerate(words) if word.startswith("--"))
        argv_of.setdefault(" ".join(words[:n_words]), []).append(words[n_words:])
    unpinned = []
    for leaf, parser in subcommands(cli._build_parser()):
        if parser.get_default("_run") is None:  # the top level or a group
            continue
        argvs = argv_of.get(leaf, [])
        pairs = {pair for argv in argvs for pair in zip(argv, argv[1:])}
        unpinned += [f"{leaf} --output-format {fmt}" for fmt in ("csv", "json")
                     if ("--output-format", fmt) not in pairs]
        for action in parser._actions:
            if action.dest in EXEMPT:
                continue
            unpinned += [f"{leaf} {option}" for option in action.option_strings
                         if not any(word == option or word.startswith(option + "=")
                                    for argv in argvs for word in argv)]
    assert unpinned == []


@pytest.mark.parametrize("case", [case for case in GOLDEN if case.startswith("chain mc ")])
def test_output_bytes_match_golden(case, monkeypatch):
    monkeypatch.chdir(ROOT)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(case.split()) == 0
    assert hashlib.sha256(stdout.getvalue().encode()).hexdigest() == GOLDEN[case]

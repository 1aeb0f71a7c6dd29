"""Golden corpus for the command-line output bytes.

``cli_golden.json`` maps an argv (space-separated) to the SHA-256 of the
bytes it writes, recorded from the per-point emission loop, the per-row
fiber loop and the per-cell CSV / ``json.dumps(indent=2)`` renderers that
the array kernels and block renderers replaced.  Any rewrite of the
kernels or of ``_format`` must reproduce every digest; never regenerate
the file to make new code pass.

Every tabular subcommand is covered in CSV and JSON (emission patterns at
0.5x1, 1x2, default and 7x13 degree steps; fiber curves at 200 km / 0.01
km, at an odd grid and at the defaults; both NA curves at a 1e-4 step for
every scheme and both collection models; ``schemes`` including the na=0.6
footnote; ``qfc table2``), and so is every record command.  Argv entries
with ``FILE`` write to ``--output FILE``; their digest is of the file.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from ionlink.cli import main

GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def test_corpus_covers_every_subcommand_in_both_formats():
    covered = set()
    for case in GOLDEN:
        argv = case.split()
        words = [w for w in argv[:2] if not w.startswith("--")]
        fmt = argv[argv.index("--output-format") + 1] if "--output-format" in argv else None
        covered.add((" ".join(words), fmt))
    subcommands = {
        "schemes", "fidelity-curve", "prob-curve", "chain exact", "chain mc", "trap",
        "qfc plan", "qfc table2", "fiber curves", "fiber crossing", "fiber budget",
        "emission pattern",
    }
    for subcommand in subcommands:
        for fmt in ("csv", "json"):
            assert (subcommand, fmt) in covered


@pytest.mark.parametrize("case", list(GOLDEN))
def test_output_bytes_match_golden(case, tmp_path):
    target = tmp_path / "out"
    argv = [str(target) if word == "FILE" else word for word in case.split()]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    if "FILE" in case.split():
        assert stdout.getvalue() == ""
        data = target.read_bytes()
    else:
        data = stdout.getvalue().encode()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[case]

"""The process entry point: ``python -m ionlink.cli`` and the ``ionlink`` script
run ``cli.run``, which ends the process with ``os._exit`` once ``main`` has
flushed standard output.

Each child runs with ``PYTHONUNBUFFERED`` removed from its environment, so
standard output is block-buffered as in a normal shell and only the final
flush writes it; the failed-write cases also run with it set, where each
write fails as it is made.  A case ending in `` >&-`` runs with descriptor 1
closed, where Python sets ``sys.stdout`` to None.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ionlink.cli import main

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

CASES = [
    "schemes",                                                   # a CSV table to stdout
    "emission pattern --output-format json --output FILE",       # a JSON table to --output
    "fiber budget",                                              # a JSON record
    "--version",
    "schemes --help",
    "schemes --na 2",                                            # exit 1
    "trap --v0 200",                                             # exit 2, one usage line
    "schemes --na banana",                                       # exit 2, argparse's usage
    "chain mc --trials 200001 --threads 2",                      # worker threads
]

#: What every failed write prints, and nothing else: to ``/dev/full``, or to a
#: closed descriptor.
FULL = "error: cannot write '-': No space left on device\n"
CLOSED = "error: cannot write '-': Bad file descriptor\n"


def child_env(unbuffered: bool = False) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env["COLUMNS"] = "80"  # argparse wraps --help to it
    return env


def run_child(argv: list[str], stdout, unbuffered: bool = False) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "ionlink.cli", *argv], env=child_env(unbuffered),
                          stdout=stdout, stderr=subprocess.PIPE, timeout=120)


def run_closed(argv: list[str], unbuffered: bool = False) -> subprocess.CompletedProcess:
    """``run_child`` with descriptor 1 closed, as the shell's ``>&-`` closes it."""
    return subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "ionlink.cli",
                           *argv], env=child_env(unbuffered), stderr=subprocess.PIPE, timeout=120)


def file_bytes(path: Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


@pytest.mark.parametrize("case", CASES)
def test_process_prints_what_main_returns(case, tmp_path, monkeypatch):
    """Same stdout bytes, ``--output`` bytes, stderr and exit code as in-process ``main``."""
    child_file, inproc_file = tmp_path / "child.out", tmp_path / "main.out"
    child = run_child([str(child_file) if w == "FILE" else w for w in case.split()],
                      subprocess.PIPE)

    monkeypatch.setenv("COLUMNS", "80")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([str(inproc_file) if w == "FILE" else w for w in case.split()])

    assert child.returncode == code
    assert child.stdout == stdout.getvalue().encode()
    assert child.stderr.decode() == stderr.getvalue()
    assert file_bytes(child_file) == file_bytes(inproc_file)
    assert code != 0 or child.stdout or child_file.exists()  # a success wrote something


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("case", [
    "schemes", "chain exact",
    "--version", "schemes --help",  # written by argparse, which would drop the error
    "emission pattern",  # larger than the buffer: fails inside write_output, not at the flush
    "schemes >&-", "chain exact >&-", "--version >&-", "schemes --help >&-",
])
def test_write_failure_exits_1_with_one_line(case, unbuffered):
    if case.endswith(" >&-"):
        child, expected = run_closed(case.removesuffix(" >&-").split(), unbuffered), CLOSED
    else:
        with open("/dev/full", "w") as full:
            child, expected = run_child(case.split(), full, unbuffered), FULL
    assert (child.returncode, child.stderr.decode()) == (1, expected)


def test_closed_stdout_is_no_error_when_the_output_goes_to_a_file(tmp_path):
    child_file, inproc_file = tmp_path / "child.csv", tmp_path / "main.csv"
    child = run_closed(["schemes", "--output", str(child_file)])
    assert (child.returncode, child.stderr) == (0, b"")
    assert main(["schemes", "--output", str(inproc_file)]) == 0
    assert child_file.read_bytes() == inproc_file.read_bytes()


def test_closed_pipe_exits_1_with_one_line():
    """A reader that stops early, as ``| head -1`` does, is a failed write too."""
    child = subprocess.Popen([sys.executable, "-m", "ionlink.cli", "fiber", "curves", "--max-km", "10000"],
                             env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with child:
        assert child.stdout.readline().startswith(b"length_km,")
        child.stdout.close()
        stderr = child.stderr.read()
    assert (child.returncode, stderr.decode()) == (1, "error: cannot write '-': Broken pipe\n")

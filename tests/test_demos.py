"""Golden digests of the demos' standard output.

``demo_golden.json`` maps each script in ``demos/`` to the SHA-256 of what
it prints.  Every demo is deterministic (the Monte Carlo ones are seeded),
so a changed digest means a changed number or message; never regenerate the
file to make new code pass.  Demo 03 runs the Monte Carlo, so it runs here as
a script; the other five print their golden bytes without numpy, under
``python -S``, in ``tests/test_lazy_imports.py::test_demo_without_numpy``.
The README's library examples must run too.
"""

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(Path(__file__).with_name("demo_golden.json").read_text())


def test_demo_03_prints_its_golden_bytes():
    assert sorted(GOLDEN) == sorted(path.name for path in (ROOT / "demos").glob("*.py"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / "03_pump_cycle_oracle.py")],
                          env=env, capture_output=True, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN["03_pump_cycle_oracle.py"]


def test_readme_library_examples_run():
    """Each ``python`` block of the README runs, in order, in one namespace."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        for block in blocks:
            exec(compile(block, "README.md", "exec"), namespace)
    assert "SRS_RISK" in out.getvalue()

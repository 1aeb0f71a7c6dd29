"""Golden digests of the demos' standard output.

``demo_golden.json`` maps each script in ``demos/`` to the SHA-256 of what
it prints.  Every demo is deterministic (the Monte Carlo ones are seeded),
so a changed digest means a changed number or message; never regenerate the
file to make new code pass.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = json.loads(Path(__file__).with_name("demo_golden.json").read_text())


def test_every_demo_prints_its_golden_bytes():
    demos = sorted(path.name for path in (ROOT / "demos").glob("*.py"))
    assert sorted(GOLDEN) == demos
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    digests = {}
    for name in demos:
        done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                              capture_output=True, timeout=300)
        assert done.returncode == 0, done.stderr.decode()
        digests[name] = hashlib.sha256(done.stdout).hexdigest()
    assert digests == GOLDEN

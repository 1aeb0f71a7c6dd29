"""Cold-process benchmark of the ``ionlink`` command-line tool.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mc-scaling --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the workload as a closed loop from this one process:
one fresh ``python -m ionlink.cli`` child at a time, the next started when
the previous one has exited, passes over the seeded command list repeated
until ``--seconds`` have elapsed.  It reports the end-to-end metrics.

``--trace 1`` runs the same command list in-process through
``ionlink.cli.main``, alternating untraced passes with passes whose layer
calls are wrapped by :mod:`spans`, and reports per-layer metrics and the
tracing overhead.  Import times come from ``python -X importtime``.

Every output is checked by the workload's oracle.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the metric names and units listed in
``BENCHMARK.json`` are the ones printed there.  Full results, the
environment and the spans go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 7       # fresh `ionlink --version` processes per run
IMPORTTIME_SAMPLES = 5  # `python -X importtime` processes per traced run
CHILD_TIMEOUT_S = 150


def load_ionlink():
    """Import ``ionlink`` from this checkout's ``src`` and return ``ionlink.cli``."""
    sys.path.insert(0, str(SRC))
    try:
        import ionlink
        import ionlink.cli
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import ionlink from {SRC}: {exc}") from exc
    expected = SRC / "ionlink" / "__init__.py"
    if Path(ionlink.__file__).resolve() != expected:
        raise SystemExit(f"perfbench: imported {ionlink.__file__}, expected {expected}")
    return ionlink.cli


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def check_child_import(launcher: "Launcher") -> str:
    """Children must import the checkout's ``ionlink``, not an installed copy."""
    outcome = launcher.run([], python_args=("-c", "import ionlink; print(ionlink.__file__)"))
    found = outcome.stdout.decode("utf-8", "replace").strip()
    expected = SRC / "ionlink" / "__init__.py"
    if outcome.code != 0 or Path(found).resolve() != expected:
        raise SystemExit(f"perfbench: child imported ionlink from {found or 'nowhere'}, "
                         f"expected {expected}\n{outcome.stderr}")
    return found


def environment() -> dict[str, object]:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


# ---------------------------------------------------------------------------
# running one command
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    code: int
    stdout: bytes
    stderr: str
    wall_s: float
    rss_mb: float | None = None
    output: bytes = b""  # bytes of the --output file, if the command had one


class Launcher:
    """Runs fresh processes one at a time through ``spawn.py``, which stays small.

    See ``spawn.py`` for why children are not forked from this process.
    """

    def __init__(self, env: dict[str, str], workdir: Path):
        self.workdir = workdir
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawn.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT, env=env)

    def run(self, argv: list[str], output_file: str | None = None,
            python_args: tuple[str, ...] = ("-m", "ionlink.cli")) -> Outcome:
        out, err = self.workdir / "child.stdout", self.workdir / "child.stderr"
        request = {"argv": [sys.executable, *python_args, *argv], "stdout": str(out),
                   "stderr": str(err), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("perfbench: the process launcher exited")
        reply = json.loads(reply)
        return Outcome(reply["code"], out.read_bytes(), err.read_bytes().decode("utf-8", "replace"),
                       reply["wall_s"], reply["rss_mb"], _read_output(output_file))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


def run_inprocess(cli, argv: list[str], output_file: str | None = None, span=None) -> Outcome:
    """``cli.main(argv)`` with standard output and error captured."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err), (span or nullcontext()):
        try:
            code = cli.main(argv)
        except Exception:  # a child would die with a traceback and exit 1
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    return Outcome(code, out.getvalue().encode("utf-8"), err.getvalue(), wall,
                   output=_read_output(output_file))


def _read_output(path: str | None) -> bytes:
    if path is None:
        return b""
    try:
        data = Path(path).read_bytes()
    except OSError:
        return b""
    os.unlink(path)  # the next run must write it afresh
    return data


# ---------------------------------------------------------------------------
# the oracle
# ---------------------------------------------------------------------------


class Oracle:
    """Checks each outcome; output digests must agree for commands with one key.

    The first digest seen for a key is the expected one unless :meth:`expect`
    set it beforehand (from an in-process reference run).  Identical keys
    recur across passes and, for ``chain mc``, across ``--threads``, so the
    digest check covers "repeats across passes" and "threads do not change
    the bytes".
    """

    def __init__(self):
        self.expected: dict[str, str] = {}
        self._verified: set[tuple[str, str]] = set()

    def expect(self, key: str, digest: str) -> None:
        self.expected[key] = digest

    def problem(self, command, outcome: Outcome) -> str | None:
        if outcome.code != command.expect_code:
            return f"exit {outcome.code}, expected {command.expect_code}"
        if "Traceback" in outcome.stderr:
            return "traceback on stderr"
        if command.expect_code != 0:
            lines = outcome.stderr.strip().splitlines()
            if outcome.stdout:
                return "output on stdout from a failing command"
            if not lines or "error" not in lines[-1]:
                return "no error message on stderr"
            if len(lines) != 1 and not command.argparse_error:
                return f"{len(lines)}-line error message"
            return None
        if command.output_file and outcome.stdout:
            return "output on stdout despite --output"
        data = outcome.output if command.output_file else outcome.stdout
        digest = hashlib.sha256(data).hexdigest()
        expected = self.expected.setdefault(command.key, digest)
        if digest != expected:
            return f"output digest {digest[:12]} differs from expected {expected[:12]}"
        if command.check and (command.key, digest) not in self._verified:
            try:
                problem = command.check(data)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                problem = f"unreadable output: {exc!r}"[:200]
            if problem:
                return problem
            self._verified.add((command.key, digest))
        return None


@dataclass
class Record:
    """What a run keeps of one command once its output has been checked."""

    command: object
    wall_s: float
    rss_mb: float | None
    size: int  # output bytes, stdout plus --output file
    problem: str | None


def run_pass(commands, execute, oracle: Oracle) -> tuple[list[Record], float]:
    """Closed loop over one pass: each command starts when the last has ended."""
    records = []
    start = time.perf_counter()
    for command in commands:
        outcome = execute(command)
        records.append(Record(command, outcome.wall_s, outcome.rss_mb,
                              len(outcome.stdout) + len(outcome.output),
                              oracle.problem(command, outcome)))
    return records, time.perf_counter() - start


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, float, int] | None:
    """(value, percentile, n) at the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload: str, setup: list[float], passes: list[float],
               records: list[Record]) -> tuple[dict, dict]:
    """Metrics named in BENCHMARK.json, and the workload-specific extras."""
    walls = [r.wall_s for r in records]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(passes), "s"),
        "cmd_p50_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (max(r.rss_mb for r in records), "MB"),
    }
    failed = sum(r.problem is not None for r in records)
    extras = {
        "error_rate": (failed / len(records), f"ratio ({failed} failed of {len(records)})"),
        "setup_samples": (len(setup), "count"),
        "passes": (len(passes), "count"),
        "commands": (len(records), "count"),
    }
    if workload == "mc-scaling":
        for threads in (1, 2):
            mc = [r for r in records if r.command.threads == threads]
            if mc:
                extras[f"mc_traj_per_s_t{threads}"] = (
                    sum(r.command.trials for r in mc) / sum(r.wall_s for r in mc), "1/s")
    if workload == "grid-export":
        extras["export_mb_per_s"] = (sum(r.size for r in records) / 1e6 / sum(walls), "MB/s")
    if workload == "planner-session":
        found = tail(walls)
        if found:
            value, percentile, n = found
            extras["cmd_tail_s"] = (value, f"s (p{percentile:.1f} of {n})")
    return metrics, extras


def import_times(launcher: Launcher) -> dict[str, tuple[float, str]]:
    """Cumulative import time of ionlink, numpy and scipy, median of several processes."""
    samples: dict[str, list[float]] = {"ionlink": [], "numpy": [], "scipy": []}
    for _ in range(IMPORTTIME_SAMPLES):
        outcome = launcher.run([], python_args=("-X", "importtime", "-c", "import ionlink.cli"))
        if outcome.code != 0:
            raise SystemExit(f"perfbench: import of ionlink.cli failed:\n{outcome.stderr}")
        totals = parse_importtime(outcome.stderr)
        for package in samples:
            samples[package].append(totals.get(package, 0.0))
    return {f"import.{package}_s": (statistics.median(values), "s")
            for package, values in samples.items()}


def parse_importtime(text: str) -> dict[str, float]:
    """Seconds per top-level package, counting each package's outermost imports only."""
    entries = []  # (depth, module, cumulative seconds), children listed before parents
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|", 2)
        try:
            seconds = int(cumulative) / 1e6
        except ValueError:  # the header line
            continue
        module = name.strip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        entries.append((depth, module, seconds))
    parent = [None] * len(entries)
    waiting: dict[int, list[int]] = {}
    for i, (depth, _, _) in enumerate(entries):
        for child in waiting.pop(depth + 1, []):
            parent[child] = i
        waiting.setdefault(depth, []).append(i)
    totals: dict[str, float] = {}
    for i, (_, module, seconds) in enumerate(entries):
        package = module.split(".", 1)[0]
        if parent[i] is None or entries[parent[i]][1].split(".", 1)[0] != package:
            totals[package] = totals.get(package, 0.0) + seconds
    return totals


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def cold_run(workload, commands, cli, launcher, seconds):
    """Closed loop of fresh processes; returns (records, metrics, extras)."""
    setup = []
    for _ in range(1 + SETUP_SAMPLES):  # the first one warms the bytecode cache
        outcome = launcher.run(["--version"])
        if outcome.code != 0 or not outcome.stdout.startswith(b"ionlink "):
            raise SystemExit(f"perfbench: `ionlink --version` failed:\n{outcome.stderr}")
        setup.append(outcome.wall_s)
    setup = setup[1:]

    oracle = Oracle()
    for command in commands:
        if command.reference and command.key not in oracle.expected:
            reference = run_inprocess(cli, command.reference_argv())
            oracle.expect(command.key, hashlib.sha256(reference.stdout).hexdigest())

    def execute(command):
        return launcher.run(command.argv, command.output_file)

    records, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        pass_records, wall = run_pass(commands, execute, oracle)
        records += pass_records
        passes.append(wall)
    metrics, extras = end_to_end(workload, setup, passes, records)
    return records, metrics, extras


def traced_run(commands, cli, launcher, seconds, error_types):
    """Untraced and traced in-process passes in ABBA order; returns (records, metrics, extras, spans)."""
    metrics = import_times(launcher)
    oracle = Oracle()
    records, untraced, traced, summaries, all_spans = [], [], [], [], []

    def untraced_pass():
        pass_records, wall = run_pass(
            commands, lambda c: run_inprocess(cli, c.argv, c.output_file), oracle)
        records.extend(pass_records)
        untraced.append(wall)

    def traced_pass():
        tracer = spans.Tracer(error_types)
        ids = iter(range(len(commands)))
        with tracer.installed(cli):
            pass_records, wall = run_pass(
                commands,
                lambda c: run_inprocess(cli, c.argv, c.output_file, tracer.command(next(ids))),
                oracle)
        records.extend(pass_records)
        traced.append(wall)
        summaries.append(spans.summarize(tracer.spans))
        all_spans.append([asdict(s) for s in tracer.spans])

    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        order = (untraced_pass, traced_pass) if len(traced) % 2 == 0 else (traced_pass, untraced_pass)
        for run_one in order:
            run_one()

    metrics.update(spans.median_metrics(summaries))
    baseline = statistics.median(untraced[1:] or untraced)  # the first pass also warms caches
    overhead = statistics.median(traced) - baseline
    metrics["trace.overhead_pct"] = (100.0 * overhead / baseline, "%")
    extras = {
        "trace.overhead_s": (overhead, "s"),
        "untraced_pass_s": (baseline, "s"),
        "traced_pass_s": (statistics.median(traced), "s"),
        "passes": (len(traced), "count"),
    }
    return records, metrics, extras, all_spans


def selected(metrics: dict, names_units: list[tuple[str, str]]) -> dict:
    """The BENCHMARK.json metrics, in its order, with its units."""
    out = {}
    for name, unit in names_units:
        value, measured_unit = metrics[name]
        if measured_unit != unit:
            raise SystemExit(f"perfbench: {name} measured in {measured_unit}, declared {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None, small: bool = False) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = load_ionlink()
    import workloads  # imports ionlink, so only after load_ionlink()

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r} (known: {', '.join(workloads.NAMES)})")
    info = environment()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    launcher = Launcher(child_env(), workdir)
    try:
        info["ionlink"] = check_child_import(launcher)
        threads = sorted({1, min(2, int(info["nproc"]))})
        commands = workloads.build(args.workload, args.seed, workdir, threads, small=small)
        if args.trace:
            from ionlink.errors import DomainError, NumericError

            records, metrics, extras, span_log = traced_run(
                commands, cli, launcher, args.seconds, (DomainError, NumericError))
            declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        else:
            records, metrics, extras = cold_run(args.workload, commands, cli, launcher, args.seconds)
            span_log = None
            declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        result_metrics = selected(metrics, declared)
    finally:
        launcher.close()
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [r for r in records if r.problem is not None]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / "results").mkdir(exist_ok=True)
    (OUT / "results" / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extras}.items()},
        "failures": [{"argv": r.command.argv, "problem": r.problem} for r in failed],
    }, indent=1) + "\n", encoding="utf-8")
    if span_log is not None:
        with open(OUT / "results" / f"{stem}-spans.jsonl", "w", encoding="utf-8") as fh:
            for pass_index, pass_spans in enumerate(span_log):
                for span in pass_spans:
                    fh.write(json.dumps({"pass": pass_index, **span}) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    for r in failed[:20]:
        print(f"FAILED {' '.join(r.command.argv)}: {r.problem}")
    for name, (value, unit) in {**metrics, **extras}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

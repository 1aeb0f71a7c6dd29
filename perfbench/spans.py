"""Outside-in span tracer for the ionlink layers.

For the duration of a traced pass the tracer replaces the module attributes
through which ``ionlink.cli`` reaches each layer (``pump_cycle.simulate``,
``emission.pattern_rows``, ...) and the ``_format`` functions bound in
``cli``'s own namespace, with wrappers that record a span per call.
Nothing in the package is edited; the originals are restored afterwards.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: The functions ``cli`` calls in each layer.  Only these are wrapped:
#: wrapping a function a layer calls in its own inner loop (``emission.
#: pi_emission`` runs once per grid point) would charge the tracer's cost
#: to that layer.
ENTRY_POINTS = {
    "atomic": ("default_barium_model", "load_model"),
    "schemes": ("scheme_comparison", "fidelity_curve", "probability_curve"),
    "emission": ("pattern_rows",),
    "pump_cycle": ("solve_exact", "simulate"),
    "trap": ("secular_frequency",),
    "qfc": ("dispersion_data_version", "load_dispersion", "plan_stage", "standard_conversion_table"),
    "fiber": ("standard_channel", "transmission_curves", "conversion_crossing", "link_rate"),
}
#: ``_format`` functions, wrapped where ``cli`` binds them.  Their spans and
#: metrics are named ``format.*``: metric names must start with a letter.
FORMAT_FUNCTIONS = ("render_csv", "render_json", "table_payload", "write_output")

LAYERS = ("cli", *ENTRY_POINTS, "format")
#: Single functions whose share of the traced time is reported on its own.
FUNCTION_SHARES = (
    "pump_cycle.simulate", "pump_cycle.solve_exact", "emission.pattern_rows",
    "fiber.transmission_curves", "format.render_csv", "format.render_json",
    "format.write_output",
)
ROOT_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    command: int
    units: int = 0      # work done: trajectories, grid points, rows or bytes
    threads: int = 0    # workers, for pump_cycle.simulate
    error: bool = False

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _simulate_units(arguments, result):
    return arguments["n_trials"], arguments.get("workers", 1)


def _row_units(arguments, result):
    rows = result[1] if isinstance(result, tuple) else result
    return len(rows), 0


def _text_units(arguments, result):
    return len(result.encode("utf-8")), 0


#: Work counted per call, from the call's arguments and result.
_UNITS = {
    "pump_cycle.simulate": _simulate_units,
    "fiber.transmission_curves": _row_units,
    "schemes.scheme_comparison": _row_units,
    "schemes.fidelity_curve": _row_units,
    "schemes.probability_curve": _row_units,
    "format.render_csv": _text_units,
    "format.render_json": _text_units,
}


class Tracer:
    """Keeps spans in memory; :meth:`installed` routes the layer calls through it."""

    def __init__(self, error_types: tuple[type[BaseException], ...]):
        self.error_types = error_types
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, command: int | None = None) -> int:
        parent = self._stack[-1] if self._stack else None
        if command is None:
            command = self.spans[parent].command if parent is not None else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, command_id: int):
        """Root span around one ``cli.main`` call."""
        index = self._open(ROOT_SPAN, command_id)
        try:
            yield
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        units = _UNITS.get(name)
        signature = inspect.signature(fn)

        if inspect.isgeneratorfunction(fn):
            # The span covers exhausting the generator, not only creating it.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                index = self._open(name)
                count = 0
                try:
                    for item in fn(*args, **kwargs):
                        count += 1
                        yield item
                except self.error_types:
                    self.spans[index].error = True
                    raise
                finally:
                    self._close(index)
                    self.spans[index].units = count
            return generator_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except self.error_types:
                self.spans[index].error = True
                raise
            finally:
                self._close(index)
            if units is not None:
                arguments = signature.bind(*args, **kwargs).arguments
                self.spans[index].units, self.spans[index].threads = units(arguments, result)
            return result
        return wrapper

    @contextmanager
    def installed(self, cli):
        """Patch the layer entry points for the duration of the block."""
        targets = [(importlib.import_module(f"ionlink.{layer}"), layer, fn_name)
                   for layer, names in ENTRY_POINTS.items() for fn_name in names]
        targets += [(cli, "format", fn_name) for fn_name in FORMAT_FUNCTIONS]
        originals = [(module, fn_name, getattr(module, fn_name)) for module, _, fn_name in targets]
        try:
            for module, layer, fn_name in targets:
                setattr(module, fn_name, self._wrap(f"{layer}.{fn_name}", getattr(module, fn_name)))
            yield
        finally:
            for module, fn_name, original in originals:
                setattr(module, fn_name, original)


def summarize(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass: self-time shares, calls, errors, work."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start

    def self_time(i: int) -> float:
        return spans[i].end - spans[i].start - child_time[i]

    total = sum(s.end - s.start for s in spans if s.name == ROOT_SPAN)
    by_layer = dict.fromkeys(LAYERS, 0.0)
    by_name: dict[str, float] = {}
    calls = dict.fromkeys(LAYERS, 0)
    errors = dict.fromkeys(LAYERS, 0)
    for i, span in enumerate(spans):
        by_layer[span.layer] += self_time(i)
        by_name[span.name] = by_name.get(span.name, 0.0) + self_time(i)
        # a call *into* the layer: its caller is another layer
        if span.parent is None or spans[span.parent].layer != span.layer:
            calls[span.layer] += 1
            errors[span.layer] += span.error

    def share(seconds: float) -> float:
        return 100.0 * seconds / total if total else 0.0

    def rate(units: float, seconds: float) -> float:
        return units / seconds if seconds else 0.0

    def busy(*names: str) -> float:
        return sum(s.end - s.start for s in spans if s.name in names)

    def units(*names: str, threads: int | None = None) -> int:
        return sum(s.units for s in spans
                   if s.name in names and (threads is None or s.threads == threads))

    metrics: dict[str, tuple[float, str]] = {"cli.self_s": (by_layer["cli"], "s")}
    for layer in LAYERS:
        metrics[f"{layer}.self_pct"] = (share(by_layer[layer]), "%")
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        if layer != "cli":
            metrics[f"{layer}.errors"] = (errors[layer], "count")
    for name in FUNCTION_SHARES:
        metrics[f"{name}.self_pct"] = (share(by_name.get(name, 0.0)), "%")

    simulate = "pump_cycle.simulate"
    metrics["pump_cycle.trajectories"] = (units(simulate), "count")
    for threads in (1, 2):
        seconds = sum(s.end - s.start for s in spans if s.name == simulate and s.threads == threads)
        metrics[f"pump_cycle.traj_per_s_t{threads}"] = (
            rate(units(simulate, threads=threads), seconds), "1/s")
    pattern = "emission.pattern_rows"
    metrics["emission.points"] = (units(pattern), "count")
    metrics["emission.points_per_s"] = (rate(units(pattern), busy(pattern)), "1/s")
    metrics["fiber.rows"] = (units("fiber.transmission_curves"), "count")
    metrics["schemes.rows"] = (
        units("schemes.scheme_comparison", "schemes.fidelity_curve", "schemes.probability_curve"),
        "count")
    rendered = units("format.render_csv", "format.render_json")
    metrics["format.bytes"] = (rendered, "B")
    metrics["format.bytes_per_s"] = (
        rate(rendered, busy("format.render_csv", "format.render_json", "format.write_output")),
        "B/s")
    return metrics


def median_metrics(passes: list[dict[str, tuple[float, str]]]) -> dict[str, tuple[float, str]]:
    """Metric-wise median over several traced passes."""
    return {name: (statistics.median(p[name][0] for p in passes), unit)
            for name, (_, unit) in passes[0].items()}

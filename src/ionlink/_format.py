"""Deterministic CSV/JSON rendering shared by the command-line tools.

CSV cells use 6 significant digits; JSON numbers use Python's shortest
round-trip representation.  Both are stable across runs and platforms.
Neither carries NaN or infinity: a non-finite float raises
:class:`DomainError` with one message in both formats.

A table is its header and then its rows, ``_BLOCK`` rows at a time, with
the bytes of the per-cell renderers they replace (``csv.writer`` over
:func:`format_cell`, and ``json.dumps(indent=2)``, kept in
``tests/oracles.py`` as the reference).  A block whose rows are lists or
tuples of one width holding only exact ``float`` cells (every large grid,
and a one-row record of floats) is flattened row after row and rendered
through ``%``-templates, with no Python loop over its cells; the texts hold
nothing CSV quotes.  Each table picks how once, from its first such block.
When fewer than half of that block's cells are distinct (the emission grid
repeats its angles and intensities), the table keeps a memo of texts, each
distinct nonzero value formatted once (``0.0`` and ``-0.0``, equal but
printed differently, are formatted wherever they occur), cleared whenever
it holds ``_MEMO_CAP`` texts; a block's texts fill one template of all its
rows.  Otherwise (the fiber and NA curves, whose values rarely
repeat) one row template formats every cell, row by row.  Both give the
same bytes.  Any other block goes row by row through ``csv.writer``, or through
``json.dumps`` re-indented to the row's depth.  JSON tables are the
:func:`table_payload` type; any other payload is encoded by one
``json.dumps``.

Both renderers are generators that stream: a table's rows may be any
iterable, pulled ``_BLOCK`` at a time, and each block's text is yielded as
soon as it is rendered, so memory is bounded by the block rather than the
table.  The first text holds the header together with the first block, and
the last the closing text and footnotes; a record is one text.
:func:`write_output` writes each text as it arrives, and ``"".join(...)``
gives the whole document.  A non-finite cell in the first block, or in a
record, raises before anything is yielded, so nothing is written; one in a
later block would raise after earlier blocks were written.  The commands'
inputs are range-checked up front so that no table cell is non-finite
(``tests/test_cli.py`` pins that for every table subcommand).
"""

from __future__ import annotations

import csv
import errno
import io
import itertools
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator, Sequence

from .errors import DomainError

__all__ = ["format_cell", "render_csv", "render_json", "stdout", "table_payload", "write_output"]

#: Rows rendered per block.  A block's text is built and copied a few times
#: (template fill, concatenation with the text before it, encode): ~85 KB a
#: copy for 512 rows of the emission grid as JSON.  Formatting work does not
#: depend on it (the memo lives as long as the table), so it trades the
#: per-block overhead against those copies.  Measured on a 2-vCPU VM (peak
#: RSS and cold wall time of the 0.5 x 1 degree emission / 200 km fiber JSON
#: export, median of 7): 256 rows 15.61 / 15.25 MB, 359 / 216 ms; 512 15.63
#: / 15.38 MB, 296 / 205 ms; 1024 16.39 / 15.84 MB, 297 / 224 ms; 2048 17.44
#: / 18.47 MB, 320 / 224 ms; 4096 20.04 / 20.63 MB, 385 / 311 ms.  Over 6
#: alternating perfbench ``grid-export`` pairs (``BENCH_23.json``), 512 rows
#: against 1024 read peak RSS 15.75 against 16.47 MB (lower in 6 of 6), wall
#: time 1.96 against 1.86 s and median command 142 against 138 ms (3 of 6
#: each, both inside 1024's interquartile range of 190 and 11 ms).
_BLOCK = 512
#: Most texts a table's :class:`_Memo` holds before it starts over: ~100 KB.
#: The 0.5 x 1 degree emission grid has 2,361 distinct values in 779,760
#: cells, zero among them; at this cap it formats 4,918 texts of the 2,360
#: nonzero ones and each of its 1,441 zero cells, which costs well under a
#: millisecond more than a memo that never clears.
_MEMO_CAP = 1024
_NON_FINITE = "the result holds NaN or infinity, which neither CSV nor JSON output carries"


def _finite(values: Sequence[float]) -> Sequence[float]:
    if not all(map(math.isfinite, values)):
        raise DomainError(_NON_FINITE)
    return values


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.6g" % _finite((value,))
    return str(value)


def _blocks(rows: Iterable) -> Iterable[list]:
    it = iter(rows)
    while block := list(itertools.islice(it, _BLOCK)):
        yield block


def _float_cells(block: list) -> tuple | None:
    """The cells of a block, row after row, if its rows are lists or tuples of
    one nonzero width holding only exact ``float`` cells; ``None`` otherwise."""
    if not set(map(type, block)) <= {list, tuple} or len(set(map(len, block))) != 1:
        return None
    cells = tuple(itertools.chain.from_iterable(block))
    if not cells or list(map(type, cells)).count(float) != len(cells):
        return None  # including rows of width 0, which hold no cell
    return cells


def _memo_pays(cells: tuple) -> bool:
    """Whether a table whose first float block holds ``cells`` repeats enough
    values for a memo to beat formatting every cell: fewer than half distinct."""
    return 2 * len(set(cells)) < len(cells)


class _Memo(dict):
    """The texts of one table's floats, keyed by value, each rendered once until
    ``_MEMO_CAP`` are held; then the memo starts over, so memory stays bounded.

    A zero is rendered each time it is looked up and never held: ``0.0`` and
    ``-0.0`` are equal keys, but print differently.
    """

    def __init__(self, cell: str):
        super().__init__()
        self.cell = cell

    def __missing__(self, value: float) -> str:
        if not math.isfinite(value):
            raise DomainError(_NON_FINITE)
        if not value:
            return self.cell % value
        if len(self) >= _MEMO_CAP:
            self.clear()
        text = self[value] = self.cell % value
        return text


#: How a format frames rows of cell texts: (row start, cell separator, row
#: end, row separator).  A CSV float text holds nothing csv would quote; a
#: JSON row reads as :func:`_dumps` encodes it at depth 2.
_CSV_FRAME = ("", ",", "\n", "")
_JSON_FRAME = ("[\n      ", ",\n      ", "\n    ]", ",\n    ")


class _FloatBlocks:
    """Renders the all-float blocks of one table, ``cell`` being the ``%``-spec
    of one float.  The table's first such block picks the strategy for all
    of them (:func:`_memo_pays`): the texts of a :class:`_Memo` held for the
    whole table fill ``%s`` cells of one template of the block's rows, or
    the floats themselves fill ``cell`` cells of one row template, row by
    row, and the rows are joined.  Both give the same bytes.

    Filling a whole block of floats at once reads faster, but its output
    string grows by ``realloc`` and fragments the heap: ``prob-curve`` at
    2^20 rows in JSON peaked at 24.4 MB against 15.7 MB row by row.  The
    memo's ``%s`` fill of the emission grid stays flat (15.6 / 16.0 MB in
    CSV / JSON, the 0.5 x 1 degree grid) and is faster than joining rows.
    """

    def __init__(self, cell: str, frame: tuple[str, str, str, str]):
        self.cell, self.frame = cell, frame
        self.memo = None  # a _Memo, or False for the template; None until chosen

    def __call__(self, block: list) -> str | None:
        """The text of ``block``; ``None`` for a block that is not all floats."""
        cells = _float_cells(block)
        if cells is None:
            return None
        if self.memo is None:
            self.memo = _Memo(self.cell) if _memo_pays(cells) else False
        start, sep, end, between = self.frame
        width = len(block[0])
        if self.memo is False:  # one row at a time: see the class docstring
            row = start + sep.join([self.cell] * width) + end
            return between.join(map(row.__mod__, zip(*[iter(_finite(cells))] * width)))
        row = start + sep.join(["%s"] * width) + end
        return between.join([row] * len(block)) % tuple(map(self.memo.__getitem__, cells))


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def render_csv(columns: Sequence[str], rows: Iterable[Sequence],
               footnotes: Sequence[str] = ()) -> Iterator[str]:
    text = _csv_text([columns])  # held back until the first block is ready
    floats = _FloatBlocks("%.6g", _CSV_FRAME)
    for block in _blocks(rows):
        rendered = floats(block)
        if rendered is None:
            rendered = _csv_text([format_cell(v) for v in row] for row in block)
        yield text + rendered
        text = ""
    yield text + "".join(f"# {note}\n" for note in footnotes)


class _Table(dict):
    """A ``columns``/``rows``[/``footnotes``] payload; its rows may be any iterable."""


def _dumps(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads nested ``depth`` levels deep."""
    try:
        text = json.dumps(value, indent=2, allow_nan=False)
    except ValueError as exc:  # a non-finite float, refused as json refuses it
        raise DomainError(_NON_FINITE) from exc
    return text.replace("\n", "\n" + "  " * depth)


def render_json(payload) -> Iterator[str]:
    if not isinstance(payload, _Table):
        yield _dumps(payload, 0) + "\n"
        return
    text = ""  # held back until the next block is ready
    for i, (key, value) in enumerate(payload.items()):
        text += f"{',' if i else '{'}\n  {json.dumps(key)}: "
        if key != "rows":
            text += _dumps(value, 1)
            continue
        separator, floats = "[\n    ", _FloatBlocks("%r", _JSON_FRAME)
        for block in _blocks(value):
            rendered = floats(block)
            if rendered is None:
                rendered = ",\n    ".join(_dumps(row, 2) for row in block)
            yield text + separator + rendered
            text, separator = "", ",\n    "
        text += "[]" if separator == "[\n    " else "\n  ]"
    yield text + "\n}\n"


def table_payload(columns: Sequence[str], rows: Iterable[Sequence], footnotes: Sequence[str] = ()) -> dict:
    payload = _Table(columns=list(columns), rows=rows)
    if footnotes:
        payload["footnotes"] = list(footnotes)
    return payload


def stdout():
    """``sys.stdout``, or, where Python has left it ``None`` because descriptor 1
    is closed, the ``OSError`` a write to that descriptor raises."""
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def write_output(chunks: Iterable[str], path: str | None) -> None:
    """Writes ``chunks`` as they come.  ``path`` is opened only once the first
    chunk is ready, so a run that fails before then leaves no file behind."""
    chunks = iter(chunks)
    first = next(chunks, "")
    if path is None or path == "-":
        stdout().writelines(itertools.chain((first,), chunks))
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(itertools.chain((first,), chunks))

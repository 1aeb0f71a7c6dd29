"""Deterministic CSV/JSON rendering shared by the command-line tools.

CSV cells use 6 significant digits; JSON numbers use Python's shortest
round-trip representation.  Both are stable across runs and platforms.
Neither carries NaN or infinity: a non-finite float raises
:class:`DomainError` with one message in both formats.

A table is its header and then its rows, ``_BLOCK`` rows at a time, with
the bytes of the per-cell renderers they replace (``csv.writer`` over
:func:`format_cell`, and ``json.dumps(indent=2)``, kept in
``tests/oracles.py`` as the reference).  A block whose cells are all
exact ``float`` (every large grid, and a one-row record of floats) is
rendered column-wise: each distinct value of a column is formatted once
(``0.0`` and ``-0.0``, equal but printed differently, once each), and
the texts, which hold nothing CSV quotes, are joined directly.  Any other
block goes row by row through ``csv.writer``, or through ``json.dumps``
re-indented to the row's depth.  JSON tables are the :func:`table_payload`
type; any other payload is encoded by one ``json.dumps``.

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
import io
import itertools
import json
import math
import sys
from typing import Iterable, Iterator, Sequence

from .errors import DomainError

__all__ = ["format_cell", "render_csv", "render_json", "table_payload", "write_output"]

#: Rows rendered per block.  A JSON block's text is built and copied about
#: four times (join, bracket and separator concatenation, encode): ~1.3 MB a
#: copy at 4096 rows of the 0.5 x 1 degree emission grid.  Measured on a
#: 2-vCPU VM over perfbench's 10 ``grid-export`` commands (peak RSS of the
#: emission / fiber JSON export; median in-process time of the 10):
#: 4096 rows 20.55 / 20.43 MB, 1.490 s; 2048 17.86 / 18.47 MB, 1.500 s;
#: 1024 15.99 / 16.23 MB, 1.559 s; 256 15.37 / 15.21 MB, 1.821 s.  Below
#: 1024 the per-block work (column dedup, joins) costs time and saves little.
_BLOCK = 1024
_NON_FINITE = "the result holds NaN or infinity, which neither CSV nor JSON output carries"


def _finite(values: list[float]) -> list[float]:
    if not all(map(math.isfinite, values)):
        raise DomainError(_NON_FINITE)
    return values


def _csv_floats(values: list[float]) -> list[str]:
    return list(map(format, _finite(values), itertools.repeat(".6g")))


def _json_floats(values: list[float]) -> list[str]:
    return list(map(float.__repr__, _finite(values)))


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _csv_floats([value])[0]
    return str(value)


def _blocks(rows: Iterable) -> Iterable[list]:
    it = iter(rows)
    while block := list(itertools.islice(it, _BLOCK)):
        yield block


def _float_texts(column: tuple, render_floats) -> list[str]:
    """Texts of an all-``float`` column: each distinct value is rendered once."""
    unique = list(dict.fromkeys(column))
    text_of = dict(zip(unique, render_floats(unique)))
    if 0.0 not in text_of:
        return list(map(text_of.__getitem__, column))
    # 0.0 == -0.0 share a key but print differently: choose by the sign
    zero, minus_zero = render_floats([0.0, -0.0])
    return [text_of[v] if v else (minus_zero if math.copysign(1.0, v) < 0.0 else zero)
            for v in column]


def _float_columns(block: list, render_floats) -> list[list[str]] | None:
    """Column texts of a block of rows, lists or tuples of one nonzero width
    holding only exact ``float`` cells; ``None`` for any other block."""
    if not set(map(type, block)) <= {list, tuple} or len(set(map(len, block))) != 1:
        return None
    if set(map(type, itertools.chain.from_iterable(block))) != {float}:
        return None  # including rows of width 0, which hold no cell
    return [_float_texts(column, render_floats) for column in zip(*block)]


def _csv_text(rows: Iterable[Sequence[str]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _csv_rows(block: list) -> str:
    texts = _float_columns(block, _csv_floats)
    if texts is None:
        return _csv_text([format_cell(v) for v in row] for row in block)
    return "\n".join(map(",".join, zip(*texts))) + "\n"  # nothing csv would quote


def render_csv(columns: Sequence[str], rows: Iterable[Sequence],
               footnotes: Sequence[str] = ()) -> Iterator[str]:
    text = _csv_text([columns])  # held back until the first block is ready
    for block in _blocks(rows):
        yield text + _csv_rows(block)
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


def _json_rows(block: list) -> str:
    """The rows of ``block`` as :func:`_dumps` encodes them at depth 2, comma-separated."""
    texts = _float_columns(block, _json_floats)
    if texts is None:
        return ",\n    ".join(_dumps(row, 2) for row in block)
    # a row is "[\n      a,\n      b\n    ]"
    cells = map(",\n      ".join, zip(*texts))
    return "[\n      " + "\n    ],\n    [\n      ".join(cells) + "\n    ]"


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
        separator = "[\n    "
        for block in _blocks(value):
            yield text + separator + _json_rows(block)
            text, separator = "", ",\n    "
        text += "[]" if separator == "[\n    " else "\n  ]"
    yield text + "\n}\n"


def table_payload(columns: Sequence[str], rows: Iterable[Sequence], footnotes: Sequence[str] = ()) -> dict:
    payload = _Table(columns=list(columns), rows=rows)
    if footnotes:
        payload["footnotes"] = list(footnotes)
    return payload


def write_output(chunks: Iterable[str], path: str | None) -> None:
    """Writes ``chunks`` as they come.  ``path`` is opened only once the first
    chunk is ready, so a run that fails before then leaves no file behind."""
    chunks = iter(chunks)
    first = next(chunks, "")
    if path is None or path == "-":
        sys.stdout.writelines(itertools.chain((first,), chunks))
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(itertools.chain((first,), chunks))

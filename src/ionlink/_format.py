"""Deterministic CSV/JSON rendering shared by the command-line tools.

CSV cells use 6 significant digits; JSON numbers use Python's shortest
round-trip representation.  Both are stable across runs and platforms.
JSON carries no NaN or infinity: a non-finite number raises
:class:`DomainError` on every path.

Tables are rendered ``_BLOCK`` rows at a time, and the block texts are
joined once at the end; no whole-table intermediate is built.  The bytes
are those of the per-cell renderers they replace (``csv.writer`` over
:func:`format_cell`, and ``json.dumps(indent=2)``; ``tests/oracles.py``
keeps both as the reference):

* A block whose cells are all exact ``float`` (every large grid) is
  rendered column-wise, each distinct 64-bit pattern of a column formatted
  once.  The key is the bit pattern, not the value: ``0.0 == -0.0`` print
  differently.  Other blocks, e.g. one mixing ``1``, ``1.0`` and
  ``True``, are rendered cell by cell.
* Float texts contain no character that CSV quotes, so float blocks are
  joined directly; every other block still goes through ``csv.writer``.
* JSON float rows are joined with the separators ``json.dumps`` uses at
  ``indent=2`` and encoded as it encodes floats (``float.__repr__``).  A
  table with any other block, and every non-table payload, goes through
  ``json.dumps`` itself.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError

__all__ = ["format_cell", "render_csv", "render_json", "table_payload", "write_output"]

#: Rows rendered per block: large enough to amortise the per-column numpy
#: calls, small enough that a block's cell strings stay within a few MB.
_BLOCK = 4096
_NON_FINITE = ("the result holds NaN or infinity, which JSON cannot represent "
               "(--output-format csv prints it)")


def format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


def _csv_floats(values: list[float]) -> list[str]:
    return list(map(format, values, itertools.repeat(".6g")))


def _json_floats(values: list[float]) -> list[str]:
    if not all(map(math.isfinite, values)):
        raise ValueError(values)  # as json.dumps(allow_nan=False) refuses them
    return list(map(float.__repr__, values))


def _blocks(rows: Iterable) -> Iterable[list]:
    it = iter(rows)
    while block := list(itertools.islice(it, _BLOCK)):
        yield block


def _float_texts(column: tuple, render_floats) -> list[str]:
    """Texts of an all-``float`` column: each distinct bit pattern is rendered once."""
    bits = np.array(column, dtype=np.float64).view(np.uint64)
    unique, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(render_floats(unique.view(np.float64).tolist()), dtype=object)
    return texts[inverse].tolist()


def _float_columns(block: list, render_floats) -> list[list[str]] | None:
    """Column texts of a block whose rows are lists or tuples of one nonzero
    width holding only exact ``float`` cells; ``None`` for any other block."""
    if not set(map(type, block)) <= {list, tuple} or len(set(map(len, block))) != 1:
        return None
    if set(map(type, itertools.chain.from_iterable(block))) != {float}:
        return None  # including rows of width 0, which hold no cell
    return [_float_texts(column, render_floats) for column in zip(*block)]


def render_csv(columns: Sequence[str], rows: Iterable[Sequence], footnotes: Sequence[str] = ()) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for block in _blocks(rows):
        texts = _float_columns(block, _csv_floats)
        if texts is None:
            writer.writerows([format_cell(v) for v in row] for row in block)
        else:  # float texts hold no character csv would quote
            buf.write("\n".join(map(",".join, zip(*texts))) + "\n")
    for note in footnotes:
        buf.write(f"# {note}\n")
    return buf.getvalue()


def _json_table(payload) -> str | None:
    """``json.dumps(payload, indent=2)`` for a columns/rows[/footnotes] table
    whose rows are all exact floats; ``None`` for any other payload."""
    if not isinstance(payload, dict) or list(payload) not in (
            ["columns", "rows"], ["columns", "rows", "footnotes"]):
        return None
    rows = payload["rows"]
    if not isinstance(rows, (list, tuple)):
        return None

    def nested(value) -> str:  # a value encoded on its own, moved to depth 1
        return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n  ")

    parts = ['{\n  "columns": ', nested(payload["columns"]), ',\n  "rows": [']
    for i, block in enumerate(_blocks(rows)):
        texts = _float_columns(block, _json_floats)
        if texts is None:
            return None
        # a row is "[\n      a,\n      b\n    ]" and rows are apart by ",\n    "
        cells = map(",\n      ".join, zip(*texts))
        parts += [",\n    [\n      " if i else "\n    [\n      ",
                  "\n    ],\n    [\n      ".join(cells), "\n    ]"]
    parts.append("\n  ]" if rows else "]")
    if "footnotes" in payload:
        parts += [',\n  "footnotes": ', nested(payload["footnotes"])]
    parts.append("\n}\n")
    return "".join(parts)


def render_json(payload) -> str:
    try:
        text = _json_table(payload)
        if text is None:
            text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    except ValueError as exc:  # a non-finite float, refused as json refuses it
        raise DomainError(_NON_FINITE) from exc
    return text


def table_payload(columns: Sequence[str], rows: Iterable[Sequence], footnotes: Sequence[str] = ()) -> dict:
    payload = {"columns": list(columns), "rows": list(rows)}
    if footnotes:
        payload["footnotes"] = list(footnotes)
    return payload


def write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

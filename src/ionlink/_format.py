"""Deterministic CSV/JSON rendering shared by the command-line tools.

CSV cells use 6 significant digits; JSON numbers use Python's shortest
round-trip representation.  Both are stable across runs and platforms.
Neither carries NaN or infinity: a non-finite float raises
:class:`DomainError` with one message in both formats.

A table is its header and then its rows, ``_BLOCK`` rows at a time, with
the bytes of the per-cell renderers they replace (``csv.writer`` over
:func:`format_cell`, and ``json.dumps(indent=2)``, kept in
``tests/oracles.py`` as the reference).  A block of two or more rows
whose cells are all exact ``float`` (every large grid) is rendered
column-wise: each distinct 64-bit pattern of a column is formatted once
(the bit pattern, since ``0.0 == -0.0`` print differently), and the texts,
which hold nothing CSV quotes, are joined directly.  Any other block goes
row by row through ``csv.writer``, or through ``json.dumps`` re-indented to
the row's depth.  JSON tables are the :func:`table_payload` type; any other
payload is encoded by one ``json.dumps``.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import sys
from typing import Iterable, Sequence

from .errors import DomainError

__all__ = ["format_cell", "render_csv", "render_json", "table_payload", "write_output"]

#: Rows rendered per block: large enough to amortise the per-column numpy
#: calls, small enough that a block's cell strings stay within a few MB.
#: Numpy is imported by the first all-float block of two or more rows only:
#: ``schemes``, ``qfc table2`` and every one-row CSV record render without it.
_BLOCK = 4096
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
    """Texts of an all-``float`` column: each distinct bit pattern is rendered once."""
    import numpy as np

    bits = np.array(column, dtype=np.float64).view(np.uint64)
    unique, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(render_floats(unique.view(np.float64).tolist()), dtype=object)
    return texts[inverse].tolist()


def _float_columns(block: list, render_floats) -> list[list[str]] | None:
    """Column texts of a block of two or more rows, lists or tuples of one
    nonzero width holding only exact ``float`` cells; ``None`` for any other
    block (a single row has nothing to deduplicate)."""
    if (len(block) < 2 or not set(map(type, block)) <= {list, tuple}
            or len(set(map(len, block))) != 1):
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


class _Table(dict):
    """A ``columns``/``rows``[/``footnotes``] payload; its rows are a list."""


def _dumps(value, depth: int) -> str:
    """``json.dumps(value, indent=2)`` as it reads nested ``depth`` levels deep."""
    try:
        text = json.dumps(value, indent=2, allow_nan=False)
    except ValueError as exc:  # a non-finite float, refused as json refuses it
        raise DomainError(_NON_FINITE) from exc
    return text.replace("\n", "\n" + "  " * depth)


def _json_rows(rows: list) -> list[str]:
    """Parts of the text of ``rows`` as :func:`_dumps` encodes them at depth 1."""
    parts = []
    for block in _blocks(rows):
        texts = _float_columns(block, _json_floats)
        parts.append(",\n    " if parts else "[\n    ")
        if texts is None:
            parts.append(",\n    ".join(_dumps(row, 2) for row in block))
        else:  # a row is "[\n      a,\n      b\n    ]" and rows are apart by ",\n    "
            cells = map(",\n      ".join, zip(*texts))
            parts += ["[\n      ", "\n    ],\n    [\n      ".join(cells), "\n    ]"]
    return parts + ["\n  ]"] if parts else ["[]"]


def render_json(payload) -> str:
    if not isinstance(payload, _Table):
        return _dumps(payload, 0) + "\n"
    parts = []  # joined once: the text is not copied as it grows
    for key, value in payload.items():
        parts += [",\n  " if parts else "{\n  ", json.dumps(key), ": "]
        parts += _json_rows(value) if key == "rows" else [_dumps(value, 1)]
    return "".join(parts + ["\n}\n"])


def table_payload(columns: Sequence[str], rows: Iterable[Sequence], footnotes: Sequence[str] = ()) -> dict:
    payload = _Table(columns=list(columns), rows=list(rows))
    if footnotes:
        payload["footnotes"] = list(footnotes)
    return payload


def write_output(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)

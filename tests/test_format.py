"""Block renderers against the per-cell reference renderers.

``render_csv``/``render_json`` render a table ``_BLOCK`` rows at a time.  A
block of floats is rendered through a memo of texts held for the whole
table, or through one ``%``-template, whichever the table's first float
block picks; any other block goes row by row.  ``oracles.render_csv_per_cell``
and ``oracles.render_json_dumps`` are the ``csv.writer``/``json.dumps(indent=2)``
loops they replaced.  The property tests shrink the block size so that
tables cross block boundaries, and force each strategy in turn.  Both
renderers yield one text per block; ``"".join`` gives the document.
"""
import json
import math
import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ionlink import _format
from ionlink._format import render_csv, render_json, table_payload, write_output
from ionlink.errors import DomainError
from oracles import render_csv_per_cell, render_json_dumps

SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                  1.7976931348623157e308, math.inf, -math.inf, math.nan, 1.0, 0.1, 1e16)
floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_subnormal=True))
finite_floats = st.one_of(
    st.sampled_from([x for x in SPECIAL_FLOATS if math.isfinite(x)]),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
)
texts = st.text(alphabet=st.sampled_from(list(',"\n\r \'#ab0.-é€😀\t\\')), max_size=6)
scalars = st.one_of(
    floats,
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
    st.none(),
    texts,
    floats.map(np.float64),
)
cells = st.one_of(scalars, st.lists(st.integers(0, 3), max_size=2))


MIXED_KINDS = (floats, finite_floats, st.booleans(), st.integers(-3, 3), texts, scalars, cells)


@st.composite
def tables(draw, kinds=MIXED_KINDS):
    """Columns, rows and footnotes; each column holds one kind of cell."""
    width = draw(st.integers(0, 4))
    kinds = [draw(st.sampled_from(kinds)) for _ in range(width)]
    n_rows = draw(st.integers(0, 12))
    rows = [tuple(draw(kind) for kind in kinds) for _ in range(n_rows)]
    if rows and draw(st.integers(0, 4)) == 0:  # a ragged or empty row
        rows.insert(draw(st.integers(0, len(rows))), tuple(draw(st.lists(scalars, max_size=5))))
    if rows and draw(st.booleans()):
        rows = [list(r) for r in rows]
    columns = draw(st.lists(texts, min_size=width, max_size=width))
    footnotes = draw(st.lists(texts, max_size=2))
    return columns, rows, footnotes


def block_sizes():
    return st.sampled_from([1, 2, 3, 5, _format._BLOCK])


any_tables = st.one_of(tables(), tables(kinds=(floats, finite_floats)))


def forced(memo: bool):
    """Every table renders its float blocks through the memo, or the template."""
    return mock.patch.object(_format, "_memo_pays", lambda cells: memo)


@pytest.mark.parametrize("memo", [False, True])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=any_tables, block=block_sizes())
def test_csv_matches_per_cell_renderer(table, block, memo):
    columns, rows, footnotes = table
    with mock.patch.object(_format, "_BLOCK", block), forced(memo):
        if any(isinstance(v, float) and not math.isfinite(v) for row in rows for v in row):
            with pytest.raises(DomainError, match="NaN or infinity"):
                "".join(render_csv(columns, rows, footnotes))
        else:
            assert "".join(render_csv(columns, rows, footnotes)) == render_csv_per_cell(columns, rows, footnotes)


@pytest.mark.parametrize("memo", [False, True])
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(table=any_tables, block=block_sizes())
def test_json_matches_json_dumps(table, block, memo):
    payload = table_payload(*table)
    try:
        expected = render_json_dumps(payload)
    except ValueError:  # NaN or infinity: json refuses, and so must render_json
        expected = None
    with mock.patch.object(_format, "_BLOCK", block), forced(memo):
        if expected is None:
            with pytest.raises(DomainError, match="NaN or infinity"):
                "".join(render_json(payload))
        else:
            assert "".join(render_json(payload)) == expected


@settings(max_examples=50, deadline=None)
@given(record=st.dictionaries(texts, st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8), max_size=4))
def test_records_match_json_dumps(record):
    try:
        expected = render_json_dumps(record)
    except ValueError:
        with pytest.raises(DomainError):
            "".join(render_json(record))
        return
    assert "".join(render_json(record)) == expected


class TestCellTexts:
    def test_signed_zeros_keep_their_signs(self):
        rows = [(0.0,), (-0.0,), (0.0,), (-0.0,)]
        assert "".join(render_csv(["x"], rows)) == "x\n0\n-0\n0\n-0\n"
        assert json.loads("".join(render_json(table_payload(["x"], rows))))["rows"] == [[0.0], [-0.0]] * 2
        assert "-0.0" in "".join(render_json(table_payload(["x"], rows)))

    def test_equal_numbers_of_other_types_keep_their_texts(self):
        rows = [(1,), (1.0,), (True,), (np.float64(1.0),)]
        assert "".join(render_csv(["x"], rows)) == "x\n1\n1\ntrue\n1\n"
        text = "".join(render_json(table_payload(["x"], rows)))
        assert json.loads(text)["rows"] == [[1], [1.0], [True], [1.0]]
        assert text == render_json_dumps(table_payload(["x"], rows))

    def test_strings_that_need_quoting(self):
        rows = [("a,b", 'say "hi"', "two\nlines", "", "é")]
        assert "".join(render_csv(["c"] * 5, rows)) == render_csv_per_cell(["c"] * 5, rows)
        assert "".join(render_csv(["c"], [("",)])) == 'c\n""\n'

    def test_empty_tables(self):
        assert "".join(render_csv(["a", "b"], [])) == "a,b\n"
        assert "".join(render_csv([], [], ["note"])) == "\n# note\n"
        for columns, footnotes in ((["a"], ()), ([], ()), (["a"], ["n"])):
            payload = table_payload(columns, [], footnotes)
            assert "".join(render_json(payload)) == render_json_dumps(payload)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_csv_cells_are_refused(self, value):
        with pytest.raises(DomainError, match="NaN or infinity"):
            "".join(render_csv(["x", "y"], [(1.0, 2.0), (value, 3.0)]))
        with pytest.raises(DomainError, match="NaN or infinity"):
            "".join(render_csv(["x", "y"], [(1, "a"), (value, "b")]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float64("nan")])
    def test_non_finite_json_is_refused(self, value):
        with pytest.raises(DomainError, match="NaN or infinity"):
            "".join(render_json(table_payload(["x", "y"], [(1.0, 2.0), (value, 3.0)])))
        with pytest.raises(DomainError, match="NaN or infinity"):
            "".join(render_json({"value": value}))

    def test_each_table_row_is_encoded_once(self):
        """Float blocks are encoded column-wise and other blocks row by row;
        a mixed block does not send the whole payload back to json.dumps."""
        rows = [(float(i), 0.5) for i in range(8)] + [(1, "a"), (2.0, None), [3.0]]
        payload = table_payload(["a", "b"], rows, ["note"])
        encoded, dumps = [], json.dumps

        def recording_dumps(value, **kwargs):
            encoded.append(value)
            return dumps(value, **kwargs)

        with mock.patch.object(_format, "_BLOCK", 4), \
                mock.patch.object(_format.json, "dumps", recording_dumps):
            text = "".join(render_json(payload))
        assert text == render_json_dumps(payload)
        containers = [v for v in encoded if not isinstance(v, str)]  # keys are strings
        assert containers == [["a", "b"], (1, "a"), (2.0, None), [3.0], ["note"]]

    def test_tables_are_recognised_by_type(self):
        record = {"columns": ["a"], "rows": "xy"}
        assert "".join(render_json(record)) == render_json_dumps(record)
        table = table_payload(["a"], [[1.0]])
        assert "".join(render_json(dict(table))) == "".join(render_json(table)) == render_json_dumps(table)

    def test_float_blocks_across_block_boundaries(self):
        rows = [(float(i % 3), -float(i % 3)) for i in range(20)]
        with mock.patch.object(_format, "_BLOCK", 7):
            assert "".join(render_csv(["a", "b"], rows)) == render_csv_per_cell(["a", "b"], rows)
            payload = table_payload(["a", "b"], rows)
            assert "".join(render_json(payload)) == render_json_dumps(payload)


def render_both(columns, rows):
    """The CSV and JSON documents, each checked against its oracle."""
    csv_text = "".join(render_csv(columns, rows))
    assert csv_text == render_csv_per_cell(columns, rows)
    payload = table_payload(columns, rows)
    json_text = "".join(render_json(payload))
    assert json_text == render_json_dumps(payload)
    return csv_text, json_text


class TestFloatStrategies:
    """The memo and the template: how a table picks one, and the memo's edges."""

    @pytest.mark.parametrize("rows, memo", [
        ([(float(i % 3), 0.5) for i in range(40)], True),   # 4 distinct of 80 cells
        ([(float(i), 0.5) for i in range(40)], False),       # 41 distinct of 80
        ([(1, "a")] + [(0.5, 0.5)] * 40, True),              # decided by the first float block
    ])
    def test_first_float_block_picks_for_the_table(self, rows, memo):
        built = []

        class Spy(_format._Memo):
            def __init__(self, cell):
                built.append(cell)
                super().__init__(cell)

        with mock.patch.object(_format, "_BLOCK", 8), mock.patch.object(_format, "_Memo", Spy):
            render_both(["a", "b"], rows + [(float(i), 0.25) for i in range(40)])
        assert built == (["%.6g", "%r"] if memo else [])

    def test_memo_starts_over_at_its_cap(self):
        sizes = []

        class Spy(_format._Memo):
            def __missing__(self, value):
                text = super().__missing__(value)
                sizes.append(len(self))
                return text

        rows = [(i / 7, float(i % 5), -i / 7) for i in range(60)]
        with mock.patch.object(_format, "_BLOCK", 7), mock.patch.object(_format, "_MEMO_CAP", 4), \
                mock.patch.object(_format, "_Memo", Spy), forced(True):
            render_both(["a", "b", "c"], rows)
        assert max(sizes) == 4 and sizes.count(1) > 2  # full, cleared, and refilled

    def test_signed_zeros_across_memo_resets(self):
        """The memo never holds a zero, so ``0.0`` and ``-0.0`` keep their signs
        while it fills, starts over and refills around them."""
        held = []

        class Spy(_format._Memo):
            def __missing__(self, value):
                text = super().__missing__(value)
                held.append(sorted(self))
                return text

        rows = [(zero, i % 5 + 0.5, -zero, -(i % 3) - 0.25)  # 9 distinct of 160 cells
                for i, zero in enumerate([0.0, -0.0] * 20)]
        with mock.patch.object(_format, "_BLOCK", 8), mock.patch.object(_format, "_MEMO_CAP", 2), \
                mock.patch.object(_format, "_Memo", Spy):
            render_both(["a", "b", "c", "d"], rows)
        assert max(map(len, held)) == 2 and sum(len(h) == 1 for h in held) > 2
        assert not any(0.0 in h for h in held)

    @pytest.mark.parametrize("memo", [False, True])
    def test_signed_zeros_across_blocks(self, memo):
        rows = [(-0.0, 1.0), (0.0, -0.0), (1.0, 0.0), (-0.0, -0.0), (0.0, 1.0)] * 3
        with mock.patch.object(_format, "_BLOCK", 2), forced(memo):
            csv_text, json_text = render_both(["a", "b"], rows)
            assert "".join(render_csv(["x"], [(-0.0,), (0.0,), (-0.0,)])) == "x\n-0\n0\n-0\n"
        assert csv_text.startswith("a,b\n-0,1\n0,-0\n1,0\n-0,-0\n")
        assert json.loads(json_text)["rows"] == [list(r) for r in rows]
        assert [math.copysign(1.0, v) for r in json.loads(json_text)["rows"] for v in r] == \
            [math.copysign(1.0, v) for r in rows for v in r]

    @pytest.mark.parametrize("memo", [False, True])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_non_finite_cell_in_a_later_or_first_block(self, fmt, memo):
        def chunks(rows):
            if fmt == "csv":
                return render_csv(["a", "b"], rows)
            return render_json(table_payload(["a", "b"], rows))

        rows = [(float(i % 2), 2.0) for i in range(12)]
        if fmt == "csv":
            written = render_csv_per_cell(["a", "b"], rows[:8])
        else:  # all but the closing text
            written = render_json_dumps(table_payload(["a", "b"], rows[:8]))[:-len("\n  ]\n}\n")]
        with mock.patch.object(_format, "_BLOCK", 4), forced(memo):
            later = chunks(rows[:8] + [(2.0, math.inf)] + rows[8:])
            assert next(later) + next(later) == written  # two blocks of four rows
            with pytest.raises(DomainError, match="NaN or infinity"):
                next(later)
            first = chunks([(1.0, math.nan)] + rows)
            with pytest.raises(DomainError, match="NaN or infinity"):
                next(first)


class TestStreaming:
    """Rows are pulled one block per yielded text, and a failure in the first
    block comes before any text, so nothing has been written."""

    @pytest.mark.parametrize("row", [(0.5, 2.0), (1, "a")])  # column-wise and row by row
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_block_of_rows_per_text(self, fmt, row):
        n_rows, pulled = 3 * _format._BLOCK, 0

        def rows():
            nonlocal pulled
            for _ in range(n_rows):
                pulled += 1
                yield row

        columns, notes = ["a", "b"], ["note"]
        if fmt == "csv":
            chunks = render_csv(columns, rows(), notes)
            expected = render_csv_per_cell(columns, [row] * n_rows, notes)
        else:
            chunks = render_json(table_payload(columns, rows(), notes))
            expected = render_json_dumps(table_payload(columns, [row] * n_rows, notes))
        texts = []
        for k, text in enumerate(chunks):
            assert pulled <= (k + 1) * _format._BLOCK
            texts.append(text)
        assert len(texts) == 4  # three blocks, then the closing text
        assert "".join(texts) == expected

    @pytest.mark.parametrize("position", [0, _format._BLOCK - 1])
    def test_non_finite_first_block_raises_before_any_text(self, position):
        rows = [(1.0, 2.0)] * (2 * _format._BLOCK)
        rows[position] = (math.nan, 2.0)
        for chunks in (render_csv(["a", "b"], rows), render_json(table_payload(["a", "b"], rows)),
                       render_csv(["x"], [[math.inf]]), render_json({"x": -math.inf})):
            with pytest.raises(DomainError, match="NaN or infinity"):
                next(chunks)

    def test_non_finite_later_block_raises_after_earlier_texts(self):
        rows = [(1.0, 2.0)] * (2 * _format._BLOCK)
        rows[_format._BLOCK] = (math.nan, 2.0)
        chunks = render_csv(["a", "b"], rows)
        assert next(chunks).startswith("a,b\n1,2\n")
        with pytest.raises(DomainError, match="NaN or infinity"):
            next(chunks)

    def test_output_file_is_opened_once_the_first_text_is_ready(self, tmp_path):
        def failing():
            raise DomainError("no first text")
            yield  # a generator, as the renderers are

        existing, missing = tmp_path / "existing", tmp_path / "missing"
        existing.write_bytes(b"kept\n")
        for path in (existing, missing):
            with pytest.raises(DomainError):
                write_output(failing(), str(path))
        assert existing.read_bytes() == b"kept\n" and not missing.exists()
        write_output(render_csv(["a"], [(1.0,), (2.0,)]), str(existing))
        assert existing.read_text() == "a\n1\n2\n"
        write_output(render_csv(["a"], [(1.0,)]), os.devnull)

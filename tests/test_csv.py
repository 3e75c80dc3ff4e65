"""``Dataset.from_csv`` against the row-loop parser it replaced.

The reference below is the former reader: ``csv.reader`` plus one ``int()``
per value. On every text the grammar allows, the byte-array reader must give
the same arrays; on rows the reference rejects, it must reject naming the line.
Each comparison runs on the text and on its UTF-8 bytes, as the CLI reads it.
"""

import csv
import io

import numpy as np
import pytest
from conftest import cell_codes

from proxidtr import dgp
from proxidtr.dgp import HIDDEN_ORDER, OBSERVED_ORDER, Dataset


def _reference_from_csv(text: str, seed: int = 0) -> Dataset:
    reader = csv.reader(io.StringIO(text))
    header = [h.strip().lower() for h in next(reader, [])]
    expected = [n.lower() for n in OBSERVED_ORDER]
    with_hidden = expected + [n.lower() for n in HIDDEN_ORDER]
    if header == with_hidden:
        hidden_in_file = True
    elif header == expected:
        hidden_in_file = False
    else:
        raise ValueError(f"unexpected CSV header {header}")
    rows = np.asarray([[int(v) for v in row] for row in reader if row], dtype=np.int8)
    if rows.shape[0] == 0:
        raise ValueError("CSV has a header but no data rows")
    if rows.shape[1] != len(header):
        raise ValueError(f"every CSV row must have {len(header)} values")
    return Dataset(cell_codes(rows[:, :9], rows[:, 9:11] if hidden_in_file else None), seed, hidden_in_file)


def _forms(text: str) -> tuple[str, bytes]:
    """The two inputs ``from_csv`` takes: the text and its UTF-8 bytes."""
    return text, text.encode("utf-8")


def _blank_lines(text: str) -> str:
    lines = text.split("\n")
    return "\n".join(line + "\n" * (i % 3 == 1) for i, line in enumerate(lines)) + "\n\n"


LAYOUTS = {
    "canonical": lambda t: t,
    "crlf": lambda t: t.replace("\n", "\r\n"),
    "blank-lines": _blank_lines,
    "no-final-newline": lambda t: t.rstrip("\n"),
    "spaces": lambda t: t.replace(",", " ,\t").replace("\n", " \n"),
    "all": lambda t: _blank_lines(t.replace(",", " , ")).replace("\n", "\r\n").rstrip("\r\n"),
}


@pytest.fixture(scope="module", params=[1, 200, 35000])
def sampled(request, params):
    return dgp.sample(params, request.param, seed=20240601 + request.param)


@pytest.mark.parametrize("hidden", [False, True])
@pytest.mark.parametrize("layout", LAYOUTS)
def test_from_csv_equals_row_loop_reference(sampled, hidden, layout):
    text = LAYOUTS[layout](sampled.to_csv(include_hidden=hidden))
    ref = _reference_from_csv(text, seed=5)
    for form in _forms(text):
        got = Dataset.from_csv(form, seed=5)
        assert got.has_hidden == ref.has_hidden == hidden
        assert np.array_equal(got.observed, ref.observed)
        assert np.array_equal(got.hidden, ref.hidden)
        assert np.array_equal(got.cell_counts, ref.cell_counts)
        assert np.array_equal(got.observed, sampled.observed)


GOOD_ROW = "0,1,0,1,1,0,0,1,1"
REJECTED_ROWS = {
    "ragged": "0,1,0",
    "eight-then-ten": ",".join("0" * 8) + "\n" + ",".join("0" * 10),  # 36 bytes, as two rows of nine
    "trailing-comma": GOOD_ROW + ",",
    "semicolons": GOOD_ROW.replace(",", ";"),
    "two": "2" + GOOD_ROW[1:],
    "minus-one": "-1" + GOOD_ROW[1:],
    "decimal": "1.0" + GOOD_ROW[1:],
    "empty-value": "," + GOOD_ROW[1:],
}


@pytest.mark.parametrize("gap", ["\n", "\n\n"], ids=["no-blank-line", "blank-line"])
@pytest.mark.parametrize("row", REJECTED_ROWS.values(), ids=list(REJECTED_ROWS))
def test_rows_the_reference_rejects_are_rejected_by_line(row, gap):
    header = ",".join(n.lower() for n in OBSERVED_ORDER)
    text = f"{header}\n{GOOD_ROW}{gap}{row}\n{GOOD_ROW}\n"
    with pytest.raises(ValueError):
        _reference_from_csv(text)
    line = 2 + gap.count("\n")
    for form in _forms(text):
        with pytest.raises(ValueError, match=rf"^CSV line {line}: expected 9 comma-separated values 0/1$"):
            Dataset.from_csv(form)


def test_header_is_checked_and_rows_are_required():
    header = ",".join(n.lower() for n in OBSERVED_ORDER)
    for text in (header, header + "\r\n", header + "\n \n\t\r\n"):
        for form in _forms(text):
            with pytest.raises(ValueError, match="no data rows"):
                Dataset.from_csv(form)
    for form in _forms(GOOD_ROW + "\n" + GOOD_ROW + "\n"):
        with pytest.raises(ValueError, match=r"^unexpected CSV header \['0', '1', "):
            Dataset.from_csv(form)
    for form in _forms(f" {header.upper()} \n{GOOD_ROW}"):
        assert len(Dataset.from_csv(form)) == 1


@pytest.mark.parametrize("hidden", [False, True])
def test_leading_byte_order_mark_is_skipped(sampled, hidden):
    for form in _forms("\ufeff" + sampled.to_csv(include_hidden=hidden)):
        got = Dataset.from_csv(form)
        assert got.has_hidden == hidden
        assert np.array_equal(got.observed, sampled.observed)
        assert np.array_equal(got.hidden, sampled.hidden if hidden else np.zeros_like(sampled.hidden))
    header = ",".join(n.lower() for n in OBSERVED_ORDER)
    for form in _forms(f"\ufeff{header}\n{GOOD_ROW}\n0,1\n"):
        with pytest.raises(ValueError, match="^CSV line 3: "):
            Dataset.from_csv(form)
    for form in _forms(f"{header}\ufeff\n{GOOD_ROW}\n"):
        with pytest.raises(ValueError, match="unexpected CSV header"):
            Dataset.from_csv(form)


def test_bytes_that_are_not_utf8_are_rejected_in_one_line():
    """Invalid UTF-8 in the header or in a data row is an unexpected header or
    a bad line, as a non-digit character would be."""
    header = ",".join(n.lower() for n in OBSERVED_ORDER).encode()
    with pytest.raises(ValueError, match=r"^unexpected CSV header \['\ufffdy0', "):
        Dataset.from_csv(b"\xff" + header + b"\n" + GOOD_ROW.encode() + b"\n")
    for bad in (b"\xff", b"\xc3", b"\xe2\x82"):
        body = GOOD_ROW.encode() + b"\n" + bad + GOOD_ROW[1:].encode() + b"\n"
        with pytest.raises(ValueError, match=r"^CSV line 3: expected 9 comma-separated values 0/1$"):
            Dataset.from_csv(header + b"\n" + body)

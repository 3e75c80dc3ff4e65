"""``Dataset.from_csv`` decodes a body in blocks of ``dgp._CSV_BLOCK`` rows.

Bodies that end just before, at and just after a block edge must give the
arrays of ``test_csv.py``'s csv-module reference, at the real block size and
at a small one; a bad byte must be refused, naming its line, wherever it
falls; a seeded sweep of mutated bodies must give the codes, or the message,
of the grammar in the ``dgp`` module docstring, read line by line. One read
of a 35000-row body must never hold a temporary the size of the body.
"""

import tracemalloc

import numpy as np
import pytest
from test_csv import _reference_from_csv

from proxidtr import dgp
from proxidtr.dgp import HIDDEN_ORDER, OBSERVED_ORDER, Dataset

SMALL_BLOCK = 64


def _header(k: int) -> str:
    return ",".join(n.lower() for n in (OBSERVED_ORDER + HIDDEN_ORDER)[:k])


def _text(rows: np.ndarray) -> str:
    """A canonical CSV of the (n, k) 0/1 ``rows``."""
    body = "".join(",".join(map(str, row)) + "\n" for row in rows.tolist())
    return _header(rows.shape[1]) + "\n" + body


def _rows(n: int, k: int) -> np.ndarray:
    return np.random.default_rng([n, k]).integers(0, 2, (n, k))


@pytest.fixture(params=["real", "small"])
def block(request, monkeypatch):
    """The block size in use: the module's own, or ``SMALL_BLOCK`` patched in."""
    if request.param == "small":
        monkeypatch.setattr(dgp, "_CSV_BLOCK", SMALL_BLOCK)
    return dgp._CSV_BLOCK


@pytest.mark.parametrize("k", [9, 11])
@pytest.mark.parametrize("size", ["1", "B-1", "B", "B+1", "2B+1"])
def test_bodies_at_block_edges_equal_the_reference(block, k, size):
    n = {"1": 1, "B-1": block - 1, "B": block, "B+1": block + 1, "2B+1": 2 * block + 1}[size]
    text = _text(_rows(n, k))
    ref = _reference_from_csv(text, seed=3)
    for form in (text, text.encode()):
        got = Dataset.from_csv(form, seed=3)
        assert len(got) == n
        assert got.has_hidden == (k == 11)
        assert np.array_equal(got.cell_code, ref.cell_code)


@pytest.mark.parametrize("k", [9, 11])
@pytest.mark.parametrize("place", ["first-row", "block-edge", "last-partial-row"])
@pytest.mark.parametrize("bad", ["digit", "comma", "newline"])
def test_a_bad_byte_is_refused_by_line_wherever_it_falls(block, k, place, bad):
    """Rows 2B + 5: the bad byte lands in row 0, in row B - 1 (the last row of
    the first block) or in the last row, inside the partial third block."""
    n = 2 * block + 5
    row = {"first-row": 0, "block-edge": block - 1, "last-partial-row": n - 1}[place]
    lines = _text(_rows(n, k)).split("\n")
    line = lines[1 + row]
    if bad == "digit":
        line = "2" + line[1:]
    elif bad == "comma":
        line = line.replace(",", ";", 1)
    else:  # the row runs into the next one, or, as the last row, ends in a comma
        line = line + "," if row == n - 1 else line + "," + lines[2 + row]
        del lines[2 + row:3 + row]
    lines[1 + row] = line
    text = "\n".join(lines)
    for form in (text, text.encode()):
        with pytest.raises(ValueError, match=rf"^CSV line {row + 2}: expected {k} comma-separated values 0/1$"):
            Dataset.from_csv(form)


def _grammar_reference(text: str, k: int) -> np.ndarray | str:
    """The cell codes the grammar of the module docstring gives ``text``,
    read line by line, or the message of its refusal."""
    weights = dgp._bit_weights((OBSERVED_ORDER + HIDDEN_ORDER)[:k])
    codes = []
    for number, line in enumerate(text.split("\n")[1:], start=2):
        values = line.replace(" ", "").replace("\t", "").replace("\r", "")
        if not values:
            continue
        values = values.split(",")
        if len(values) != k or not set(values) <= {"0", "1"}:
            return f"CSV line {number}: expected {k} comma-separated values 0/1"
        codes.append(int(np.dot([int(v) for v in values], weights)))
    if not codes:
        return "CSV has a header but no data rows"
    return np.array(codes, dtype=np.int16)


_MUTANT_BYTES = ["0", "1", ",", "\n", "2", ";", " ", "\r", "\t", "", "00", ",\n", "\r\n"]


def _mutant(rng: np.random.Generator, k: int) -> str:
    """A canonical CSV of up to four small blocks, with a few bytes of its
    body replaced, deleted or doubled, its line ends made CRLF or its tail cut."""
    n = int(rng.integers(1, 4 * SMALL_BLOCK + 3))
    text = _text(rng.integers(0, 2, (n, k)))
    head = len(_header(k)) + 1
    body = list(text[head:])
    for _ in range(int(rng.integers(0, 3))):
        at = int(rng.integers(0, len(body)))
        body[at] = _MUTANT_BYTES[int(rng.integers(len(_MUTANT_BYTES)))]
    body = "".join(body)
    if rng.random() < 0.2:
        body = body.replace("\n", "\r\n")
    if rng.random() < 0.2:
        body = body[:int(rng.integers(0, len(body) + 1))]
    return text[:head] + body


def test_mutated_bodies_give_the_codes_or_message_of_the_grammar(monkeypatch):
    monkeypatch.setattr(dgp, "_CSV_BLOCK", SMALL_BLOCK)
    rng = np.random.default_rng(20261020)
    refused = 0
    for _ in range(500):
        k = int(rng.choice([9, 11]))
        text = _mutant(rng, k)
        expected = _grammar_reference(text, k)
        for form in (text, text.encode()):
            if isinstance(expected, str):
                with pytest.raises(ValueError) as refusal:
                    Dataset.from_csv(form)
                assert str(refusal.value) == expected
            else:
                assert np.array_equal(Dataset.from_csv(form).cell_code, expected)
        refused += isinstance(expected, str)
    assert min(refused, 500 - refused) > 100  # the sweep covers both outcomes


@pytest.mark.parametrize("hidden", [False, True])
def test_one_read_holds_no_temporary_the_size_of_the_body(params, hidden):
    """The traced peak of one read of a 35000-row body, as the CLI passes it
    (bytes), stays below the body's size; it was 2.7 times the body when the
    body was checked and multiplied as one array."""
    data = dgp.sample(params, 35000, seed=11).to_csv(include_hidden=hidden).encode()
    Dataset.from_csv(data)  # builds the cached block of zero rows
    tracemalloc.start()
    try:
        read = Dataset.from_csv(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(read) == 35000
    assert peak < len(data) - data.find(b"\n")

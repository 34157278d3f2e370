"""Dataset loading, validation, projection arithmetic, and round-trips."""

import io
import math
import os
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from rac import (
    MarketDataset,
    ProjectionInputs,
    load_bundled_dataset,
    load_bundled_projection,
    load_dataset,
    load_projection,
    projected_consumption,
    with_final_consumption,
)
from rac.dataset import _CHUNK, read_bytes
from rac.errors import InputError, MissingYear, NonPositiveValue, SchemaError

from conftest import HEADER, PROJECTION_HEADER, csv_text, serialize_dataset


def simple_rows(years):
    return [f"{y},{100.0 + i},1.05,1.01" for i, y in enumerate(years)]


# -- loading and validation ---------------------------------------------------

def test_bundled_span(bundled):
    assert len(bundled.consumption) == 90
    assert bundled.start_year == 1889
    assert bundled.end_year == 1978
    assert bundled.consumption[-2:] == (3340.0, 3450.0)


def test_load_from_file_like_matches_path(bundled, tmp_path):
    text = serialize_dataset(bundled).decode("utf-8")
    again = load_dataset(io.StringIO(text))
    assert again == bundled
    as_bytes = load_dataset(io.BytesIO(text.encode("utf-8")))
    assert as_bytes == bundled
    # a file saved with a UTF-8 byte order mark reads the same
    with_bom = tmp_path / "bom.csv"
    with_bom.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert load_dataset(with_bom) == bundled
    assert load_dataset(io.BytesIO(with_bom.read_bytes())) == bundled
    assert load_dataset(io.StringIO("\ufeff" + text)) == bundled


@pytest.mark.parametrize("bom, newline", [("", "\r"), ("", "\r\n"), ("\ufeff", "\n")],
                         ids=["cr", "crlf", "bom"])
def test_line_ends_read_alike_from_path_and_file_like(bundled, tmp_path, bom, newline):
    # read_text drops one leading byte order mark and translates CR and CRLF
    # by the same lines for a path's bytes and a file-like object's, so a
    # CR-only file or one with a mark loads from either
    projection = f"{PROJECTION_HEADER}\n515.4,613.7,150,219441872\n"
    for load, text, want in (
        (load_dataset, serialize_dataset(bundled).decode("utf-8"), bundled),
        (load_projection, projection, load_bundled_projection()),
    ):
        data = (bom + text.replace("\n", newline)).encode("utf-8")
        path = tmp_path / "file.csv"
        path.write_bytes(data)
        got = [load(path), load(io.StringIO(data.decode("utf-8"), newline="")), load(io.BytesIO(data))]
        assert got == [want] * 3


@pytest.mark.parametrize(
    "load, header",
    [(load_dataset, HEADER), (load_projection, PROJECTION_HEADER)],
    ids=["dataset", "projection"],
)
def test_only_one_byte_order_mark_is_dropped(tmp_path, load, header):
    # a second mark is text, so the header does not match from any source
    data = ("\ufeff\ufeff" + header + "\n").encode("utf-8")
    path = tmp_path / "file.csv"
    path.write_bytes(data)
    for source in (path, io.BytesIO(data), io.StringIO(data.decode("utf-8"))):
        with pytest.raises(SchemaError) as exc_info:
            load(source)
        assert str(exc_info.value) == f"expected header {header!r}, got {chr(0xFEFF) + header!r}"


def _load_outcome(source):
    """load_dataset(source), or the (type, message) of the InputError it raises."""
    try:
        return load_dataset(source)
    except InputError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("edit", ["bom-crlf", "bad-byte", "late-bad-byte"])
def test_path_and_its_bytes_read_alike(bundled, tmp_path, edit):
    # the CLI parses a user dataset from the bytes it read in binary mode, so
    # those bytes, as a file-like object, must load as the path does; the
    # tests above cover CR, CRLF and a BOM on their own
    data = serialize_dataset(bundled)
    mid = data.index(b"\n1934,")
    data = {
        "bom-crlf": b"\xef\xbb\xbf" + data.replace(b"\n", b"\r\n"),
        "bad-byte": data[:mid] + b"\xff" + data[mid:],
        # past the first 8 KiB, in case a reader decodes in chunks
        "late-bad-byte": data[:mid] + b"\n" * 9000 + b"\xff" + data[mid:],
    }[edit]
    path = tmp_path / "file.csv"
    path.write_bytes(data)
    with open(path, "rb") as fh:
        from_bytes = _load_outcome(io.BytesIO(fh.read()))
    assert _load_outcome(path) == from_bytes
    if "bad-byte" in edit:
        offset = data.index(b"\xff")
        assert from_bytes == (SchemaError, f"file is not UTF-8 text (invalid start byte at offset {offset})")
    else:
        assert from_bytes == bundled


BIG_CELL = "9" * 140_000  # over the csv module's default field limit of 131,072
_GOOD = ["1889,100,1.05,1.01", "1890,101,1.05,1.01"]
_NOT_UTF8 = "file is not UTF-8 text (invalid start byte at offset 0)"
_OOPS = "non-numeric cell (could not convert string to float: 'oops')"

# Each error a loader raises, by loader and by how it reads the file (from a
# path, or from a stream: StringIO for text, BytesIO for bytes): the file's
# text or bytes, and the error's type and exact message.
_LOAD_ERRORS = {
    (load_dataset, "stream"): {
        "missing-year": (csv_text(*simple_rows([*range(1889, 1900), *range(1901, 1910)])),
                         MissingYear,
                         "line 13: year 1901 does not follow 1899 (series must be contiguous)"),
        "duplicate-year": (csv_text(*simple_rows([1889, 1890, 1890, 1891])), MissingYear,
                           "line 4: year 1890 does not follow 1890 (series must be contiguous)"),
        "bad-header": (csv_text(*_GOOD, header="a,b,c,d"), SchemaError,
                       f"expected header {HEADER!r}, got 'a,b,c,d'"),
        "wrong-cell-count": (csv_text(_GOOD[0], "1890,101,1.05"), SchemaError,
                             "line 3: expected 4 cells, got 3"),
        "non-numeric-cell": (csv_text(_GOOD[0], "1890,oops,1.05,1.01"), SchemaError, f"line 3: {_OOPS}"),
        "non-positive-consumption": (csv_text(_GOOD[0], "1890,-5,1.05,1.01"), NonPositiveValue,
                                     "line 3: non-positive or non-finite value in year 1890"),
        "non-positive-return": (csv_text(_GOOD[0], "1890,101,0,1.01"), NonPositiveValue,
                                "line 3: non-positive or non-finite value in year 1890"),
        "single-data-row": (csv_text(_GOOD[0]), SchemaError, "need at least two data rows"),
        "empty-file": ("", SchemaError, "empty file"),
        # a line number counts the blank lines above it
        "past-blank-lines": (csv_text(_GOOD[0], "", _GOOD[1], "", "1891,-1,1.05,1.01"),
                             NonPositiveValue, "line 6: non-positive or non-finite value in year 1891"),
        # too few rows is reported before anything wrong inside the one row
        **{f"single-bad-row-{i}": (csv_text(row, ""), SchemaError, "need at least two data rows")
           for i, row in enumerate(["1889,oops,1.05,1.01", "1889,100,1.05", "1889,-5,1.05,1.01",
                                    "1889,nan,1.05,1.01", "x,1,1,1"])},
        # the first bad line wins, whatever its fault
        "earliest-non-positive": (csv_text(_GOOD[0], "1890,0,1.05,1.01", "1892,101,1.05,1.01"),
                                  NonPositiveValue,
                                  "line 3: non-positive or non-finite value in year 1890"),
        "earliest-missing-year": (csv_text(_GOOD[0], "1891,0,1.05,1.01", "1892,-1,1.05,1.01"),
                                  MissingYear,
                                  "line 3: year 1891 does not follow 1889 (series must be contiguous)"),
        "oversized-row": (csv_text(f"1889,{BIG_CELL},1.05,1.01", _GOOD[1]), SchemaError,
                          "line 2: field larger than field limit (131072)"),
        "oversized-row-past-blank": (csv_text(_GOOD[0], "", f"1890,{BIG_CELL},1.05,1.01"),
                                     SchemaError, "line 4: field larger than field limit (131072)"),
        "oversized-header": (csv_text(*_GOOD, header=BIG_CELL), SchemaError,
                             "line 1: field larger than field limit (131072)"),
        # the row-count rule reads past an earlier bad row without tripping on
        # a later row the csv module rejects; the earlier error still wins
        "oversized-after-bad-row": (csv_text("1889,oops,1.05,1.01", f"1890,{BIG_CELL},1.05,1.01"),
                                    SchemaError, f"line 2: {_OOPS}"),
        "oversized-single-row": (csv_text(f"1889,{BIG_CELL},1.05,1.01"), SchemaError,
                                 "need at least two data rows"),
        # a quoted cell may span lines: an error names the line its record
        # starts on, and a record read over several lines is not a lone row
        "unclosed-quote": (csv_text('1889,"746.10,1.05,0.91', "1890,747,1.05,1.01", "1891,750,1.05,1.01"),
                           SchemaError, "line 2: expected 4 cells, got 2"),
        "unclosed-quote-on-line-3": (csv_text(_GOOD[0], '1890,"101,1.05,1.01', "1891,102,1.05,1.01"),
                                     SchemaError, "line 3: expected 4 cells, got 2"),
        "line-end-in-quoted-cell": (
            csv_text('1889,"746\n.10",1.05,1.01', _GOOD[1]), SchemaError,
            "line 2: non-numeric cell (could not convert string to float: '746\\n.10')"),
        "not-utf8": (b"\xff\xfe" + HEADER.encode() + b"\n", SchemaError, _NOT_UTF8),
    },
    (load_projection, "stream"): {
        "bad-header": ("a,b,c,d\n1,2,3,4\n", SchemaError,
                       f"expected header {PROJECTION_HEADER!r}, got 'a,b,c,d'"),
        "extra-row": (f"{PROJECTION_HEADER}\n1,2,3,4\n5,6,7,8\n", SchemaError,
                      "projection file must have exactly one data row"),
        "non-numeric-cell": (f"{PROJECTION_HEADER}\n1,2,x,4\n", SchemaError,
                             "non-numeric cell (could not convert string to float: 'x')"),
        "3-cells": (f"{PROJECTION_HEADER}\n1,2,3\n", SchemaError, "expected 4 cells, got 3"),
        "5-cells": (f"{PROJECTION_HEADER}\n1,2,3,4,5\n", SchemaError, "expected 4 cells, got 5"),
        "oversized-row": (f"{PROJECTION_HEADER}\n{BIG_CELL},613.7,150,219441872\n", SchemaError,
                          "line 2: field larger than field limit (131072)"),
        "oversized-header": (f"{BIG_CELL}\n515.4,613.7,150,219441872\n", SchemaError,
                             "line 1: field larger than field limit (131072)"),
        "not-utf8": (b"\xff\xfe" + PROJECTION_HEADER.encode() + b"\n", SchemaError, _NOT_UTF8),
    },
    # the same bytes from a path
    (load_dataset, "path"): {
        "not-utf8": (b"\xff\xfe" + HEADER.encode() + b"\n", SchemaError, _NOT_UTF8),
    },
    (load_projection, "path"): {
        "not-utf8": (b"\xff\xfe" + PROJECTION_HEADER.encode() + b"\n", SchemaError, _NOT_UTF8),
    },
}


@pytest.mark.parametrize(
    "load, how, content, error, message",
    [(load, how, *row) for (load, how), rows in _LOAD_ERRORS.items() for row in rows.values()],
    ids=[f"{load.__name__}-{how}-{name}" for (load, how), rows in _LOAD_ERRORS.items()
         for name in rows],
)
def test_load_error(tmp_path, load, how, content, error, message):
    if how == "path":
        source = tmp_path / "input.csv"
        source.write_bytes(content)
    else:
        source = io.BytesIO(content) if isinstance(content, bytes) else io.StringIO(content)
    with pytest.raises(InputError) as info:
        load(source)
    assert (type(info.value), str(info.value)) == (error, message)


def test_a_quoted_cell_may_end_in_a_line_end():
    # float() drops the line end, so the record loads as if it were not there
    plain = csv_text("1889,746.10,1.05,1.01", "1890,747.2,1.05,1.01")
    quoted = plain.replace("746.10", '"746.10\n"')
    assert load_dataset(io.StringIO(quoted)) == load_dataset(io.StringIO(plain))



def test_bundled_inputs_parsed_once():
    # one frozen record per process, handed to every caller
    assert load_bundled_dataset() is load_bundled_dataset()
    assert load_bundled_projection() is load_bundled_projection()
    with pytest.raises(AttributeError):
        load_bundled_dataset().consumption = None


# -- round-trips --------------------------------------------------------------

def test_round_trip_bundled(bundled):
    again = load_dataset(io.BytesIO(serialize_dataset(bundled)))
    assert again.consumption == bundled.consumption
    assert again.equity_return == bundled.equity_return
    assert again.riskfree_return == bundled.riskfree_return
    assert again.start_year == bundled.start_year


positive_floats = st.floats(
    min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False
)


@given(
    start=st.integers(min_value=1800, max_value=2100),
    cons=st.lists(positive_floats, min_size=2, max_size=10),
    data=st.data(),
)
def test_round_trip_random(start, cons, data):
    n = len(cons)
    returns = data.draw(st.lists(positive_floats, min_size=n, max_size=n))
    d = MarketDataset(start, cons, returns, returns)
    assert load_dataset(io.BytesIO(serialize_dataset(d))) == d


# Cells that float() and int() read in surprising ways, beside random ones.
_ODD_CELLS = st.one_of(
    st.sampled_from(["0", "-0", "-1", "nan", "inf", "-inf", "1e309", "1e-400", "5e-324", "1e308",
                     "", " 7 ", "1_0", "0x10", "\u0661", '"3"', "1,5", "\x00", "9" * 5000]),
    st.floats().map(repr),
    st.integers().map(str),
    st.text(max_size=4),
)


@st.composite
def csv_documents(draw):
    """CSV text for either loader, mostly well formed (contiguous years,
    positive cells) so that some documents load, with about one part in ten
    broken: an odd cell, a wrong year, a missing or extra cell, a wrong header."""

    def odd():
        return draw(st.integers(min_value=0, max_value=9)) == 0

    projection = draw(st.booleans())
    header = PROJECTION_HEADER if projection else HEADER
    if odd():
        header = draw(st.sampled_from([HEADER, PROJECTION_HEADER, "year", ""]))
    start = draw(st.integers(min_value=-3, max_value=3000))
    lines = [header]
    for i in range(draw(st.integers(min_value=0, max_value=2 if projection else 6))):
        cells = [draw(_ODD_CELLS) if odd() else repr(draw(st.floats(1e-3, 1e6)))
                 for _ in range(4 if projection else 3)]
        if not projection:
            year = draw(st.sampled_from(["", "x", str(start)])) if odd() else str(start + i)
            cells.insert(0, year)
        if odd():
            cells = cells[:-1] if draw(st.booleans()) else [*cells, "1.0"]
        lines.append(",".join(cells))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


@pytest.mark.parametrize("load", [load_dataset, load_projection])
@given(
    document=st.one_of(st.text(), st.binary(), csv_documents(), csv_documents().map(str.encode))
)
def test_any_document_loads_finite_or_is_input_error(load, document):
    # text or bytes content either loads into positive finite values or is
    # rejected as an InputError, never another exception; a loaded dataset
    # is one the validating constructor accepts as it stands
    source = io.BytesIO(document) if isinstance(document, bytes) else io.StringIO(document)
    try:
        record = load(source)
    except InputError:
        return
    if isinstance(record, MarketDataset):
        assert MarketDataset(*record) == record
        values = [v for s in record[1:] for v in s]
    else:
        values = list(record)
    assert values and all(0.0 < v < math.inf for v in values)


# -- projection ---------------------------------------------------------------

def test_projected_consumption_unit_case():
    assert projected_consumption(0.5, 0.5, 100, 1e9) == 1.0


def test_projected_consumption_hand_case():
    assert abs(projected_consumption(515.4, 613.7, 100, 219441872) - 5145) <= 1.0


@given(
    nond=st.floats(min_value=1e-3, max_value=1e4),
    serv=st.floats(min_value=1e-3, max_value=1e4),
    defl=st.floats(min_value=1.0, max_value=1e3),
    pop=st.floats(min_value=1e3, max_value=1e10),
)
def test_projected_consumption_population_homogeneity(nond, serv, defl, pop):
    one = projected_consumption(nond, serv, defl, pop)
    half = projected_consumption(nond, serv, defl, 2.0 * pop)
    assert math.isclose(half, one / 2.0, rel_tol=1e-14)


def test_load_projection_bundled():
    inp = load_bundled_projection()
    assert inp == ProjectionInputs(515.4, 613.7, 150.0, 219441872.0)
    assert abs(projected_consumption(*inp) - 3430) <= 1.0
    text = f"{PROJECTION_HEADER}\n515.4,613.7,150,219441872\n"
    assert load_projection(io.BytesIO(b"\xef\xbb\xbf" + text.encode("utf-8"))) == inp


# -- final-year replacement ---------------------------------------------------

def test_with_final_consumption_reference(bundled):
    swapped = with_final_consumption(bundled, 3430.0)
    assert swapped.consumption[-1] == 3430.0
    assert swapped.consumption[:-1] == bundled.consumption[:-1]
    assert swapped.equity_return == bundled.equity_return
    assert swapped.riskfree_return == bundled.riskfree_return


def test_with_final_consumption_identity(bundled):
    assert with_final_consumption(bundled, bundled.consumption[-1]) == bundled


def test_with_final_consumption_changes_exactly_one_number(bundled):
    swapped = with_final_consumption(bundled, 9999.0)
    changed = 0
    for series in ("consumption", "equity_return", "riskfree_return"):
        old = getattr(bundled, series)
        new = getattr(swapped, series)
        changed += sum(1 for a, b in zip(old, new) if a != b)
    assert changed == 1


# -- read_bytes against kept bytes --------------------------------------------

# seeded bytes without a short period, so a chunk compared at the wrong offset
# does not match by chance
_NOISE = random.Random(0).randbytes(3 * _CHUNK + 1)


def _check_read_against(path, kept, content):
    """read_bytes(path, kept) with `content` in the file: the plain read's
    bytes, and `kept` itself exactly when the file holds those bytes."""
    path.write_bytes(content)
    got = read_bytes(path, kept)
    assert got == read_bytes(path) == content
    assert (got is kept) is (content == kept)


def _flip(data, at):
    return data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]


@pytest.mark.parametrize("case", [
    "equal", "at-byte-0", "last-of-chunk", "at-chunk-edge", "in-last-partial-chunk",
    "strict-prefix", "prefix-at-chunk-edge", "longer", "empty",
])
def test_read_bytes_against_kept(tmp_path, case):
    kept = _NOISE[:2 * _CHUNK + 1000]
    content = {
        "equal": kept,
        "at-byte-0": _flip(kept, 0),
        "last-of-chunk": _flip(kept, _CHUNK - 1),
        "at-chunk-edge": _flip(kept, _CHUNK),
        "in-last-partial-chunk": _flip(kept, len(kept) - 1),
        "strict-prefix": kept[:-1],
        "prefix-at-chunk-edge": kept[:_CHUNK],
        "longer": kept + b"\n",
        "empty": b"",
    }[case]
    _check_read_against(tmp_path / "file.bin", kept, content)


def test_read_bytes_against_empty_kept(tmp_path):
    _check_read_against(tmp_path / "file.bin", b"", b"")
    _check_read_against(tmp_path / "file.bin", b"", b"x")


@pytest.mark.parametrize("load", [read_bytes, load_dataset, load_projection])
def test_file_descriptor_is_not_a_path(load):
    # open() takes an int as a file descriptor, which it would read and close
    read_end, write_end = os.pipe()
    os.write(write_end, b"x")
    os.close(write_end)
    try:
        with pytest.raises(InputError) as info:
            load(read_end)
        assert str(info.value) == f"path must be a str, bytes or os.PathLike, got {read_end}"
        os.fstat(read_end)  # still the caller's, and open
    finally:
        os.close(read_end)


_LENGTHS = st.one_of(
    st.integers(0, 3 * _CHUNK),
    st.sampled_from([k * _CHUNK + d for k in range(1, 4) for d in (-1, 0, 1)]),
)


@given(kept_len=_LENGTHS, file_len=_LENGTHS, flip=st.none() | st.floats(0, 1, exclude_max=True))
@example(kept_len=_CHUNK, file_len=_CHUNK, flip=None)
@example(kept_len=3 * _CHUNK, file_len=3 * _CHUNK, flip=2 / 3)
def test_read_bytes_against_kept_property(tmp_path_factory, kept_len, file_len, flip):
    # kept and file share a prefix; the file may also differ in one byte
    content = _NOISE[:file_len]
    if flip is not None and content:
        content = _flip(content, int(flip * file_len))
    path = tmp_path_factory.getbasetemp() / "read_bytes_property.bin"
    _check_read_against(path, _NOISE[:kept_len], content)

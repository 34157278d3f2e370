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
from rac.dataset import _CHUNK, read_bytes, read_text
from rac.errors import InputError, MissingYear, NonPositiveValue, SchemaError

from conftest import HEADER, PROJECTION_HEADER, serialize_dataset


def csv_text(rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def simple_rows(years, consumption=None):
    consumption = consumption or [100.0 + i for i in range(len(years))]
    return [f"{y},{c},1.05,1.01" for y, c in zip(years, consumption)]


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


def load_error(text):
    """(type, message) of the InputError that loading `text` raises."""
    with pytest.raises(InputError) as exc_info:
        load_dataset(io.StringIO(text))
    return type(exc_info.value), str(exc_info.value)


def test_missing_year():
    years = [y for y in range(1889, 1910) if y != 1900]
    assert load_error(csv_text(simple_rows(years))) == (
        MissingYear,
        "line 13: year 1901 does not follow 1899 (series must be contiguous)",
    )


def test_duplicate_year():
    assert load_error(csv_text(simple_rows([1889, 1890, 1890, 1891]))) == (
        MissingYear,
        "line 4: year 1890 does not follow 1890 (series must be contiguous)",
    )


def test_bad_header():
    text = "a,b,c,d\n1889,100,1.05,1.01\n1890,101,1.05,1.01\n"
    assert load_error(text) == (SchemaError, f"expected header {HEADER!r}, got 'a,b,c,d'")


def test_wrong_cell_count():
    text = csv_text(["1889,100,1.05,1.01", "1890,101,1.05"])
    assert load_error(text) == (SchemaError, "line 3: expected 4 cells, got 3")


def test_non_numeric_cell():
    text = csv_text(["1889,100,1.05,1.01", "1890,oops,1.05,1.01"])
    assert load_error(text) == (
        SchemaError,
        "line 3: non-numeric cell (could not convert string to float: 'oops')",
    )


def test_non_positive_consumption():
    text = csv_text(["1889,100,1.05,1.01", "1890,-5,1.05,1.01"])
    assert load_error(text) == (
        NonPositiveValue,
        "line 3: non-positive or non-finite value in year 1890",
    )


def test_non_positive_return():
    text = csv_text(["1889,100,1.05,1.01", "1890,101,0,1.01"])
    assert load_error(text) == (
        NonPositiveValue,
        "line 3: non-positive or non-finite value in year 1890",
    )


def test_single_data_row():
    text = csv_text(simple_rows([1889]))
    assert load_error(text) == (SchemaError, "need at least two data rows")


def test_empty_file():
    assert load_error("") == (SchemaError, "empty file")


def test_error_names_file_line_past_blank_lines():
    text = HEADER + "\n1889,100,1.05,1.01\n\n1890,101,1.05,1.01\n\n1891,-1,1.05,1.01\n"
    assert load_error(text) == (
        NonPositiveValue,
        "line 6: non-positive or non-finite value in year 1891",
    )


@pytest.mark.parametrize(
    "row",
    ["1889,oops,1.05,1.01", "1889,100,1.05", "1889,-5,1.05,1.01", "1889,nan,1.05,1.01", "x,1,1,1"],
)
def test_single_bad_data_row_reports_row_count(row):
    # too few rows is reported before anything wrong inside the one row
    text = csv_text([row, ""])
    assert load_error(text) == (SchemaError, "need at least two data rows")


def test_earliest_error_line_wins():
    rows = ["1889,100,1.05,1.01", "1890,0,1.05,1.01", "1892,101,1.05,1.01"]
    assert load_error(csv_text(rows)) == (
        NonPositiveValue,
        "line 3: non-positive or non-finite value in year 1890",
    )
    rows = ["1889,100,1.05,1.01", "1891,0,1.05,1.01", "1892,-1,1.05,1.01"]
    assert load_error(csv_text(rows)) == (
        MissingYear,
        "line 3: year 1891 does not follow 1889 (series must be contiguous)",
    )


BIG_CELL = "9" * 140_000  # over the csv module's default field limit of 131,072


@pytest.mark.parametrize(
    "load, header",
    [(load_dataset, HEADER), (load_projection, PROJECTION_HEADER)],
    ids=["dataset", "projection"],
)
@pytest.mark.parametrize("as_path", [True, False], ids=["path", "bytes"])
def test_non_utf8_file_is_schema_error(tmp_path, load, header, as_path):
    raw = b"\xff\xfe" + header.encode("utf-8") + b"\n"
    path = tmp_path / "input.csv"
    path.write_bytes(raw)
    with pytest.raises(SchemaError) as exc_info:
        load(path if as_path else io.BytesIO(raw))
    assert str(exc_info.value) == "file is not UTF-8 text (invalid start byte at offset 0)"


@pytest.mark.parametrize(
    "load, text, message",
    [
        (load_dataset, f"{HEADER}\n1889,{BIG_CELL},1.05,1.01\n1890,101,1.05,1.01\n", "line 2"),
        (load_dataset, f"{HEADER}\n1889,100,1.05,1.01\n\n1890,{BIG_CELL},1.05,1.01\n", "line 4"),
        (load_dataset, f"{BIG_CELL}\n1889,100,1.05,1.01\n1890,101,1.05,1.01\n", "line 1"),
        (load_projection, f"{PROJECTION_HEADER}\n{BIG_CELL},613.7,150,219441872\n", "line 2"),
        (load_projection, f"{BIG_CELL}\n515.4,613.7,150,219441872\n", "line 1"),
    ],
    ids=["dataset-row", "dataset-row-past-blank", "dataset-header", "projection-row",
         "projection-header"],
)
def test_oversized_cell_is_schema_error(load, text, message):
    with pytest.raises(SchemaError) as exc_info:
        load(io.StringIO(text))
    assert str(exc_info.value) == f"{message}: field larger than field limit (131072)"


def test_oversized_cell_counts_as_a_row():
    # the row-count rule reads past an earlier bad row without tripping on a
    # later row the csv module rejects; the earlier error still wins
    text = csv_text(["1889,oops,1.05,1.01", f"1890,{BIG_CELL},1.05,1.01"])
    assert load_error(text) == (
        SchemaError,
        "line 2: non-numeric cell (could not convert string to float: 'oops')",
    )
    assert load_error(csv_text([f"1889,{BIG_CELL},1.05,1.01"])) == (
        SchemaError,
        "need at least two data rows",
    )


def test_bundled_inputs_parsed_once():
    # one frozen record per process, handed to every caller
    assert load_bundled_dataset() is load_bundled_dataset()
    assert load_bundled_projection() is load_bundled_projection()
    with pytest.raises(AttributeError):
        load_bundled_dataset().consumption = None


def test_market_dataset_validation():
    with pytest.raises(SchemaError):
        MarketDataset(1900, (1.0,), (1.0,), (1.0,))
    with pytest.raises(NonPositiveValue):
        MarketDataset(1900, (1.0, 0.0), (1.0, 1.0), (1.0, 1.0))


def test_mismatched_spans_rejected():
    a = (1.0, 2.0, 3.0)
    b = (1.0, 2.0)
    with pytest.raises(SchemaError):
        MarketDataset(1900, consumption=a, equity_return=b, riskfree_return=b)


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

def test_projected_consumption_reference():
    assert abs(projected_consumption(515.4, 613.7, 150, 219441872) - 3430) <= 1.0


def test_projected_consumption_unit_case():
    assert projected_consumption(0.5, 0.5, 100, 1e9) == 1.0
    # every component must be positive, as in a projection file
    with pytest.raises(NonPositiveValue, match="nominal_services_bn"):
        projected_consumption(1, 0, 100, 1e9)


def test_projected_consumption_hand_case():
    assert abs(projected_consumption(515.4, 613.7, 100, 219441872) - 5145) <= 1.0


def test_projected_consumption_rejects_bad_inputs():
    with pytest.raises(NonPositiveValue):
        projected_consumption(-1, 613.7, 150, 219441872)
    with pytest.raises(NonPositiveValue):
        projected_consumption(0, 0, 150, 219441872)
    with pytest.raises(NonPositiveValue):
        projected_consumption(515.4, 613.7, 0, 219441872)
    with pytest.raises(NonPositiveValue):
        projected_consumption(515.4, 613.7, 150, 0)


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


def test_projection_inputs_strictly_positive():
    with pytest.raises(NonPositiveValue):
        ProjectionInputs(0.0, 613.7, 150.0, 219441872.0)


def test_load_projection_bundled():
    inp = load_bundled_projection()
    assert inp == ProjectionInputs(515.4, 613.7, 150.0, 219441872.0)
    assert abs(projected_consumption(*inp) - 3430) <= 1.0
    text = f"{PROJECTION_HEADER}\n515.4,613.7,150,219441872\n"
    assert load_projection(io.BytesIO(b"\xef\xbb\xbf" + text.encode("utf-8"))) == inp


def test_load_projection_bad_header():
    with pytest.raises(SchemaError):
        load_projection(io.StringIO("a,b,c,d\n1,2,3,4\n"))


def test_load_projection_extra_row():
    text = f"{PROJECTION_HEADER}\n1,2,3,4\n5,6,7,8\n"
    with pytest.raises(SchemaError):
        load_projection(io.StringIO(text))


def test_load_projection_non_numeric_cell():
    text = f"{PROJECTION_HEADER}\n1,2,x,4\n"
    with pytest.raises(SchemaError) as info:
        load_projection(io.StringIO(text))
    assert str(info.value) == "non-numeric cell (could not convert string to float: 'x')"


@pytest.mark.parametrize("row", ["1,2,3", "1,2,3,4,5"])
def test_load_projection_wrong_cell_count(row):
    with pytest.raises(SchemaError) as info:
        load_projection(io.StringIO(f"{PROJECTION_HEADER}\n{row}\n"))
    cells = len(row.split(","))
    assert (type(info.value), str(info.value)) == (SchemaError, f"expected 4 cells, got {cells}")


# -- final-year replacement ---------------------------------------------------

def test_with_final_consumption_reference(bundled):
    swapped = with_final_consumption(bundled, 3430.0)
    assert swapped.consumption[-1] == 3430.0
    assert swapped.consumption[:-1] == bundled.consumption[:-1]
    assert swapped.equity_return == bundled.equity_return
    assert swapped.riskfree_return == bundled.riskfree_return


def test_with_final_consumption_identity(bundled):
    assert with_final_consumption(bundled, bundled.consumption[-1]) == bundled


def test_with_final_consumption_rejects_nonpositive(bundled):
    with pytest.raises(NonPositiveValue):
        with_final_consumption(bundled, -1.0)


@pytest.mark.parametrize(
    "value, error, message",
    [
        # float() reads "3500" and b"3500", and a bool orders as 0 or 1
        ("3500", InputError, "final consumption must be a number, got '3500'"),
        (True, InputError, "final consumption must be a number, got True"),
        (bytearray(b"3500"), InputError, "final consumption must be a number, got bytearray(b'3500')"),
        # an int too large for a float is not finite as one
        (10**400, NonPositiveValue, "annual series values must be positive and finite"),
    ],
    ids=["str", "bool", "bytearray", "10**400"],
)
def test_with_final_consumption_checks_the_value_as_given(bundled, value, error, message):
    with pytest.raises(InputError) as info:
        with_final_consumption(bundled, value)
    assert (type(info.value), str(info.value)) == (error, message)


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


@pytest.mark.parametrize(
    "load, path",
    [
        (load_dataset, "a\0b"),
        (load_projection, "a\0b"),
        (read_text, b"a\0b"),
        # a lone surrogate that the file system encoding cannot encode
        (load_dataset, "\ud800"),
    ],
    ids=["dataset-nul", "projection-nul", "text-nul-bytes", "dataset-surrogate"],
)
def test_name_open_cannot_take_is_input_error(load, path):
    # open() raises ValueError or UnicodeEncodeError, untyped, for such a name
    with pytest.raises(InputError) as info:
        load(path)
    assert str(info.value) == f"path must encode as a file name with no NUL byte, got {path!r}"


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

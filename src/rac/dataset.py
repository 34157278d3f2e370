"""Annual market dataset: loading, validation, and the consumption projection.

CSV schema (header required, no missing cells)::

    year,consumption_per_capita,equity_gross_return,riskfree_gross_return

Years must be contiguous. Consumption is real per-capita dollars; the return
columns are gross (1 + rate). The return cell in the row for year t is the
gross return realized from t to t+1, so the final row's returns look one year
past the consumption span. Returns stay aligned this way so that every row is
complete; statistics over returns use all rows.

A MarketDataset is a named tuple: the start year and three equal-length
column tuples of floats. Each value is checked once: by load_dataset cell by
cell (its errors name the file line), or by the MarketDataset constructor for
a record built by hand, which converts each value by params.number first.
with_final_consumption checks only the value it puts in.

The bundled reference file is a synthetic reconstruction of the 1889-1978
Mehra-Prescott annual series, built to match the published summary statistics
(mean gross consumption growth about 1.018 with standard deviation about
0.036, mean equity gross return about 1.0698, mean risk-free gross return
about 1.008) and the 1977/1978 per-capita consumption levels 3340 and 3450.
It is not archival data; see tools/make_reference_dataset.py.

Projection inputs CSV (single data row)::

    nondurables_bn,services_bn,gnp_deflator,population

Spending columns are nominal billions, the deflator is an index with base
100, population is a head count.
"""

import csv
import functools
import io
import math
import os
from collections import namedtuple

from .errors import InputError, MissingYear, NonPositiveValue, SchemaError
from .params import number

_HEADER = ["year", "consumption_per_capita", "equity_gross_return", "riskfree_gross_return"]
_PROJECTION_HEADER = ["nondurables_bn", "services_bn", "gnp_deflator", "population"]

# The package's data directory; rac is installed as files, not as a zip.
_DATA = os.path.join(os.path.dirname(__file__), "data")


_DATASET_FIELDS = "start_year consumption equity_return riskfree_return"
_PROJECTION_FIELDS = "nominal_nondurables_bn nominal_services_bn gnp_deflator population"


class MarketDataset(namedtuple("MarketDataset", _DATASET_FIELDS)):
    """Consumption, equity return and risk-free return for each year from
    start_year (an int) on: three tuples of one length, at least two, of
    positive finite floats, each converted by params.number."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, start_year: int, consumption, equity_return, riskfree_return):
        if not isinstance(start_year, int) or isinstance(start_year, bool):
            raise SchemaError(f"start_year must be an int, got {start_year!r}")
        series = tuple(tuple(number(name, v) for v in values) for name, values in
                       zip(cls._fields[1:], (consumption, equity_return, riskfree_return)))
        if min(map(len, series)) < 2:
            raise SchemaError("annual series needs at least two years")
        if not all(0.0 < v < math.inf for values in series for v in values):
            raise NonPositiveValue("annual series values must be positive and finite")
        if len(set(map(len, series))) != 1:
            raise SchemaError("the three series must cover the same years")
        return super().__new__(cls, start_year, *series)

    @property
    def end_year(self) -> int:
        return self.start_year + len(self.consumption) - 1


class ProjectionInputs(namedtuple("ProjectionInputs", _PROJECTION_FIELDS)):
    """Nominal spending aggregates used to project a consumption level: four
    positive finite floats, each converted by params.number."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace checks too

    def __new__(cls, *args, **kwargs):
        p = super().__new__(cls, *args, **kwargs)  # binds each argument to its field
        p = tuple.__new__(cls, map(number, cls._fields, p))
        for name, value in zip(cls._fields, p):
            if not 0.0 < value < math.inf:
                raise NonPositiveValue(f"{name} must be positive and finite")
        return p


_CHUNK = 256 * 1024  # how much of a file read_bytes compares with `kept` per read


def is_file_name(path) -> bool:
    """Whether open() takes `path`, a str, bytes or os.PathLike, as a file
    name: the file system encoding encodes it, and it holds no NUL byte."""
    try:
        return b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:
        return False


def read_bytes(path, kept: bytes | None = None) -> bytes:
    """The bytes of the file at `path` (a str, bytes or os.PathLike). Raises
    InputError for a `path` of any other type, such as an int, which open()
    would read and close as a file descriptor, or for one that is not a file
    name (is_file_name), and OSError for a path that cannot be opened or read.

    With `kept`, the file is compared with it as it is read, one _CHUNK at
    a time into one reused buffer, and `kept` itself is returned when the
    file holds exactly those bytes: an unchanged file is never copied.
    """
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise InputError(f"path must be a str, bytes or os.PathLike, got {path!r}")
    if not is_file_name(path):
        raise InputError(f"path must encode as a file name with no NUL byte, got {path!r}")
    with open(path, "rb") as fh:
        if kept is None:
            return fh.read()
        view = memoryview(bytearray(_CHUNK))
        at = 0
        while n := fh.readinto(view):
            if not kept.startswith(view[:n], at):  # compares in place, copies nothing
                return b"".join((kept[:at], view[:n], fh.read()))
            at += n
        return kept if at == len(kept) else kept[:at]


def read_text(source) -> str:
    """The UTF-8 text of a path (a str, bytes or os.PathLike, read by
    read_bytes) or of a file-like object (text or bytes), with one leading
    byte order mark dropped and CRLF and CR line ends read as LF. A path,
    its bytes and their decoded text so give the same text, and bytes that
    are not UTF-8 fail with the same message.

    Raises SchemaError for bytes that are not UTF-8, naming the offset of
    the first bad one in the file, InputError for a source that is neither
    a path nor a file-like object, and OSError for a path that cannot be
    opened or read.
    """
    try:
        raw = source.read() if hasattr(source, "read") else read_bytes(source)
        text = raw.decode("utf-8") if isinstance(raw, bytes) else raw
    except UnicodeDecodeError as exc:
        raise SchemaError(f"file is not UTF-8 text ({exc.reason} at offset {exc.start})") from None
    text = text.removeprefix("\ufeff")
    # text without a "\r" is passed on uncopied
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def _reader(source, header: list[str]):
    """csv.reader over read_text(source), past a checked header, and the
    StringIO it reads, which _csv_error and _record_start read again.

    Blank lines are skipped. Raises SchemaError for text that is not UTF-8
    and for a header the csv module cannot parse.
    """
    stream = io.StringIO(read_text(source))
    reader = csv.reader(stream)
    try:
        row = next((row for row in reader if row), None)
    except csv.Error as exc:
        raise _csv_error(reader, stream, exc) from None
    if row is None:
        raise SchemaError("empty file")
    got = [h.strip() for h in row]
    if got != header:
        raise SchemaError(f"expected header {','.join(header)!r}, got {','.join(got)!r}")
    return reader, stream


def _record_start(stream, end: int) -> int:
    """The file line on which the record that the csv module read, or
    rejected, up to line `end` starts. A quoted cell may span lines, so this
    parses `stream` again from its start; only an error pays for it."""
    stream.seek(0)
    reader = csv.reader(stream)
    start = 1
    try:
        for _ in reader:
            if reader.line_num >= end:
                break
            start = reader.line_num + 1
    except csv.Error:  # the rejected record
        pass
    return start


def _csv_error(reader, stream, exc: csv.Error) -> SchemaError:
    """The SchemaError for a record the csv module rejects (e.g. an oversized field)."""
    return SchemaError(f"line {_record_start(stream, reader.line_num)}: {exc}")


def _rows_left(reader) -> bool:
    """Whether the reader has a nonblank row left, parseable or not."""
    try:
        return any(reader)
    except csv.Error:
        return True


def load_dataset(source) -> MarketDataset:
    """Parse and validate a market-data CSV.

    `source` is a filesystem path or a file-like object (text or bytes).
    Rows are checked as they stream past, in file order, and an error names
    the file line its record starts on (a quoted cell may span lines).

    Raises SchemaError for text that is not UTF-8, a bad header, fewer than
    two data rows, wrong cell count, non-numeric cells, or a row the csv
    module rejects (such as a cell over its field size limit); MissingYear
    when the year column is not contiguous; and NonPositiveValue for
    consumption or returns that are not positive and finite (float()
    accepts nan and inf).
    """
    reader, stream = _reader(source, _HEADER)
    cons: list[float] = []
    equity: list[float] = []
    riskfree: list[float] = []
    start = next_year = 0
    try:
        for row in reader:
            if not row:
                continue
            if len(row) != 4:
                raise SchemaError(f"expected 4 cells, got {len(row)}")
            try:
                year = int(row[0])
                c, e, r = float(row[1]), float(row[2]), float(row[3])
            except ValueError as exc:
                raise SchemaError(f"non-numeric cell ({exc})") from None
            if not cons:
                start = year
            elif year != next_year:
                raise MissingYear(
                    f"year {year} does not follow {next_year - 1} (series must be contiguous)"
                )
            if not (0.0 < c < math.inf and 0.0 < e < math.inf and 0.0 < r < math.inf):
                raise NonPositiveValue(f"non-positive or non-finite value in year {year}")
            next_year = year + 1
            cons.append(c)
            equity.append(e)
            riskfree.append(r)
    except (InputError, csv.Error) as exc:
        end = reader.line_num
        alone = not cons and not _rows_left(reader)
        line = _record_start(stream, end)
        # A file with fewer than two data rows reports that, whatever its
        # cells; a record read over several lines is not a lone row.
        if alone and line == end:
            raise SchemaError("need at least two data rows") from None
        error = SchemaError if isinstance(exc, csv.Error) else type(exc)
        raise error(f"line {line}: {exc}") from None
    if len(cons) < 2:
        raise SchemaError("need at least two data rows")

    # Every cell passed the check above, there are at least two rows and the
    # three lists grew together, so MarketDataset.__new__ would accept these
    # fields as they are: tuple.__new__ skips its second pass over them.
    return tuple.__new__(MarketDataset, (start, tuple(cons), tuple(equity), tuple(riskfree)))


def load_projection(source) -> ProjectionInputs:
    """Parse a single-row projection-inputs CSV.

    Raises SchemaError for text that is not UTF-8, a bad header, row count,
    cell count, non-numeric cells, or a row the csv module rejects, and
    NonPositiveValue for cells that are not positive and finite.
    """
    reader, stream = _reader(source, _PROJECTION_HEADER)
    try:
        rows = [row for row in reader if row]
    except csv.Error as exc:
        raise _csv_error(reader, stream, exc) from None
    if len(rows) != 1:
        raise SchemaError("projection file must have exactly one data row")
    row = rows[0]
    if len(row) != 4:
        raise SchemaError(f"expected 4 cells, got {len(row)}")
    try:
        nond, serv, defl, pop = (float(cell) for cell in row)
    except ValueError as exc:
        raise SchemaError(f"non-numeric cell ({exc})") from None
    return ProjectionInputs(nond, serv, defl, pop)


def projected_consumption(
    nominal_nondurables_bn: float,
    nominal_services_bn: float,
    gnp_deflator: float,
    population: float,
) -> float:
    """Real per-capita consumption implied by nominal spending aggregates.

    Spending (billions) is deflated by the index (base 100) and divided by
    population:

        1e9 * (nondurables + services) / (deflator / 100) / population

    The four arguments are converted and checked as a ProjectionInputs, the
    rule every projection file meets: each must be a number (else
    InputError) that is positive and finite as a float, or NonPositiveValue
    names the first that is not. So is a result that is not (inf or 0),
    with the message with_final_consumption gives it.
    """
    p = ProjectionInputs(nominal_nondurables_bn, nominal_services_bn, gnp_deflator, population)
    nominal_total = (p.nominal_nondurables_bn + p.nominal_services_bn) * 1e9
    c = nominal_total / (p.gnp_deflator / 100.0) / p.population
    if not 0.0 < c < math.inf:
        raise NonPositiveValue("annual series values must be positive and finite")
    return c


def with_final_consumption(d: MarketDataset, value: float) -> MarketDataset:
    """A copy of `d` whose final consumption entry is replaced by `value`.

    Everything else (returns, span, all earlier consumption) is untouched.
    Used to swap the realized final year for a projected one. Only `value`
    is checked, since `d` was checked when it was built: one that is not a
    number (params.number) raises InputError, and one that is not positive
    and finite as a float NonPositiveValue.
    """
    value = number("final consumption", value)
    if not 0.0 < value < math.inf:
        raise NonPositiveValue("annual series values must be positive and finite")
    return tuple.__new__(MarketDataset, (d.start_year, d.consumption[:-1] + (value,),
                                         d.equity_return, d.riskfree_return))


# Package data does not change under a running process and the parsed
# records are frozen, so each bundled file is parsed once per process.
@functools.cache
def load_bundled_dataset() -> MarketDataset:
    return load_dataset(os.path.join(_DATA, "mehra_prescott_1889_1978.csv"))


@functools.cache
def load_bundled_projection() -> ProjectionInputs:
    return load_projection(os.path.join(_DATA, "projection_1978.csv"))

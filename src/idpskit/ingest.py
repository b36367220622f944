"""Parsing and encoding of KDD99-format connection records.

Wire format: 42 comma-separated fields per line, 41 features followed by
an attack-name label, the label optionally terminated by '.'.
"""

import gzip
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    EmptyDatasetError,
    EmptyLabelError,
    FieldCountError,
    IdpsError,
    NumericParseError,
    UnknownSymbolError,
)
from .schema import CONTINUOUS, N_CLASSES, N_FEATURES, AttackTaxonomy, FeatureSchema

CHUNK = 64  # most records encoded per encode_records call


@dataclass
class RawRecord:
    """One parsed record: 41 raw text fields plus the attack name."""

    features: list
    label: str


@dataclass(frozen=True)
class Dataset:
    """Encoded records in file order: X is (n, 41) float64, y is (n,) int64."""

    X: np.ndarray
    y: np.ndarray

    def __len__(self):
        return len(self.y)

    def class_counts(self, k: int = N_CLASSES) -> np.ndarray:
        return np.bincount(self.y, minlength=k)


def split_fields(line: str) -> list:
    """The comma-separated fields of a line, each stripped of whitespace."""
    # split(None, 1) gives [line] only when no character of line is one
    # that str.strip removes, so the 42 strip calls can be skipped
    if line.split(None, 1) == [line]:
        return line.split(",")
    return [f.strip() for f in line.split(",")]


def parse_record(line: str) -> RawRecord:
    """Parse one record line into 41 trimmed fields and a normalized label.

    Normalization trims whitespace per field and strips one trailing '.'
    from the label.
    """
    fields = split_fields(line)
    if len(fields) != N_FEATURES + 1:
        raise FieldCountError(
            f"expected {N_FEATURES + 1} comma-separated fields, got {len(fields)}"
        )
    label = fields[-1]
    if label.endswith("."):
        label = label[:-1]
    if not label:
        raise EmptyLabelError("record has an empty label")
    return RawRecord(features=fields[:-1], label=label)


def format_record(rec: RawRecord) -> str:
    """Serialize back to the normalized record line (inverse of parse_record)."""
    return ",".join(rec.features + [rec.label])


def map_attack(name: str, taxonomy: AttackTaxonomy) -> int:
    """Map an attack name to its class id; unknown names go to 5 (other)."""
    return taxonomy.lookup(name.strip().lower())


def encode_record(raw, schema, taxonomy, strict=False):
    """Encode one RawRecord to (41-vector, class id).

    Continuous fields are parsed as finite reals; nan, inf and values that
    overflow to inf raise NumericParseError. Symbolic fields are replaced by
    their code-map integers; an unseen symbol raises UnknownSymbolError in
    strict mode and is otherwise assigned the next free code, recorded in
    the schema so the same symbol encodes identically from then on.
    """
    values = []
    for i, d in enumerate(schema.descriptors):
        field = raw.features[i]
        if d.kind == CONTINUOUS:
            try:
                values.append(float(field))
            except ValueError:
                raise NumericParseError(
                    f"feature {d.name!r}: {field!r} is not a number"
                ) from None
        else:
            code = d.code_map.get(field)
            if code is None:
                if strict:
                    raise UnknownSymbolError(
                        f"feature {d.name!r}: unknown symbol {field!r}"
                    )
                code = schema.assign_code(i, field)
            values.append(code)
    vec = np.array(values, dtype=np.float64)
    # sum() is non-finite whenever a value is, and cheaper than a numpy test;
    # finite values can overflow it too, so the exact test has the last word
    if not math.isfinite(sum(values)):
        bad = np.flatnonzero(~np.isfinite(vec))
        if bad.size:
            d, field = schema.descriptors[bad[0]], raw.features[bad[0]]
            raise NumericParseError(f"feature {d.name!r}: {field!r} is not finite")
    return vec, map_attack(raw.label, taxonomy)


def encode_records(raws, schema, taxonomy, strict=False, encode=None):
    """Encode a list of RawRecords at once; return (X, y, failures).

    X (m, 41) and y (m,) hold the records that encode, in input order;
    failures lists (position in raws, exception) for the others. Every
    record gets what encode_record gives it alone: the same vector, class
    id, or exception class and text.

    Symbolic fields are replaced by their codes record by record, in order.
    A record with a symbol its code map lacks goes through encode
    (encode_record unless given) on the spot, so a non-strict schema
    numbers new symbols exactly as record-by-record encoding does. The
    other records are cast in one call, codes and continuous texts
    together; if that raises, each record is cast on its own. Records
    whose cast fails or gives a non-finite value also go through encode,
    which raises for the first fault in field order.
    """
    if encode is None:
        encode = encode_record
    n_features = len(schema.descriptors)
    code_maps = [(d.code_map, i) for i, d in enumerate(schema.descriptors)
                 if d.kind != CONTINUOUS]

    fast, rows = [], []
    redo = {}  # position -> (vector, class id) or the exception
    for pos, raw in enumerate(raws):
        row = raw.features[:n_features]
        try:
            for m, i in code_maps:
                row[i] = m[row[i]]
        except KeyError:
            redo[pos] = _encode_one(encode, raw, schema, taxonomy, strict)
            continue
        fast.append(pos)
        rows.append(row)
    try:
        # reshape gives an empty list the shape (0, n_features)
        values = np.array(rows, dtype=np.float64).reshape(len(rows), n_features)
    except ValueError:
        # a row whose cast fails stays nan, so encode gives its exception
        values = np.full((len(rows), n_features), np.nan)
        for k, row in enumerate(rows):
            try:
                values[k] = np.array(row, dtype=np.float64)
            except ValueError:
                pass
    finite = np.isfinite(values)
    if not finite.all():
        for k in np.flatnonzero(~finite.all(axis=1)).tolist():
            redo[fast[k]] = _encode_one(encode, raws[fast[k]], schema,
                                        taxonomy, strict)

    y = np.array([map_attack(raw.label, taxonomy) for raw in raws],
                 dtype=np.int64)
    if not redo:
        return values, y, []
    X = np.empty((len(raws), n_features))
    X[fast] = values
    good = np.ones(len(raws), dtype=bool)
    failures = []
    for pos in sorted(redo):
        result = redo[pos]
        if isinstance(result, IdpsError):
            good[pos] = False
            failures.append((pos, result))
        else:
            X[pos] = result[0]
    return X[good], y[good], failures


def _encode_one(encode, raw, schema, taxonomy, strict):
    try:
        return encode(raw, schema, taxonomy, strict=strict)
    except IdpsError as exc:
        # the traceback and the chained exception hold frames, and through
        # them the caller's, which holds the result: a cycle only gc frees
        exc.__context__ = None
        return exc.with_traceback(None)


def iter_lines(path, errors="strict"):
    """Yield (lineno, line) from a UTF-8 text or gzip file, skipping blank lines.

    errors is the decoding error handler. "surrogateescape" decodes an
    undecodable byte to a lone surrogate, as sys.stdin does under a UTF-8
    locale; with "strict" such a byte raises a ValueError naming its line.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8", errors=errors) as fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if line:
                    yield lineno, line
        except UnicodeDecodeError:
            # the reader decodes a block of lines at a time, so the error
            # does not tell which line holds the byte; find it
            lineno, exc = _undecodable_line(opener, path)
            raise ValueError(f"{path}, line {lineno}: {exc}") from None


def _undecodable_line(opener, path):
    """(lineno, UnicodeDecodeError within that line) of path's first bad byte."""
    with opener(path, "rt", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8", "surrogateescape").decode("utf-8")
            except UnicodeDecodeError as exc:
                return lineno, exc
    raise AssertionError(f"{path}: no undecodable byte found")


def load_dataset(path, schema: FeatureSchema, taxonomy: AttackTaxonomy,
                 strict: bool = False) -> Dataset:
    """Load and encode a record file, preserving file order.

    Records are encoded CHUNK at a time by encode_records. Parse or encode
    failures are re-raised with the offending line number; the first one
    in file order wins.
    """
    blocks, labels = [], []
    raws, linenos = [], []

    def encode_pending():
        X, y, failures = encode_records(raws, schema, taxonomy, strict=strict)
        if failures:
            pos, exc = failures[0]
            raise type(exc)(f"{path}, line {linenos[pos]}: {exc}") from None
        blocks.append(X)
        labels.append(y)
        raws.clear()
        linenos.clear()

    for lineno, line in iter_lines(path):
        try:
            raw = parse_record(line)
        except (FieldCountError, EmptyLabelError) as exc:
            encode_pending()
            raise type(exc)(f"{path}, line {lineno}: {exc}") from None
        raws.append(raw)
        linenos.append(lineno)
        if len(raws) == CHUNK:
            encode_pending()
    if raws:
        encode_pending()
    if not blocks:
        raise EmptyDatasetError(f"{path}: no records")
    return Dataset(X=np.concatenate(blocks), y=np.concatenate(labels))

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
    NumericParseError,
    UnknownSymbolError,
)
from .schema import CONTINUOUS, N_CLASSES, N_FEATURES, AttackTaxonomy, FeatureSchema


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


def parse_record(line: str) -> RawRecord:
    """Parse one record line into 41 trimmed fields and a normalized label.

    Normalization trims whitespace per field and strips one trailing '.'
    from the label.
    """
    fields = [f.strip() for f in line.split(",")]
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


def iter_lines(path):
    """Yield (lineno, line) from a text or gzip file, skipping blank lines."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rt", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


def load_dataset(path, schema: FeatureSchema, taxonomy: AttackTaxonomy,
                 strict: bool = False) -> Dataset:
    """Load and encode a record file, preserving file order.

    Parse or encode failures are re-raised with the offending line number.
    """
    vectors, labels = [], []
    for lineno, line in iter_lines(path):
        try:
            raw = parse_record(line)
            vec, cid = encode_record(raw, schema, taxonomy, strict=strict)
        except (FieldCountError, EmptyLabelError, NumericParseError,
                UnknownSymbolError) as exc:
            raise type(exc)(f"{path}, line {lineno}: {exc}") from None
        vectors.append(vec)
        labels.append(cid)
    if not vectors:
        raise EmptyDatasetError(f"{path}: no records")
    return Dataset(X=np.array(vectors), y=np.array(labels, dtype=np.int64))

"""Streaming detection and prevention: classify records, apply policy.

Records arrive as KDD-format lines, with (42 fields) or without (41
fields) labels; labels never influence decisions, only the optional live
accuracy tallies. Malformed lines (any IdpsError raised while parsing or
encoding) degrade to an alert verdict — the engine fails safe and loud,
and neighboring records are unaffected. Any other exception is a bug and
propagates.

Lines are parsed one at a time; the parsed records are encoded, scaled
and scored in chunks, each row with the bits it gets alone. A chunk
closes at CHUNK records or, on a live feed, as soon as no further line is
waiting, so a verdict never waits for input that has not arrived.
"""

from dataclasses import dataclass, field

import numpy as np

from .exceptions import FieldCountError, IdpsError
from .ingest import (
    CHUNK,
    RawRecord,
    encode_record,
    encode_records,
    parse_record,
    split_fields,
)
from .metrics import alarm_outcome
from .mlp import forward
from .schema import N_CLASSES, N_FEATURES

ALLOW = "allow"
ALERT = "alert"
BLOCK = "block"

_ACTIONS = (ALLOW, ALERT, BLOCK)


@dataclass(frozen=True)
class Policy:
    """Class id -> action table; must cover all classes 0..5."""

    action_of: dict

    def __post_init__(self):
        for cid in range(N_CLASSES):
            if self.action_of.get(cid) not in _ACTIONS:
                raise ValueError(f"policy must map class {cid} to one of {_ACTIONS}")


def default_policy() -> Policy:
    """Allow normal, block the four attack categories, alert on other."""
    return Policy(action_of={0: ALLOW, 1: BLOCK, 2: BLOCK, 3: BLOCK,
                             4: BLOCK, 5: ALERT})


def decide(predicted: int, policy: Policy) -> str:
    """Pure policy lookup."""
    return policy.action_of[predicted]


@dataclass(frozen=True)
class Verdict:
    """One decision: record index, predicted class, action, class scores.

    predicted is -1 for malformed input (action alert, scores zero),
    whose error text and exception class name (cause) are kept;
    actual carries the stream label when one was present.
    """

    record_index: int
    predicted: int
    action: str
    scores: tuple
    actual: int | None = None
    error: str | None = None
    cause: str | None = None


@dataclass
class StreamSummary:
    """Running totals over one stream."""

    n_records: int = 0
    n_errors: int = 0
    action_counts: dict = field(default_factory=lambda: {a: 0 for a in _ACTIONS})
    alarm_counts: dict = field(default_factory=dict)
    cause_counts: dict = field(default_factory=dict)

    def update(self, verdict: Verdict) -> None:
        self.n_records += 1
        self.action_counts[verdict.action] += 1
        if verdict.error is not None:
            self.n_errors += 1
            self.cause_counts[verdict.cause] = (
                self.cause_counts.get(verdict.cause, 0) + 1)
        elif verdict.actual is not None:
            kind = alarm_outcome(verdict.predicted, verdict.actual)
            self.alarm_counts[kind] = self.alarm_counts.get(kind, 0) + 1

    def render(self) -> str:
        lines = [f"records {self.n_records}", f"errors {self.n_errors}"]
        for cause in sorted(self.cause_counts):
            lines.append(f"cause {cause} {self.cause_counts[cause]}")
        for action in _ACTIONS:
            lines.append(f"{action} {self.action_counts[action]}")
        for kind in ("true_positive", "false_positive",
                     "false_negative", "true_negative"):
            if kind in self.alarm_counts:
                lines.append(f"{kind} {self.alarm_counts[kind]}")
        return "\n".join(lines)


def _parse_stream_line(line):
    """Parse a labeled (42-field) or unlabeled (41-field) stream line.

    Labeled lines go through ingest.parse_record. An unlabeled line gets
    the empty label, which parse_record never returns.
    """
    n_fields = line.count(",") + 1
    if n_fields == N_FEATURES + 1:
        return parse_record(line)
    if n_fields == N_FEATURES:
        return RawRecord(features=split_fields(line), label="")
    raise FieldCountError(
        f"expected {N_FEATURES} or {N_FEATURES + 1} fields, got {n_fields}"
    )


def _error_verdict(index, exc, zeros):
    return Verdict(record_index=index, predicted=-1, action=ALERT,
                   scores=zeros, error=str(exc), cause=type(exc).__name__)


def _score_chunk(pending, raws, bundle, schema, policy, zeros):
    """Encode and score the buffered records at once; yield pending verdicts.

    pending holds the parse-error Verdicts and one record index per raw,
    in arrival order. A record that fails to encode becomes an error
    verdict in its place. The (n, 1, n_features) stack keeps each row's
    scores bit-identical to scoring it alone.
    """
    # encode_record is passed from this module's namespace, so a wrapper
    # installed as engine.encode_record sees every record that needs it
    X, classes, failures = encode_records(raws, schema, bundle.taxonomy,
                                          strict=True, encode=encode_record)
    failed = dict(failures)
    if len(X):
        scaled = bundle.scaler.transform(X)
        scores = forward(bundle.network, scaled[:, None, :])[:, 0, :]
        scored = zip(np.argmax(scores, axis=1).tolist(), scores.tolist(),
                     classes.tolist())
    records = enumerate(raws)
    for item in pending:
        if isinstance(item, Verdict):
            yield item
            continue
        pos, raw = next(records)
        if pos in failed:
            yield _error_verdict(item, failed[pos], zeros)
            continue
        predicted, row, cid = next(scored)
        yield Verdict(
            record_index=item,
            predicted=predicted,
            action=decide(predicted, policy),
            scores=tuple(row),
            actual=cid if raw.label else None,
        )


def process_stream(lines, bundle, schema, policy: Policy | None = None,
                   chunk: int = CHUNK, idle=None):
    """Yield one Verdict per input line, in arrival order.

    bundle is a loaded ModelBundle; its scaler and taxonomy are applied to
    every record. Encoding is strict: symbols unknown to the schema are
    treated as malformed input (alert), never silently coded.

    Parsed records are encoded and scored chunk at a time, so a verdict
    may wait for up to chunk - 1 later records. idle, if given, is called
    after every line, blank and malformed ones included; when it returns
    true the records pending so far are scored and their verdicts yielded
    before the next line is read. A live reader passes "no complete line
    is waiting", so a verdict waits only for records that have already
    arrived. With chunk=1 each verdict is yielded before the next line is
    read.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    if policy is None:
        policy = default_policy()
    zeros = tuple(0.0 for _ in range(bundle.network.layout.output_size))
    pending, raws = [], []
    index = -1
    for line in lines:
        line = line.strip()
        if line:
            index += 1
            try:
                raw = _parse_stream_line(line)
            except IdpsError as exc:
                verdict = _error_verdict(index, exc, zeros)
                if raws:
                    pending.append(verdict)
                else:
                    yield verdict
            else:
                raws.append(raw)
                pending.append(index)
        if raws and (len(raws) == chunk or (idle is not None and idle())):
            yield from _score_chunk(pending, raws, bundle, schema, policy,
                                    zeros)
            pending, raws = [], []
    if raws:
        yield from _score_chunk(pending, raws, bundle, schema, policy, zeros)

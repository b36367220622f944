import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpskit import engine
from idpskit.engine import (
    ALERT,
    ALLOW,
    BLOCK,
    CHUNK,
    Policy,
    StreamSummary,
    decide,
    default_policy,
    process_stream,
)
from idpskit.exceptions import IdpsError
from idpskit.ingest import map_attack
from idpskit.metrics import alarm_tally
from idpskit.mlp import NetworkLayout, init_network
from idpskit.model_io import ModelBundle
from idpskit.preprocessing import RangeScaler
from idpskit.schema import CONTINUOUS, default_schema, default_taxonomy


def normal_predicting_bundle():
    """Zero network: every record scores uniform, argmax 0 -> allow."""
    net = init_network(NetworkLayout(41, (5,), 6), seed=0)
    for w in net.weights:
        w[:] = 0.0
    scaler = RangeScaler()
    scaler.min_ = np.zeros(41)
    scaler.max_ = np.ones(41)
    return ModelBundle(network=net, scaler=scaler,
                       taxonomy=default_taxonomy(), seed=0)


def schema_with_codes():
    schema = default_schema()
    schema.descriptors[2].code_map.update({"http": 0, "ecr_i": 1})
    schema.descriptors[3].code_map.update({"SF": 0})
    return schema


def labeled_line(protocol="tcp", service="http", label="normal"):
    return ",".join(["0", protocol, service, "SF"] + ["0"] * 37) + f",{label}."


def unlabeled_line(protocol="tcp", service="http"):
    return ",".join(["0", protocol, service, "SF"] + ["0"] * 37)


class TestPolicy:
    def test_default_policy_table(self):
        policy = default_policy()
        assert decide(0, policy) == ALLOW
        assert decide(1, policy) == BLOCK
        assert decide(2, policy) == BLOCK
        assert decide(3, policy) == BLOCK
        assert decide(4, policy) == BLOCK
        assert decide(5, policy) == ALERT

    def test_policy_must_be_total(self):
        with pytest.raises(ValueError):
            Policy(action_of={0: ALLOW})

    def test_policy_rejects_unknown_action(self):
        table = default_policy().action_of.copy()
        table[2] = "drop"
        with pytest.raises(ValueError):
            Policy(action_of=table)

    def test_decide_is_pure(self):
        policy = default_policy()
        assert all(decide(3, policy) == BLOCK for _ in range(5))


class TestProcessStream:
    def test_three_normal_records_allow_in_order(self):
        bundle = normal_predicting_bundle()
        lines = [labeled_line() for _ in range(3)]
        verdicts = list(process_stream(lines, bundle, schema_with_codes()))
        assert [v.action for v in verdicts] == [ALLOW] * 3
        assert [v.record_index for v in verdicts] == [0, 1, 2]
        assert all(v.predicted == 0 for v in verdicts)
        assert all(len(v.scores) == 6 for v in verdicts)

    def test_malformed_line_is_isolated(self):
        bundle = normal_predicting_bundle()
        lines = [labeled_line(), "garbage,line", labeled_line()]
        verdicts = list(process_stream(lines, bundle, schema_with_codes()))
        assert len(verdicts) == 3
        assert verdicts[0].action == ALLOW
        assert verdicts[1].action == ALERT
        assert verdicts[1].predicted == -1
        assert verdicts[1].error is not None
        assert verdicts[2].action == ALLOW

    def test_unknown_symbol_degrades_to_alert(self):
        bundle = normal_predicting_bundle()
        lines = [labeled_line(service="nosuchservice")]
        verdicts = list(process_stream(lines, bundle, schema_with_codes()))
        assert verdicts[0].action == ALERT
        assert verdicts[0].error is not None

    @pytest.mark.parametrize("line,error", [
        ("garbage,line", "expected 41 or 42 fields, got 2"),
        (labeled_line() + ",extra", "expected 41 or 42 fields, got 43"),
        (labeled_line(label=""), "record has an empty label"),
    ])
    def test_malformed_line_error_text(self, line, error):
        verdict, = process_stream([line], normal_predicting_bundle(),
                                  schema_with_codes())
        assert (verdict.predicted, verdict.action) == (-1, ALERT)
        assert verdict.error == error

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
    def test_non_finite_value_degrades_to_alert(self, value):
        line = ",".join(["0", "tcp", "http", "SF", value] + ["0"] * 36)
        verdict, = process_stream([line + ",normal."], normal_predicting_bundle(),
                                  schema_with_codes())
        assert (verdict.predicted, verdict.action) == (-1, ALERT)
        assert "not finite" in verdict.error

    def test_program_errors_propagate(self, monkeypatch):
        def broken_forward(net, x):
            raise ValueError("a bug, not bad input")

        monkeypatch.setattr(engine, "forward", broken_forward)
        with pytest.raises(ValueError, match="a bug"):
            list(process_stream([labeled_line()], normal_predicting_bundle(),
                                schema_with_codes()))

    def test_unlabeled_lines_have_no_actual(self):
        bundle = normal_predicting_bundle()
        verdicts = list(process_stream([unlabeled_line()], bundle,
                                       schema_with_codes()))
        assert verdicts[0].actual is None
        assert verdicts[0].action == ALLOW

    def test_labeled_lines_carry_actual_class(self):
        bundle = normal_predicting_bundle()
        lines = [labeled_line(label="smurf"), labeled_line(label="normal")]
        verdicts = list(process_stream(lines, bundle, schema_with_codes()))
        assert verdicts[0].actual == 1
        assert verdicts[1].actual == 0

    def test_blank_lines_skipped(self):
        bundle = normal_predicting_bundle()
        lines = ["", labeled_line(), "   ", labeled_line()]
        verdicts = list(process_stream(lines, bundle, schema_with_codes()))
        assert [v.record_index for v in verdicts] == [0, 1]

    def test_tallies_match_batch_alarm_computation(self):
        bundle = normal_predicting_bundle()
        labels = ["normal", "smurf", "satan", "normal", "perl"]
        lines = [labeled_line(label=name) for name in labels]
        summary = StreamSummary()
        preds, actuals = [], []
        for v in process_stream(lines, bundle, schema_with_codes()):
            summary.update(v)
            preds.append(v.predicted)
            actuals.append(v.actual)
        batch = alarm_tally(np.array(preds), np.array(actuals))
        assert summary.alarm_counts.get("true_positive", 0) == batch.tp
        assert summary.alarm_counts.get("false_positive", 0) == batch.fp
        assert summary.alarm_counts.get("false_negative", 0) == batch.fn
        assert summary.alarm_counts.get("true_negative", 0) == batch.tn
        assert summary.n_records == 5

    def test_summary_render(self):
        summary = StreamSummary()
        bundle = normal_predicting_bundle()
        for v in process_stream([labeled_line()], bundle, schema_with_codes()):
            summary.update(v)
        text = summary.render()
        assert "records 1" in text
        assert "allow 1" in text


def random_bundle(seed):
    """A random network over a wide scaler, so scores differ per record."""
    bundle = normal_predicting_bundle()
    bundle.network = init_network(NetworkLayout(41, (5,), 6), seed=seed)
    bundle.scaler.max_ = np.full(41, 100.0)
    return bundle


def twin_fields():
    """41 feature texts the codes of schema_with_codes can encode."""
    schema = schema_with_codes()
    return st.tuples(*(
        st.floats(-10.0, 200.0).map(repr) if d.kind == CONTINUOUS
        else st.sampled_from(sorted(d.code_map))
        for d in schema.descriptors
    ))


class TestLabelsNeverDecide:
    @given(
        fields=twin_fields(),
        name=st.sampled_from(["normal", "smurf", "SATAN", " perl ", "zzz_unknown"]),
        dot=st.sampled_from(["", "."]),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=60, deadline=None)
    def test_labeled_line_decides_like_its_unlabeled_twin(self, fields, name,
                                                          dot, seed):
        unlabeled = ",".join(fields)
        labeled_v, unlabeled_v = process_stream(
            [f"{unlabeled},{name}{dot}", unlabeled], random_bundle(seed),
            schema_with_codes())
        assert labeled_v.error is None and unlabeled_v.error is None
        assert labeled_v.predicted == unlabeled_v.predicted
        assert labeled_v.action == unlabeled_v.action
        assert labeled_v.scores == unlabeled_v.scores
        assert labeled_v.actual == map_attack(name, default_taxonomy())
        assert unlabeled_v.actual is None


def per_row_process_stream(lines, bundle, schema, policy=None):
    """Reference for process_stream: each row scaled and scored on its own.

    A copy of the engine before chunked scoring, plus the cause field.
    """
    if policy is None:
        policy = default_policy()
    zeros = tuple(0.0 for _ in range(bundle.network.layout.output_size))
    index = -1
    for line in lines:
        line = line.strip()
        if not line:
            continue
        index += 1
        try:
            raw = engine._parse_stream_line(line)
            vec, cid = engine.encode_record(raw, schema, bundle.taxonomy,
                                            strict=True)
        except IdpsError as exc:
            yield engine.Verdict(record_index=index, predicted=-1, action=ALERT,
                                 scores=zeros, error=str(exc),
                                 cause=type(exc).__name__)
            continue
        scaled = bundle.scaler.transform(vec.reshape(1, -1))[0]
        scores = engine.forward(bundle.network, scaled)
        predicted = int(np.argmax(scores))
        yield engine.Verdict(
            record_index=index,
            predicted=predicted,
            action=decide(predicted, policy),
            scores=tuple(scores.tolist()),
            actual=cid if raw.label else None,
        )


def wide_bundle(seed):
    """random_bundle with the default 20-unit hidden layer."""
    bundle = random_bundle(seed)
    bundle.network = init_network(NetworkLayout(41, (20,), 6), seed=seed)
    return bundle


MALFORMED = (
    "garbage,line",                                   # FieldCountError
    labeled_line(label=""),                           # EmptyLabelError
    ",".join(["0", "tcp", "http", "SF", "nan"] + ["0"] * 36),  # NumericParseError
    labeled_line(service="nosuchservice"),            # UnknownSymbolError
)
CHUNKS = (1, 2, 3, 64, 1000)


def random_record(rng):
    """41 feature texts schema_with_codes can encode, some out of scale."""
    return ",".join(
        repr(float(rng.uniform(-10.0, 200.0))) if d.kind == CONTINUOUS
        else str(rng.choice(sorted(d.code_map)))
        for d in schema_with_codes().descriptors
    )


@st.composite
def mixed_streams(draw):
    """Labeled, unlabeled, malformed and blank lines.

    Record values come from a drawn numpy seed, so a failing stream shrinks
    by its line kinds and not by 41 values per line.
    """
    kinds = draw(st.lists(
        st.sampled_from(["labeled", "unlabeled", "malformed", "blank"]),
        max_size=100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lines = []
    for kind in kinds:
        if kind == "malformed":
            lines.append(MALFORMED[rng.integers(len(MALFORMED))])
        elif kind == "blank":
            lines.append(str(rng.choice(["", "  "])))
        elif kind == "labeled":
            name = rng.choice(["normal", "smurf", "zzz_unknown"])
            lines.append(f"{random_record(rng)},{name}.")
        else:
            lines.append(random_record(rng))
    return lines


def boundary_stream(n, bad):
    """n record lines, malformed at the positions in bad."""
    rng = np.random.default_rng(n)
    return [MALFORMED[i % len(MALFORMED)] if i in bad else random_record(rng)
            for i in range(n)]


def assert_matches_per_row(lines, bundle, schema):
    """process_stream equals the per-row reference at every chunk size.

    Only the first differing verdict is reported, so a failure stays cheap
    to explain and to shrink.
    """
    expected = list(per_row_process_stream(lines, bundle, schema))
    for chunk in CHUNKS:
        got = list(process_stream(lines, bundle, schema, chunk=chunk))
        assert len(got) == len(expected), f"chunk={chunk}"
        diff = next(((g, e) for g, e in zip(got, expected) if g != e), None)
        assert diff is None, f"chunk={chunk}"
    return expected


class TestChunkedScoring:
    @given(lines=mixed_streams(), seed=st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_every_chunk_size_matches_per_row_scoring(self, lines, seed):
        assert_matches_per_row(lines, wide_bundle(seed), schema_with_codes())

    @pytest.mark.parametrize("bad", [
        {0}, {129}, {0, 129}, {1, 2, 3}, {63, 64}, {62, 63, 64, 65},
        {127, 128}, set(range(130)),
    ], ids=["first", "last", "both_ends", "after_first", "chunk_edge",
            "around_edge", "second_edge", "all_malformed"])
    def test_malformed_at_chunk_boundaries(self, bad):
        lines = boundary_stream(130, bad)
        verdicts = assert_matches_per_row(lines, wide_bundle(1),
                                          schema_with_codes())
        assert [v.record_index for v in verdicts] == list(range(130))
        assert {v.record_index for v in verdicts if v.error} == bad

    def test_chunk_one_yields_before_reading_on(self):
        lines = boundary_stream(8, {0, 3, 7})

        def read_up_to(k):
            for i, line in enumerate(lines):
                if i > k:
                    raise AssertionError(f"line {i} read before verdict {k}")
                yield line

        bundle, schema = wide_bundle(2), schema_with_codes()
        for k in range(len(lines)):
            stream = process_stream(read_up_to(k), bundle, schema, chunk=1)
            verdicts = [next(stream) for _ in range(k + 1)]
            assert verdicts[-1].record_index == k
            assert (verdicts[-1].error is not None) == (k in {0, 3, 7})

    def test_idle_yields_before_reading_on(self):
        lines = boundary_stream(8, {0, 3, 7})

        def read_up_to(k):
            for i, line in enumerate(lines):
                if i > k:
                    raise AssertionError(f"line {i} read before verdict {k}")
                yield line

        bundle, schema = wide_bundle(2), schema_with_codes()
        for k in range(len(lines)):
            stream = process_stream(read_up_to(k), bundle, schema,
                                    chunk=CHUNK, idle=lambda: True)
            verdicts = [next(stream) for _ in range(k + 1)]
            assert verdicts[-1].record_index == k
            assert (verdicts[-1].error is not None) == (k in {0, 3, 7})

    def test_burst_is_scored_when_idle_after_any_line(self):
        # a burst may end on a record, a malformed line or a blank line;
        # idle is true only once the burst's last line has been read
        records = boundary_stream(6, {2, 5})
        lines = [records[0], records[1], "", records[2], records[3], "  ",
                 records[4], records[5], ""]
        bundle, schema = wide_bundle(3), schema_with_codes()
        for k in range(len(lines)):
            read = []

            def burst():
                for line in lines:
                    if len(read) > k:
                        raise AssertionError(f"read past the burst of {k + 1}")
                    read.append(line)
                    yield line

            expected = list(per_row_process_stream(lines[:k + 1], bundle,
                                                   schema))
            stream = process_stream(burst(), bundle, schema,
                                    idle=lambda: len(read) == k + 1)
            assert [next(stream) for _ in expected] == expected

    @given(lines=mixed_streams(), seed=st.integers(0, 20),
           idles=st.lists(st.booleans(), min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_idle_pattern_never_changes_verdicts(self, lines, seed, idles):
        bundle, schema = wide_bundle(seed), schema_with_codes()
        calls = iter(range(10**6))

        def idle():
            return idles[next(calls) % len(idles)]

        expected = list(per_row_process_stream(lines, bundle, schema))
        assert list(process_stream(lines, bundle, schema, idle=idle)) == expected
        burst = list(process_stream(lines, bundle, schema, idle=lambda: False))
        assert burst == expected

    def test_chunk_must_be_positive(self):
        with pytest.raises(ValueError, match="chunk"):
            list(process_stream([labeled_line()], normal_predicting_bundle(),
                                schema_with_codes(), chunk=0))


class TestErrorCauses:
    def test_summary_counts_each_cause(self):
        lines = [labeled_line(), *MALFORMED, unlabeled_line(), MALFORMED[0]]
        summary = StreamSummary()
        causes = []
        for v in process_stream(lines, normal_predicting_bundle(),
                                schema_with_codes()):
            summary.update(v)
            causes.append(v.cause)
        assert causes == [None, "FieldCountError", "EmptyLabelError",
                          "NumericParseError", "UnknownSymbolError", None,
                          "FieldCountError"]
        assert summary.cause_counts == {
            "FieldCountError": 2, "EmptyLabelError": 1,
            "NumericParseError": 1, "UnknownSymbolError": 1}
        text = summary.render().splitlines()
        assert text[:6] == ["records 7", "errors 5",
                            "cause EmptyLabelError 1",
                            "cause FieldCountError 2",
                            "cause NumericParseError 1",
                            "cause UnknownSymbolError 1"]

    def test_clean_stream_renders_no_cause_lines(self):
        summary = StreamSummary()
        for v in process_stream([labeled_line(), unlabeled_line()],
                                normal_predicting_bundle(), schema_with_codes()):
            summary.update(v)
        assert summary.render().splitlines() == [
            "records 2", "errors 0", "allow 2", "alert 0", "block 0",
            "true_negative 1"]

"""Tiny-size self-test of the benchmark: seeded inputs and output checks.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import contextlib
import io
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402
from idpskit import cli  # noqa: E402

MODEL = os.path.join(HERE, "fixture", "model.txt")
SCHEMA = os.path.join(HERE, "fixture", "schema.txt")


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    assert rc == 0, err.getvalue()
    return out.getvalue(), err.getvalue()


def test_generator_matches_pinned_fingerprint():
    assert inputs.check_generator() is None


def test_same_seed_same_inputs():
    a = inputs.detect_stream(inputs.corpus_lines(3, 2000), 3)
    b = inputs.detect_stream(inputs.corpus_lines(3, 2000), 3)
    c = inputs.detect_stream(inputs.corpus_lines(4, 2000), 4)
    assert a == b
    assert a != c
    lines, causes = a
    assert set(causes) == {None, *inputs.CAUSES}
    assert any(line.count(",") == 40 for line, cause in zip(lines, causes)
               if cause is None)


@pytest.fixture(scope="module")
def detected(tmp_path_factory):
    lines, causes = inputs.detect_stream(inputs.corpus_lines(5, 1500), 5)
    path = tmp_path_factory.mktemp("detect") / "stream.txt"
    inputs.write_lines(path, lines)
    out, err = run_cli(["detect", "--data", str(path), "--model", MODEL,
                        "--schema", SCHEMA])
    labeled = [line.count(",") == 41 for line in lines]
    return out.splitlines(), err, causes, labeled


def test_checks_pass_on_real_verdicts(detected):
    verdicts, err, causes, labeled = detected
    tally = checks.check_verdicts(verdicts, causes)
    assert tally.failed == 0 and tally.problems == []
    assert tally.caught == tally.injected and sum(tally.injected.values()) > 0
    reported, accuracy, problems = checks.check_stream_summary(err, causes,
                                                               labeled)
    assert problems == []
    assert reported == tally.injected
    assert accuracy >= checks.DETECT_ACCURACY_FLOOR


def _tamper_action(line):
    parts = line.split(",")
    parts[2] = "allow" if parts[2] != "allow" else "block"
    return ",".join(parts)


@pytest.mark.parametrize("tamper", ["action", "drop", "swap", "malformed"])
def test_checks_catch_tampered_verdicts(detected, tamper):
    verdicts, _, causes, _ = detected
    bad = list(verdicts)
    first_malformed = next(i for i, c in enumerate(causes) if c is not None)
    if tamper == "action":
        bad[7] = _tamper_action(bad[7])
    elif tamper == "drop":
        del bad[-1]
    elif tamper == "swap":
        bad[3], bad[4] = bad[4], bad[3]
    else:
        bad[first_malformed] = bad[first_malformed].replace("-1,alert", "0,allow")
    assert checks.check_verdicts(bad, causes).failed > 0


def test_summary_check_catches_miscounted_actions(detected):
    _, err, causes, labeled = detected
    tampered = err.replace("\nblock ", "\nblock 1", 1)
    assert checks.check_stream_summary(tampered, causes, labeled)[2]


def test_checks_catch_truncated_history(tmp_path):
    corpus = tmp_path / "corpus.txt"
    inputs.write_lines(corpus, inputs.corpus_lines(6, 400))
    prep, out = tmp_path / "prep", tmp_path / "train"
    run_cli(["prep", "--data", str(corpus), "--out", str(prep),
             "--schema", SCHEMA, "--seed", "42"])
    stdout, _ = run_cli(["train", "--data", str(prep), "--model",
                         str(out / "model.txt"), "--out", str(out),
                         "--max-epochs", "4", "--seed", "42"])
    history = (out / "history.csv").read_text()
    assert checks.check_train(stdout, history, 4) == []
    lines = history.splitlines()
    assert checks.check_train(stdout, "\n".join(lines[:-1]) + "\n", 4)
    assert checks.check_train(stdout, history[:-12], 4)
    assert checks.check_train(stdout.replace("max_epochs", "patience_exhausted"),
                              history, 4)


def test_traced_run_fails_on_missing_functions_and_spans():
    from idpskit import engine

    tracer = tracing.Tracer("test")
    with pytest.raises(tracing.MissingSpans):
        tracer.wrap(engine, "parse_record_batch", "ingest.parse_record")
    with tracer.span("cli.detect"):
        with tracer.span("engine.process_stream"):
            pass
    ix = tracing.SpanIndex(tracer.spans)
    assert ix.total("engine.process_stream", "detect") >= 0
    with pytest.raises(tracing.MissingSpans):
        ix.median("mlp.forward", "detect")
    with pytest.raises(tracing.MissingSpans):
        ix.total("engine.process_stream", "eval")

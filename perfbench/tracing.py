"""The traced run: the CLI chain in-process, with a span around each call.

The benchmark wraps the public functions that ``idpskit.cli`` and the
modules it calls look up at call time, then runs the commands through
``idpskit.cli.main`` in the order a user runs them. No file of the program
changes. Spans (name, start, end, parent) live in memory and are written
out at the end; module self time is span time minus child-span time.

The traced run is the same for every workload, so each one reports every
per-module metric; only the trace id differs. A function the run wraps that
is gone, or a metric whose spans are missing, fails the run rather than
reading as zero.
"""

import contextlib
import gzip
import io
import json
import os
import statistics
import time
from collections import defaultdict

import checks
import workloads

OVERHEAD_RECORDS = 5_000  # records streamed with and without wrappers
OVERHEAD_REPS = 3
PACED_TRACE_RECORDS = 4_000
MODULES = ("cli", "ingest", "preprocessing", "mlp", "metrics", "fixedpoint",
           "model_io", "engine")
ROC_CURVE_FILE = ("roc_class", "roc_attack")


class MissingSpans(RuntimeError):
    """A wrapped function is gone, or a metric's spans were never recorded."""


class Tracer:
    """Spans in memory: [id, parent id, name, start, end, size]."""

    def __init__(self, trace_id: str):
        self.trace_id = trace_id
        self.spans = []
        self._stack = []
        self._patched = []

    def open(self, name: str, size: int = 0) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else -1,
                name, time.perf_counter(), 0.0, size]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, size: int = 0):
        s = self.open(name, size)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, owner, attr: str, name: str, size=None) -> None:
        """Replace owner.attr by a wrapper that records a span per call."""
        fn = self._original(owner, attr)

        def wrapper(*args, **kwargs):
            s = self.open(name, size(*args) if size else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(s)

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def wrap_stream(self, owner, attr: str, name: str) -> None:
        """Wrap a generator function: one span per item it yields."""
        fn = self._original(owner, attr)

        def wrapper(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                s = self.open(name, 1)
                try:
                    item = next(it)
                except StopIteration:
                    s[5] = 0
                    return
                finally:
                    self.close(s)
                yield item

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    @staticmethod
    def _original(owner, attr: str):
        fn = getattr(owner, attr, None)
        if fn is None:
            raise MissingSpans(f"{owner.__name__}.{attr} is gone; "
                               "update the traced run in tracing.py")
        return fn

    def restore(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"trace_id": self.trace_id,
                       "fields": ["id", "parent", "name", "start", "end", "size"],
                       "spans": self.spans}, fh)


def wrap_engine(tracer: Tracer) -> None:
    """The per-record steps of ``detect``, as the engine looks them up."""
    from idpskit import cli, engine, preprocessing

    tracer.wrap_stream(cli, "process_stream", "engine.process_stream")
    tracer.wrap(engine, "_parse_stream_line", "ingest.parse_record")
    tracer.wrap(engine, "encode_record", "ingest.encode_record")
    tracer.wrap(preprocessing.RangeScaler, "transform",
                "preprocessing.transform")
    tracer.wrap(engine, "forward", "mlp.forward")


def wrap_program(tracer: Tracer) -> None:
    from idpskit import cli, metrics

    def rows(x, *_):
        return len(x)

    for owner, attr, name, size in (
        (cli, "load_dataset", "ingest.load_dataset", None),
        (cli, "split_dataset", "preprocessing.split_dataset", None),
        (cli, "write_partition_csv", "cli.write_partition_csv", None),
        (cli, "read_partition_csv", "cli.read_partition_csv", None),
        (cli, "fit_scaler", "preprocessing.fit_scaler", None),
        (cli, "train_network", "mlp.train", None),
        (cli, "save_model", "model_io.save_model", None),
        (cli, "load_model", "model_io.load_model", None),
        (cli, "evaluate", "metrics.evaluate", None),
        (metrics, "forward", "mlp.forward", lambda net, x: len(x)),
        (metrics, "roc", "metrics.roc", rows),
        (cli, "quantize_network", "fixedpoint.quantize_network", None),
        (cli, "predict_class", "mlp.predict_class", lambda net, x: len(x)),
        (cli, "q_predict_class", "fixedpoint.q_predict_class",
         lambda q, x: len(x)),
    ):
        tracer.wrap(owner, attr, name, size)
    wrap_engine(tracer)


def run_command(tracer: Tracer, run, argv) -> tuple:
    """idpskit.cli.main(argv) in-process under a cli.<command> span."""
    from idpskit import cli

    out, err = io.StringIO(), io.StringIO()
    run.attempted += 1
    with tracer.span(f"cli.{argv[0]}"), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    if rc != 0:
        run.fail([f"idpskit {argv[0]} returned {rc}: {err.getvalue()[-300:]}"])
    return out.getvalue(), err.getvalue()


def overhead_ratio(run, lines) -> float:
    """Engine time per record with the span wrappers over without them.

    This covers the per-record wrappers of ``wrap_engine`` only: the other
    spans open once per command, epoch or batch, so the per-record path is
    where tracing costs. It is not a comparison with the untraced runs,
    which are other processes.
    """
    from idpskit import cli
    from idpskit.model_io import load_model
    from idpskit.schema import load_schema

    bundle = load_model(run.model)
    schema = load_schema(run.schema)

    def drain():
        t0 = time.perf_counter()
        for _ in cli.process_stream(lines, bundle, schema):
            pass
        return time.perf_counter() - t0

    plain, traced = [], []
    for _ in range(OVERHEAD_REPS):
        plain.append(drain())
        tracer = Tracer("overhead")
        wrap_engine(tracer)
        try:
            traced.append(drain())
        finally:
            tracer.restore()
    return statistics.median(traced) / statistics.median(plain)


class SpanIndex:
    """Queries over finished spans."""

    def __init__(self, spans):
        self.spans = spans
        self.child_time = defaultdict(float)
        self.root = []
        for s in spans:
            self.root.append(s[0] if s[1] < 0 else self.root[s[1]])
            if s[1] >= 0:
                self.child_time[s[1]] += s[4] - s[3]

    def command(self, name):
        return next((s for s in self.spans if s[2] == f"cli.{name}"), None)

    def under(self, name, command, parent=None):
        """The spans of name in one command; raises if there are none."""
        root = self.command(command)
        spans = [s for s in self.spans if s[2] == name and root
                 and self.root[s[0]] == root[0]
                 and (parent is None or s[1] == parent)]
        if not spans:
            raise MissingSpans(f"no {name} spans in idpskit {command}")
        return spans

    def total(self, name, command) -> float:
        return sum(s[4] - s[3] for s in self.under(name, command))

    def median(self, name, command) -> float:
        return statistics.median(s[4] - s[3] for s in self.under(name, command))

    def module_self(self) -> dict:
        """Self seconds per program module, over the cli.* command spans."""
        out = dict.fromkeys(MODULES, 0.0)
        for s in self.spans:
            module = s[2].split(".")[0]
            if module in out and self.spans[self.root[s[0]]][2].startswith("cli."):
                out[module] += (s[4] - s[3]) - self.child_time[s[0]]
        return out


def traced_run(run, workload: str, seed: int, trace_dir: str) -> dict:
    """Run the whole CLI chain traced; return the per-module metrics."""
    trace_id = f"{workload}-{seed}-{os.getpid()}-{time.time_ns()}"
    corpus = workloads.make_corpus(run, seed)
    data, stream, causes, labeled = workloads.detect_inputs(run, seed)
    prep, out = run.path("prep"), run.path("out")
    model = os.path.join(out, "model.txt")
    qmodel = os.path.join(out, "quantize", "qmodel.txt")
    budget = workloads.EPOCH_BUDGET

    tracer = Tracer(trace_id)
    wrap_program(tracer)
    try:
        seed_flag = ["--seed", str(workloads.PREP_SEED)]
        run_command(tracer, run, ["prep", "--data", corpus, "--out", prep,
                                  "--schema", run.schema, *seed_flag])
        train_out, _ = run_command(tracer, run, [
            "train", "--data", prep, "--model", model, "--out", out,
            "--max-epochs", str(budget), *seed_flag])
        for argv in (
            ["eval", "--data", prep, "--model", run.model, "--out",
             os.path.join(out, "eval")],
            ["roc", "--data", prep, "--model", run.model, "--out",
             os.path.join(out, "roc")],
            ["quantize", "--model", run.model, "--out",
             os.path.join(out, "quantize")],
            ["compare", "--data", prep, "--model", run.model, "--qmodel",
             qmodel, "--out", os.path.join(out, "compare")],
        ):
            run_command(tracer, run, argv)
        verdicts, stderr_text = run_command(tracer, run, [
            "detect", "--data", data, "--model", run.model, "--schema",
            run.schema, "--out", os.path.join(out, "detect")])
    finally:
        tracer.restore()

    history = workloads.read(os.path.join(out, "history.csv"))
    run.fail(checks.check_train(train_out, history, budget))
    workloads.check_audit(run, out)
    verdict_lines = verdicts.splitlines()
    workloads.check_detect_output(run, verdict_lines, stderr_text, causes,
                                  labeled)

    written = sum(name.startswith(ROC_CURVE_FILE)
                  for command in ("eval", "roc")
                  for name in os.listdir(os.path.join(out, command)))
    ratio = overhead_ratio(run, stream[:OVERHEAD_RECORDS])
    warmup, paced = workloads.paced_inputs(seed)
    late = workloads.paced_session(run, warmup, paced[:PACED_TRACE_RECORDS],
                                   0).get("generator_late_ms", [0.0])

    os.makedirs(trace_dir, exist_ok=True)
    trace_path = os.path.join(trace_dir, f"{trace_id}.json.gz")
    tracer.write(trace_path)
    run.notes["trace"] = os.path.relpath(trace_path, run.root)
    return per_module_metrics(SpanIndex(tracer.spans), history, budget,
                              verdict_lines, len(stream), written, ratio, late)


def per_module_metrics(ix: SpanIndex, history, budget, verdicts, records,
                       written, ratio, late) -> dict:
    """Per-record steps are medians over every line of the traced detect,
    malformed ones included; written counts the ROC files on disk."""
    epochs = len(history.splitlines()) - 1
    first_evaluate = ix.under("metrics.evaluate", "eval")[0]
    forward_train = ix.under("mlp.forward", "eval", parent=first_evaluate[0])
    roc_spans = ix.under("metrics.roc", "eval") + ix.under("metrics.roc", "roc")
    widest = max(s[5] for s in roc_spans)
    built = len(roc_spans)
    q_spans = ix.under("fixedpoint.q_predict_class", "compare")
    q_rows = sum(s[5] for s in q_spans) or 1
    stream_spans = ix.under("engine.process_stream", "detect")
    n_verdicts = len(verdicts)
    errors = sum(1 for v in verdicts if v.split(",")[1:2] == ["-1"])
    m = {
        "ingest.load_dataset_s": (ix.total("ingest.load_dataset", "prep"), "s"),
        "ingest.parse_record_us": (ix.median("ingest.parse_record", "detect") * 1e6, "us"),
        "ingest.encode_record_us": (ix.median("ingest.encode_record", "detect") * 1e6, "us"),
        "preprocessing.split_dataset_ms": (ix.total("preprocessing.split_dataset", "prep") * 1e3, "ms"),
        "preprocessing.transform_row_us": (ix.median("preprocessing.transform", "detect") * 1e6, "us"),
        "cli.write_partition_csv_s": (ix.total("cli.write_partition_csv", "prep"), "s"),
        "cli.read_partition_csv_s": (ix.total("cli.read_partition_csv", "eval"), "s"),
        "mlp.train_epoch_ms": (ix.total("mlp.train", "train") / max(epochs, 1) * 1e3, "ms"),
        "mlp.epochs": (epochs, "count"),
        "mlp.epoch_budget": (budget, "count"),
        "mlp.epochs_per_budget": (epochs / budget, "ratio"),
        "mlp.forward_batch_ms": (sum(s[4] - s[3] for s in forward_train) * 1e3, "ms"),
        "mlp.forward_row_us": (ix.median("mlp.forward", "detect") * 1e6, "us"),
        "metrics.evaluate_ms": (ix.total("metrics.evaluate", "eval") * 1e3, "ms"),
        "metrics.roc_ms": (statistics.median(
            s[4] - s[3] for s in roc_spans if s[5] == widest) * 1e3, "ms"),
        "metrics.roc_curves_built": (built, "count"),
        "metrics.roc_curves_written": (written, "count"),
        "metrics.roc_written_per_built": (written / max(built, 1), "ratio"),
        "fixedpoint.q_forward_us": (sum(s[4] - s[3] for s in q_spans) / q_rows * 1e6, "us"),
        "fixedpoint.quantize_network_ms": (ix.total("fixedpoint.quantize_network", "quantize") * 1e3, "ms"),
        "model_io.load_model_ms": (ix.median("model_io.load_model", "detect") * 1e3, "ms"),
        "model_io.save_model_ms": (ix.total("model_io.save_model", "train") * 1e3, "ms"),
        "engine.process_stream_us": (sum(s[4] - s[3] for s in stream_spans)
                                     / max(n_verdicts, 1) * 1e6, "us"),
        "engine.records": (records, "count"),
        "engine.verdicts": (n_verdicts, "count"),
        "engine.verdicts_per_record": (n_verdicts / max(records, 1), "ratio"),
        "engine.error_verdicts": (errors, "count"),
        "bench.generator_late_p99_ms": (workloads.percentile(late, 99), "ms"),
        "bench.trace_overhead_ratio": (ratio, "ratio"),
    }
    for module, seconds in ix.module_self().items():
        m[f"self_s.{module}"] = (seconds, "s")
    return m

"""Command-line pipeline: prep, train, eval, roc, quantize, compare, detect.

Every command resolves its configuration from flags (optionally layered
over a JSON config file, flags winning), writes a run_manifest.json
capturing the effective config plus input digests, and writes artifacts
atomically (temp name, then rename). Identical manifests give
byte-identical artifacts.
"""

import argparse
import codecs
import collections
import io
import json
import os
import sys

import numpy as np

from . import __version__
from .engine import CHUNK, StreamSummary, default_policy, process_stream
from .exceptions import IdpsError
from .fixedpoint import FixedFormat, q_predict_class, quantize_network
from .ingest import Dataset, iter_lines, load_dataset
from .metrics import evaluate
from .mlp import (
    NetworkLayout,
    TrainConfig,
    init_network,
    predict_class,
    train as train_network,
)
from .model_io import (
    ModelBundle,
    file_sha256,
    load_model,
    load_qmodel,
    save_model,
    save_qmodel,
    write_atomic,
)
from .preprocessing import SplitSpec, fit_scaler, split_dataset
from .schema import (
    CLASS_NAMES,
    N_CLASSES,
    default_schema,
    default_taxonomy,
    format_schema,
    format_taxonomy,
    load_schema,
    load_taxonomy,
)
from .validation import check_labels

PARTITIONS = ("train", "val", "test")
WRITE_BLOCK = 4096  # rows of a partition formatted at once


def write_manifest(out_dir, command: str, config: dict, inputs: list) -> None:
    # inputs are keyed by file name, not path: the manifest identifies the
    # run by its content and settings, so equal manifests mean equal
    # artifacts regardless of where the run happened
    digests = {}
    for path in sorted(set(inputs)):
        base = os.path.basename(path)
        key, n = base, 1
        while key in digests:
            n += 1
            key = f"{base}#{n}"
        digests[key] = file_sha256(path)
    manifest = {
        "tool": "idpskit",
        "tool_version": __version__,
        "command": command,
        "config": config,
        "inputs": digests,
    }
    write_atomic(os.path.join(out_dir, "run_manifest.json"),
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def write_partition_csv(path, d: Dataset) -> None:
    """One line per row: repr of each feature, then the class id.

    Each column's distinct values are formatted once. They are told apart
    by their bits, not their value, so -0.0 and 0.0 keep their own text.
    Lines are built and written WRITE_BLOCK rows at a time.
    """
    columns = []
    for col in d.X.T:
        keys = np.unique(col.view(np.int64))
        text = np.array([repr(v) for v in keys.view(np.float64).tolist()],
                        dtype=object)
        columns.append((keys, text))
    labels = [str(c) for c in d.y.tolist()]

    def blocks():
        # one block even with no rows: an empty partition is one "\n"
        for start in range(0, max(len(d), 1), WRITE_BLOCK):
            bits = d.X[start:start + WRITE_BLOCK].view(np.int64)
            cells = [text[np.searchsorted(keys, bits[:, j])].tolist()
                     for j, (keys, text) in enumerate(columns)]
            cells.append(labels[start:start + WRITE_BLOCK])
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    write_atomic(path, blocks())


def read_partition_csv(path) -> Dataset:
    rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2)
    return Dataset(X=np.ascontiguousarray(rows[:, :-1]),
                   y=check_labels(rows[:, -1], name=f"labels of {path}"))


def _counts_row(d: Dataset) -> list:
    return [int(c) for c in d.class_counts(N_CLASSES)]


def _split_report(parts: dict) -> tuple:
    header = "partition,size," + ",".join(
        CLASS_NAMES[c] for c in range(N_CLASSES))
    csv_lines = [header]
    txt_lines = [f"{'partition':>10} {'size':>8} " + " ".join(
        f"{CLASS_NAMES[c]:>8}" for c in range(N_CLASSES))]
    for name, d in parts.items():
        counts = _counts_row(d)
        csv_lines.append(f"{name},{len(d)}," + ",".join(str(c) for c in counts))
        txt_lines.append(f"{name:>10} {len(d):>8} " + " ".join(
            f"{c:>8}" for c in counts))
    return "\n".join(csv_lines) + "\n", "\n".join(txt_lines) + "\n"


def _parse_split(text: str) -> tuple:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"--split needs three fractions, got {text!r}")
    return tuple(parts)


def _parse_hidden(text: str) -> tuple:
    return tuple(int(p) for p in text.split(","))


def cmd_prep(args) -> int:
    schema = load_schema(args.schema) if args.schema else default_schema()
    taxonomy = load_taxonomy(args.taxonomy) if args.taxonomy else default_taxonomy()
    dataset = load_dataset(args.data, schema, taxonomy, strict=args.strict)
    fractions = _parse_split(args.split)
    spec = SplitSpec(*fractions, seed=args.seed)
    train_p, val_p, test_p = split_dataset(dataset, spec,
                                           shuffle=not args.no_shuffle)
    os.makedirs(args.out, exist_ok=True)
    parts = {"train": train_p, "val": val_p, "test": test_p}
    for name, part in parts.items():
        write_partition_csv(os.path.join(args.out, f"{name}.csv"), part)
    # persist the (possibly extended) schema so later encodings agree
    write_atomic(os.path.join(args.out, "schema.txt"), format_schema(schema))
    write_atomic(os.path.join(args.out, "taxonomy.txt"),
                 format_taxonomy(taxonomy))
    report_csv, report_txt = _split_report({**parts, "total": dataset})
    write_atomic(os.path.join(args.out, "split_report.csv"), report_csv)
    write_atomic(os.path.join(args.out, "split_report.txt"), report_txt)
    inputs = [args.data] + [p for p in (args.schema, args.taxonomy) if p]
    write_manifest(args.out, "prep", {
        "split": args.split, "seed": args.seed, "strict": args.strict,
        "shuffle": not args.no_shuffle,
    }, inputs)
    print(report_txt, end="")
    return 0


def _progress_printer(every, patience):
    """An on_epoch callback that writes a stderr line every `every` epochs."""
    if every is None:
        return None
    if every < 1:
        raise ValueError(f"--progress must be a positive epoch count, got {every}")

    def report(epoch, train_mse, val_mse, failures):
        if epoch % every == 0:
            print(f"epoch {epoch} train_mse {train_mse:.6f} val_mse {val_mse:.6f} "
                  f"failures {failures}/{patience}", file=sys.stderr, flush=True)
    return report


def cmd_train(args) -> int:
    progress = _progress_printer(args.progress, args.patience)
    cfg = TrainConfig(
        max_epochs=args.max_epochs, patience=args.patience,
        goal_mse=args.goal_mse, learning_rate=args.lr,
        momentum=args.momentum, seed=args.seed,
    )
    train_path = os.path.join(args.data, "train.csv")
    val_path = os.path.join(args.data, "val.csv")
    taxo_path = os.path.join(args.data, "taxonomy.txt")
    train_p = read_partition_csv(train_path)
    val_p = read_partition_csv(val_path)
    taxonomy = load_taxonomy(taxo_path)
    scaler = fit_scaler(train_p)
    train_s = Dataset(scaler.transform(train_p.X), train_p.y)
    val_s = Dataset(scaler.transform(val_p.X), val_p.y)
    layout = NetworkLayout(train_p.X.shape[1], _parse_hidden(args.hidden),
                           N_CLASSES)
    net0 = init_network(layout, cfg.seed)
    net, history = train_network(net0, train_s, val_s, cfg, progress)
    bundle = ModelBundle(network=net, scaler=scaler, taxonomy=taxonomy,
                         seed=cfg.seed)
    out_dir = args.out or os.path.dirname(os.path.abspath(args.model))
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(os.path.dirname(os.path.abspath(args.model)), exist_ok=True)
    save_model(bundle, args.model)
    lines = ["epoch,train_mse,val_mse"]
    for epoch, (tm, vm) in enumerate(zip(history.train_mse, history.val_mse),
                                     start=1):
        lines.append(f"{epoch},{tm!r},{vm!r}")
    write_atomic(os.path.join(out_dir, "history.csv"), "\n".join(lines) + "\n")
    write_manifest(out_dir, "train", {
        "hidden": args.hidden, "lr": args.lr, "momentum": args.momentum,
        "patience": args.patience, "goal_mse": args.goal_mse,
        "max_epochs": args.max_epochs, "seed": args.seed,
    }, [train_path, val_path, taxo_path])
    print(f"epochs {history.n_epochs} stop {history.stop_reason} "
          f"best_epoch {history.best_epoch} "
          f"best_val_mse {history.best_val_mse:.6f}")
    return 0


def _load_partitions(data_dir):
    parts = {}
    for name in PARTITIONS:
        path = os.path.join(data_dir, f"{name}.csv")
        parts[name] = read_partition_csv(path)
    return parts


def _roc_csv(curve) -> str:
    lines = ["fpr,tpr,threshold"]
    for fpr, tpr, thr in curve.points:
        lines.append(f"{fpr!r},{tpr!r},{thr!r}")
    return "\n".join(lines) + "\n"


def write_roc_curves(out_dir, report) -> list:
    """Write roc_class<k>.csv and roc_attack.csv for each curve the report
    has; return the (curve name, curve) pairs written, in file order."""
    curves = [(f"class{c}", curve) for c, curve in report.class_roc.items()
              if curve is not None]
    if report.attack_roc is not None:
        curves.append(("attack", report.attack_roc))
    for name, curve in curves:
        write_atomic(os.path.join(out_dir, f"roc_{name}.csv"), _roc_csv(curve))
    return curves


def cmd_eval(args) -> int:
    bundle = load_model(args.model)
    parts = _load_partitions(args.data)
    os.makedirs(args.out, exist_ok=True)
    scaled = {
        name: Dataset(bundle.scaler.transform(p.X), p.y)
        for name, p in parts.items()
    }
    scaled["combined"] = Dataset(
        np.concatenate([scaled[n].X for n in PARTITIONS]),
        np.concatenate([scaled[n].y for n in PARTITIONS]),
    )
    summary = ["partition,mse,success_rate,failure_rate,tp,fp,fn,tn"]
    txt = []
    for name, part in scaled.items():
        report = evaluate(bundle.network, part, N_CLASSES)
        cm_lines = [",".join(str(v) for v in row) for row in report.confusion]
        write_atomic(os.path.join(args.out, f"confusion_{name}.csv"),
                     "\n".join(cm_lines) + "\n")
        a = report.alarms
        summary.append(
            f"{name},{report.mse!r},{report.success_rate!r},"
            f"{report.failure_rate!r},{a.tp},{a.fp},{a.fn},{a.tn}"
        )
        txt.append(
            f"{name:>9}: success {report.success_rate:.4f} "
            f"failure {report.failure_rate:.4f} mse {report.mse:.6f} "
            f"tp {a.tp} fp {a.fp} fn {a.fn} tn {a.tn}"
        )
        if name == "test":
            write_roc_curves(args.out, report)
    write_atomic(os.path.join(args.out, "summary.csv"),
                 "\n".join(summary) + "\n")
    report_txt = "\n".join(txt) + "\n"
    write_atomic(os.path.join(args.out, "eval_report.txt"), report_txt)
    inputs = [args.model] + [os.path.join(args.data, f"{n}.csv")
                             for n in PARTITIONS]
    write_manifest(args.out, "eval", {}, inputs)
    print(report_txt, end="")
    return 0


def cmd_roc(args) -> int:
    bundle = load_model(args.model)
    test_path = os.path.join(args.data, "test.csv")
    test_p = read_partition_csv(test_path)
    scaled = Dataset(bundle.scaler.transform(test_p.X), test_p.y)
    report = evaluate(bundle.network, scaled, N_CLASSES)
    os.makedirs(args.out, exist_ok=True)
    auc_lines = ["curve,auc"] + [
        f"{name},{curve.auc!r}"
        for name, curve in write_roc_curves(args.out, report)]
    write_atomic(os.path.join(args.out, "roc_auc.csv"),
                 "\n".join(auc_lines) + "\n")
    write_manifest(args.out, "roc", {}, [args.model, test_path])
    print("\n".join(auc_lines))
    return 0


def cmd_quantize(args) -> int:
    bundle = load_model(args.model)
    fmt = FixedFormat.parse(args.format)
    qnet = quantize_network(bundle.network, fmt,
                            source_checksum=file_sha256(args.model))
    os.makedirs(args.out, exist_ok=True)
    qpath = os.path.join(args.out, "qmodel.txt")
    save_qmodel(qnet, qpath)
    write_manifest(args.out, "quantize", {"format": str(fmt)}, [args.model])
    print(f"wrote {qpath} ({fmt})")
    return 0


def cmd_compare(args) -> int:
    bundle = load_model(args.model)
    qnet = load_qmodel(args.qmodel)
    model_digest = file_sha256(args.model)
    if qnet.source_checksum and qnet.source_checksum != model_digest:
        print("warning: qmodel was quantized from a different model file",
              file=sys.stderr)
    test_path = os.path.join(args.data, "test.csv")
    test_p = read_partition_csv(test_path)
    scaled = bundle.scaler.transform(test_p.X)
    float_pred = predict_class(bundle.network, scaled)
    fixed_pred = q_predict_class(qnet, scaled)
    match = float_pred == fixed_pred
    lines = ["index,float_class,fixed_class,match"]
    for i, (fc, qc, m) in enumerate(zip(float_pred, fixed_pred, match)):
        lines.append(f"{i},{int(fc)},{int(qc)},{int(m)}")
    os.makedirs(args.out, exist_ok=True)
    write_atomic(os.path.join(args.out, "agreement.csv"),
                 "\n".join(lines) + "\n")
    rate = float(np.mean(match))
    write_atomic(os.path.join(args.out, "agreement_summary.txt"),
                 f"samples {len(match)}\nagreement {rate!r}\n")
    write_manifest(args.out, "compare", {},
                   [args.model, args.qmodel, test_path])
    print(f"agreement {rate:.4f} over {len(match)} samples")
    return 0


class LiveLines:
    """The lines of a text stream such as sys.stdin, each as soon as it arrives.

    Iterating yields exactly what ``for line in stream`` yields on POSIX:
    the bytes decoded with the stream's encoding and errors, split after
    each "\\n" only, and a last line without one. The bytes are read with
    read1, which returns what has arrived (up to READ_SIZE bytes) and
    blocks only when nothing has, so ready() can tell whether a complete
    line is waiting. out is flushed before every read, so no output sits
    in its buffer while the reader waits for input.
    """

    # what the text layer of sys.stdin reads at once; 64 KiB reads held a
    # whole burst in memory and raised detect's peak RSS by about 0.4 MB
    READ_SIZE = io.DEFAULT_BUFFER_SIZE

    def __init__(self, stream, out):
        self._raw = stream.buffer
        self._decoder = codecs.getincrementaldecoder(stream.encoding)(
            stream.errors)
        self._out = out
        self._lines = collections.deque()

    def ready(self) -> bool:
        """True while a complete line is buffered."""
        return bool(self._lines)

    def __iter__(self):
        tail = ""
        while True:
            while self._lines:
                yield self._lines.popleft()
            self._out.flush()
            block = self._raw.read1(self.READ_SIZE)
            tail += self._decoder.decode(block, final=not block)
            if not block:
                if tail:
                    yield tail
                return
            *lines, tail = tail.split("\n")
            self._lines.extend(line + "\n" for line in lines)


def cmd_detect(args) -> int:
    bundle = load_model(args.model)
    schema = load_schema(args.schema) if args.schema else default_schema()
    policy = default_policy()
    # A live feed scores the rows that have arrived as soon as no further
    # line is waiting; its verdicts are flushed before the reader blocks
    # and once per chunk, so none waits for later input or in the stdout
    # buffer. A file is scored in full chunks.
    if args.data == "-":
        lines = LiveLines(sys.stdin, sys.stdout)
        idle = lambda: not lines.ready()
    else:
        lines = (line for _, line in iter_lines(args.data,
                                                errors="surrogateescape"))
        idle = None
    summary = StreamSummary()
    out_lines = []
    for v in process_stream(lines, bundle, schema, policy, idle=idle):
        scores = ",".join(f"{s:.6f}" for s in v.scores)
        line = f"{v.record_index},{v.predicted},{v.action},{scores}"
        print(line)
        if v.error is not None:
            print(f"record {v.record_index}: {v.error}", file=sys.stderr)
        summary.update(v)
        if summary.n_records % CHUNK == 0:
            sys.stdout.flush()
        if args.out:
            out_lines.append(line)
    print(summary.render(), file=sys.stderr)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        header = "index,predicted_class,action," + ",".join(
            f"score{c}" for c in range(N_CLASSES))
        write_atomic(os.path.join(args.out, "verdicts.csv"),
                     "\n".join([header] + out_lines) + "\n")
        write_atomic(os.path.join(args.out, "stream_summary.txt"),
                     summary.render() + "\n")
        inputs = [args.model] + [p for p in (args.schema,) if p]
        if args.data != "-":
            inputs.append(args.data)
        write_manifest(args.out, "detect", {}, inputs)
    return 0


_COMMANDS = {
    "prep": cmd_prep,
    "train": cmd_train,
    "eval": cmd_eval,
    "roc": cmd_roc,
    "quantize": cmd_quantize,
    "compare": cmd_compare,
    "detect": cmd_detect,
}


def _add_common(p):
    p.add_argument("--config", help="JSON file of flag defaults; flags win")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idpskit",
        description="KDD99 intrusion detection and prevention pipeline",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prep", help="encode and split a record file")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--schema")
    p.add_argument("--taxonomy")
    p.add_argument("--split", default="0.70,0.15,0.15")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-shuffle", action="store_true")
    p.add_argument("--strict", action="store_true")
    _add_common(p)

    p = sub.add_parser("train", help="train a model on a prep directory")
    p.add_argument("--data", required=True, help="prep output directory")
    p.add_argument("--model", required=True, help="output model file")
    p.add_argument("--out", help="directory for history.csv (default: model dir)")
    p.add_argument("--hidden", default="20")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--patience", type=int, default=6)
    p.add_argument("--goal-mse", type=float, default=0.01)
    p.add_argument("--max-epochs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--progress", type=int, metavar="N",
                   help="print losses and validation failures to stderr "
                        "every N epochs")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a model on all partitions")
    p.add_argument("--data", required=True, help="prep output directory")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("roc", help="ROC curves on the test partition")
    p.add_argument("--data", required=True, help="prep output directory")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("quantize", help="fixed-point conversion of a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", default="q4.12")
    _add_common(p)

    p = sub.add_parser("compare", help="float vs fixed-point agreement")
    p.add_argument("--data", required=True, help="prep output directory")
    p.add_argument("--model", required=True)
    p.add_argument("--qmodel", required=True)
    p.add_argument("--out", required=True)
    _add_common(p)

    p = sub.add_parser("detect", help="stream records through the engine")
    p.add_argument("--data", required=True, help="record file or - for stdin")
    p.add_argument("--model", required=True)
    p.add_argument("--schema")
    p.add_argument("--out", help="optional directory for verdict artifacts")
    _add_common(p)

    return ap


def _apply_config_file(ap, args, argv):
    if not getattr(args, "config", None):
        return args
    with open(args.config, encoding="utf-8") as fh:
        defaults = json.load(fh)
    if not isinstance(defaults, dict):
        raise ValueError("config file must hold a JSON object")
    # every key must name an option in full: re-parsed as a flag, a prefix
    # would silently set whichever option it abbreviates
    command = next(a for a in ap._actions
                   if isinstance(a, argparse._SubParsersAction)
                   ).choices[args.command]
    options = {flag for a in command._actions for flag in a.option_strings}
    options -= {"-h", "--help", "--config"}
    merged = []
    for key, value in defaults.items():
        flag = "--" + key.replace("_", "-")
        if flag not in options:
            raise ValueError(f"config file {args.config}: {key!r} is not an "
                             f"option of {args.command}")
        if value is None:
            continue
        if isinstance(value, bool):
            if value:
                merged.append(flag)
        else:
            merged.extend([flag, str(value)])
    # flags win: file-derived arguments go first
    return ap.parse_args([argv[0]] + merged + argv[1:])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        args = _apply_config_file(ap, args, argv)
        return _COMMANDS[args.command](args)
    except (IdpsError, OSError, ValueError) as exc:
        print(f"error in {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

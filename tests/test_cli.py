import io
import json
import os
import queue
import re
import subprocess
import sys
import threading
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpskit import cli
from idpskit.cli import LiveLines, main, read_partition_csv, write_partition_csv
from idpskit.ingest import Dataset
from idpskit.simulate import write_corpus


def run_cli(*args):
    return main([str(a) for a in args])


def text_stdin(text):
    """A stand-in for sys.stdin: a text layer over a binary buffer."""
    return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8")


def cli_env():
    """The environment for an idpskit child process, without
    PYTHONUNBUFFERED: the program must flush itself."""
    import idpskit

    src = os.path.dirname(os.path.dirname(idpskit.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONUNBUFFERED", None)
    return env


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One small prep+train chain reused by the read-only CLI tests."""
    base = tmp_path_factory.mktemp("cli")
    corpus = base / "corpus.txt"
    write_corpus(corpus, 1500, seed=11)
    corpus_bytes = corpus.read_bytes()
    prep = base / "prep"
    assert run_cli("prep", "--data", corpus, "--out", prep, "--seed", "1") == 0
    model = base / "model.txt"
    assert run_cli(
        "train", "--data", prep, "--model", model, "--out", base / "trainout",
        "--max-epochs", "60", "--seed", "3",
    ) == 0
    return {"base": base, "corpus": corpus, "prep": prep, "model": model,
            "corpus_bytes": corpus_bytes}


def line_loop_reader(path):
    """Reference for read_partition_csv: one Python parse per line."""
    vectors, labels = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            vectors.append([float(p) for p in parts[:-1]])
            labels.append(int(parts[-1]))
    return np.array(vectors, dtype=np.float64), np.array(labels, dtype=np.int64)


class TestReadPartitionCsv:
    @pytest.mark.parametrize("text", [
        "0.1,0.25,1e-300,3\n",                       # one row
        "0.1,0.25,1e-300,3",                          # one row, no newline
        "0.1,0.25,1e-300,3\n0.5,-0.0,2.5e+17,0\n\n",  # trailing blank line
    ])
    def test_matches_line_loop_reader(self, tmp_path, text):
        path = tmp_path / "part.csv"
        path.write_text(text)
        got = read_partition_csv(path)
        X, y = line_loop_reader(path)
        for a, b in ((got.X, X), (got.y, y)):
            assert a.shape == b.shape and a.dtype == b.dtype
            assert a.tobytes() == b.tobytes()

    def test_partition_files_round_trip(self, pipeline):
        for name in ("train", "val", "test"):
            path = pipeline["prep"] / f"{name}.csv"
            got = read_partition_csv(path)
            X, y = line_loop_reader(path)
            assert got.X.tobytes() == X.tobytes() and got.X.shape == X.shape
            assert got.y.tobytes() == y.tobytes()

    @pytest.mark.parametrize("text", ["0.1,0.2,1.5\n", "0.1,0.2,1\n0.1,2\n",
                                      "0.1,x,1\n", "# note\n0.1,0.2,1\n"])
    def test_malformed_rejected(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError):
            read_partition_csv(path)


def row_loop_partition_text(d):
    """Reference for write_partition_csv: repr of every value, row by row."""
    rows = []
    for vec, label in zip(d.X, d.y):
        rows.append(",".join(repr(float(v)) for v in vec) + f",{int(label)}")
    return "\n".join(rows) + "\n"


# values whose text is easy to get wrong: both zeros, subnormals, extremes
SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e-310, 1e308, -1e308, 1.7976931348623157e308, 0.1, 1.0,
                  181.0)


@st.composite
def partitions(draw):
    n_rows = draw(st.integers(1, 12))
    n_cols = draw(st.integers(1, 5))
    # both zeros are always in the pool, so most partitions mix them
    pool = [0.0, -0.0] + draw(st.lists(
        st.sampled_from(SPECIAL_FLOATS)
        | st.floats(allow_nan=False, allow_infinity=False), max_size=6))
    values = draw(st.lists(st.sampled_from(pool), min_size=n_rows * n_cols,
                           max_size=n_rows * n_cols))
    labels = draw(st.lists(st.integers(0, 5), min_size=n_rows,
                           max_size=n_rows))
    return Dataset(X=np.array(values, dtype=np.float64).reshape(n_rows, n_cols),
                   y=np.array(labels, dtype=np.int64))


class TestWritePartitionCsv:
    @given(d=partitions(), block=st.integers(1, 13))
    @settings(max_examples=200, deadline=None)
    def test_matches_row_loop_formula(self, tmp_path_factory, d, block):
        path = tmp_path_factory.mktemp("part") / "p.csv"
        with mock.patch.object(cli, "WRITE_BLOCK", block):
            write_partition_csv(path, d)
        assert path.read_text() == row_loop_partition_text(d)

    def test_negative_zero_beside_zero(self, tmp_path):
        d = Dataset(X=np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]]),
                    y=np.array([0, 1, 2]))
        write_partition_csv(tmp_path / "p.csv", d)
        assert (tmp_path / "p.csv").read_text() == \
            "0.0,-0.0,0\n-0.0,0.0,1\n0.0,0.0,2\n"


class TestPrep:
    def test_artifacts_and_split_sizes(self, pipeline):
        prep = pipeline["prep"]
        for name in ("train.csv", "val.csv", "test.csv", "schema.txt",
                     "taxonomy.txt", "split_report.csv", "split_report.txt",
                     "run_manifest.json"):
            assert os.path.exists(prep / name), name
        train = read_partition_csv(prep / "train.csv")
        val = read_partition_csv(prep / "val.csv")
        test = read_partition_csv(prep / "test.csv")
        assert (len(train), len(val), len(test)) == (1050, 225, 225)
        assert train.X.shape[1] == 41

    def test_learned_schema_persisted(self, pipeline):
        text = (pipeline["prep"] / "schema.txt").read_text()
        assert "protocol_type,symbolic,tcp=0,udp=1,icmp=2" in text
        assert "service,symbolic," in text  # learned service codes present

    def test_manifest_lists_input_digest(self, pipeline):
        manifest = json.loads(
            (pipeline["prep"] / "run_manifest.json").read_text())
        assert manifest["command"] == "prep"
        digest = manifest["inputs"]["corpus.txt"]
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert manifest["config"]["split"] == "0.70,0.15,0.15"

    def test_missing_data_fails_with_stage(self, tmp_path, capsys):
        rc = run_cli("prep", "--data", tmp_path / "nope.txt",
                     "--out", tmp_path / "out")
        assert rc == 2
        assert "error in prep" in capsys.readouterr().err

    def test_strict_mode_rejects_unknown_symbols(self, tmp_path, capsys):
        corpus = tmp_path / "c.txt"
        write_corpus(corpus, 50, seed=2)
        rc = run_cli("prep", "--data", corpus, "--out", tmp_path / "out",
                     "--strict")
        assert rc == 2
        assert "line 1" in capsys.readouterr().err

    def test_undecodable_byte_names_its_line(self, pipeline, tmp_path, capsys):
        lines = pipeline["corpus"].read_bytes().splitlines()[:7]
        lines[3] = lines[3].replace(b",", b",\xff", 1)
        data = tmp_path / "bad.txt"
        data.write_bytes(b"\n".join(lines) + b"\n")
        assert run_cli("prep", "--data", data, "--out", tmp_path / "out") == 2
        assert capsys.readouterr().err == (
            f"error in prep: {data}, line 4: 'utf-8' codec can't decode byte "
            "0xff in position 2: invalid start byte\n")

    def test_strict_mode_passes_with_learned_schema(self, pipeline, tmp_path):
        rc = run_cli(
            "prep", "--data", pipeline["corpus"], "--out", tmp_path / "out2",
            "--schema", pipeline["prep"] / "schema.txt", "--strict",
        )
        assert rc == 0

    def test_inputs_never_mutated(self, pipeline):
        assert pipeline["corpus"].read_bytes() == pipeline["corpus_bytes"]

    def test_no_shuffle_is_sequential(self, pipeline, tmp_path):
        rc = run_cli("prep", "--data", pipeline["corpus"],
                     "--out", tmp_path / "seq", "--no-shuffle")
        assert rc == 0
        import numpy as np

        from idpskit.ingest import load_dataset
        from idpskit.schema import default_schema, default_taxonomy

        full = load_dataset(pipeline["corpus"], default_schema(),
                            default_taxonomy())
        train = read_partition_csv(tmp_path / "seq" / "train.csv")
        np.testing.assert_array_equal(train.y, full.y[:len(train)])


class TestTrainEvalChain:
    def test_history_csv_columns(self, pipeline):
        lines = (pipeline["base"] / "trainout" / "history.csv") \
            .read_text().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        assert lines[1].startswith("1,")
        assert len(lines) >= 2

    def test_eval_artifacts(self, pipeline, tmp_path):
        out = tmp_path / "eval"
        rc = run_cli("eval", "--data", pipeline["prep"],
                     "--model", pipeline["model"], "--out", out)
        assert rc == 0
        summary = (out / "summary.csv").read_text().splitlines()
        assert summary[0] == "partition,mse,success_rate,failure_rate,tp,fp,fn,tn"
        assert [row.split(",")[0] for row in summary[1:]] == \
            ["train", "val", "test", "combined"]
        for name in ("confusion_train.csv", "confusion_val.csv",
                     "confusion_test.csv", "confusion_combined.csv",
                     "eval_report.txt"):
            assert os.path.exists(out / name)

    def test_confusion_combined_is_sum(self, pipeline, tmp_path):
        import numpy as np

        out = tmp_path / "eval2"
        assert run_cli("eval", "--data", pipeline["prep"],
                       "--model", pipeline["model"], "--out", out) == 0

        def read_cm(name):
            rows = (out / name).read_text().splitlines()
            return np.array([[int(v) for v in r.split(",")] for r in rows])

        total = (read_cm("confusion_train.csv") + read_cm("confusion_val.csv")
                 + read_cm("confusion_test.csv"))
        np.testing.assert_array_equal(read_cm("confusion_combined.csv"), total)

    def test_roc_command(self, pipeline, tmp_path):
        out = tmp_path / "roc"
        rc = run_cli("roc", "--data", pipeline["prep"],
                     "--model", pipeline["model"], "--out", out)
        assert rc == 0
        auc_rows = (out / "roc_auc.csv").read_text().splitlines()
        assert auc_rows[0] == "curve,auc"
        assert any(r.startswith("attack,") for r in auc_rows)
        roc_file = out / "roc_class0.csv"
        assert roc_file.read_text().splitlines()[0] == "fpr,tpr,threshold"

    def test_eval_and_roc_write_the_same_curves(self, pipeline, tmp_path):
        for command in ("eval", "roc"):
            assert run_cli(command, "--data", pipeline["prep"], "--model",
                           pipeline["model"], "--out", tmp_path / command) == 0
        curves = sorted(n for n in os.listdir(tmp_path / "roc")
                        if n.startswith("roc_") and n != "roc_auc.csv")
        assert "roc_attack.csv" in curves
        assert curves == sorted(n for n in os.listdir(tmp_path / "eval")
                                if n.startswith("roc_"))
        for name in curves:
            assert (tmp_path / "eval" / name).read_bytes() == \
                (tmp_path / "roc" / name).read_bytes()
        names = [row.split(",")[0] for row in
                 (tmp_path / "roc" / "roc_auc.csv").read_text().splitlines()]
        assert names == ["curve"] + [n[len("roc_"):-len(".csv")] for n in
                                     curves if n != "roc_attack.csv"] + ["attack"]


class TestQuantizeCompareDetect:
    def test_quantize_alternate_format(self, pipeline, tmp_path):
        qout = tmp_path / "q214"
        assert run_cli("quantize", "--model", pipeline["model"],
                       "--out", qout, "--format", "q2.14") == 0
        from idpskit.model_io import load_qmodel

        qnet = load_qmodel(qout / "qmodel.txt")
        assert qnet.format.total_bits == 16
        assert qnet.format.frac_bits == 14

    def test_quantize_out_of_range_model_fails_cleanly(self, tmp_path, capsys):
        import numpy as np

        from idpskit.mlp import NetworkLayout, init_network
        from idpskit.model_io import ModelBundle, save_model
        from idpskit.preprocessing import RangeScaler
        from idpskit.schema import default_taxonomy

        net = init_network(NetworkLayout(41, (4,), 6), seed=0)
        net.weights[0][0, 0] = 500.0  # beyond any 16-bit Q format
        scaler = RangeScaler()
        scaler.min_, scaler.max_ = np.zeros(41), np.ones(41)
        model = tmp_path / "wide.txt"
        save_model(ModelBundle(net, scaler, default_taxonomy(), 0), model)
        rc = run_cli("quantize", "--model", model, "--out", tmp_path / "q")
        assert rc == 2
        err = capsys.readouterr().err
        assert "error in quantize" in err
        assert "layer 0" in err

    def test_quantize_bad_format_flag(self, pipeline, tmp_path, capsys):
        rc = run_cli("quantize", "--model", pipeline["model"],
                     "--out", tmp_path / "q", "--format", "banana")
        assert rc == 2
        assert "error in quantize" in capsys.readouterr().err

    def test_quantize_and_compare(self, pipeline, tmp_path):
        qout = tmp_path / "q"
        assert run_cli("quantize", "--model", pipeline["model"],
                       "--out", qout, "--format", "q4.12") == 0
        cout = tmp_path / "cmp"
        assert run_cli("compare", "--data", pipeline["prep"],
                       "--model", pipeline["model"],
                       "--qmodel", qout / "qmodel.txt", "--out", cout) == 0
        rows = (cout / "agreement.csv").read_text().splitlines()
        assert rows[0] == "index,float_class,fixed_class,match"
        assert len(rows) == 226  # header + one row per test record
        summary = (cout / "agreement_summary.txt").read_text()
        assert "agreement" in summary

    def test_compare_out_of_range_qmodel_fails_cleanly(self, pipeline, tmp_path,
                                                       capsys):
        qout = tmp_path / "q"
        assert run_cli("quantize", "--model", pipeline["model"],
                       "--out", qout) == 0
        qmodel = qout / "qmodel.txt"
        lines = qmodel.read_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith("w "))
        lines[i] = " ".join(["w", str(10**30)] + lines[i].split()[2:])
        qmodel.write_text("\n".join(lines) + "\n")
        rc = run_cli("compare", "--data", pipeline["prep"],
                     "--model", pipeline["model"], "--qmodel", qmodel,
                     "--out", tmp_path / "cmp")
        assert rc == 2
        err = capsys.readouterr().err
        assert "error in compare" in err and "layer 0 row 0" in err

    def test_detect_stream(self, pipeline, tmp_path, capsys):
        out = tmp_path / "det"
        rc = run_cli("detect", "--data", pipeline["corpus"],
                     "--model", pipeline["model"],
                     "--schema", pipeline["prep"] / "schema.txt",
                     "--out", out)
        assert rc == 0
        captured = capsys.readouterr()
        stdout_lines = captured.out.strip().splitlines()
        assert len(stdout_lines) == 1500
        first = stdout_lines[0].split(",")
        assert len(first) == 9  # index, class, action, six scores
        assert "records 1500" in captured.err
        verdicts = (out / "verdicts.csv").read_text().splitlines()
        assert len(verdicts) == 1501

    def test_detect_stdin(self, pipeline, tmp_path, capsys, monkeypatch):
        lines = (pipeline["corpus"]).read_text().splitlines()[:5]
        monkeypatch.setattr("sys.stdin", text_stdin("\n".join(lines)))
        rc = run_cli("detect", "--data", "-", "--model", pipeline["model"],
                     "--schema", pipeline["prep"] / "schema.txt")
        assert rc == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 5

    def test_file_and_stdin_print_the_same_verdicts(self, pipeline, tmp_path,
                                                    capsys, monkeypatch):
        # A file is scored in full chunks; stdin is scored whenever no
        # further line is waiting, which here is only at the end.
        lines = pipeline["corpus"].read_text().splitlines()[:300]
        for i, bad in ((0, "garbage,line"), (64, lines[1] + ",extra"),
                       (150, lines[2].rsplit(",", 1)[0] + ",")):
            lines.insert(i, bad)
        data = tmp_path / "mixed.txt"
        data.write_text("\n".join(lines) + "\n")
        model_args = ("--model", pipeline["model"],
                      "--schema", pipeline["prep"] / "schema.txt")
        assert run_cli("detect", "--data", data, *model_args) == 0
        from_file = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", text_stdin(data.read_text()))
        assert run_cli("detect", "--data", "-", *model_args) == 0
        from_stdin = capsys.readouterr()
        assert len(from_file.out.splitlines()) == 303
        assert from_file.out == from_stdin.out
        assert from_file.err == from_stdin.err
        assert "errors 3\ncause EmptyLabelError 1\ncause FieldCountError 2\n" \
            in from_file.err

    def test_file_decodes_undecodable_bytes_as_stdin_does(
            self, pipeline, tmp_path, capsys, monkeypatch):
        # sys.stdin decodes with surrogateescape under the C and C.UTF-8
        # locales; a file must give the same verdicts and alerts
        lines = pipeline["corpus"].read_bytes().splitlines()[:7]
        lines[3] = lines[3].replace(b"tcp", b"tc\xff", 1)
        assert b"tc\xff" in lines[3]
        data = tmp_path / "bad.txt"
        data.write_bytes(b"\n".join(lines) + b"\n")
        model_args = ("--model", pipeline["model"],
                      "--schema", pipeline["prep"] / "schema.txt")
        assert run_cli("detect", "--data", data, *model_args) == 0
        from_file = capsys.readouterr()
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(data.read_bytes()), encoding="utf-8",
            errors="surrogateescape"))
        assert run_cli("detect", "--data", "-", *model_args) == 0
        from_stdin = capsys.readouterr()
        assert len(from_file.out.splitlines()) == 7
        assert from_file.out == from_stdin.out
        assert from_file.err == from_stdin.err
        assert "record 3: feature 'protocol_type': unknown symbol " \
            "'tc\\udcff'\n" in from_file.err
        assert "errors 1\ncause UnknownSymbolError 1\n" in from_file.err

    def test_stdin_verdict_arrives_before_input_ends(self, pipeline):
        proc = subprocess.Popen(
            [sys.executable, "-m", "idpskit.cli", "detect", "--data", "-",
             "--model", str(pipeline["model"]),
             "--schema", str(pipeline["prep"] / "schema.txt")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=cli_env())
        try:
            first = pipeline["corpus"].read_text().splitlines()[0]
            proc.stdin.write(first + "\n")
            proc.stdin.flush()
            got = queue.Queue()
            threading.Thread(target=lambda: got.put(proc.stdout.readline()),
                             daemon=True).start()
            verdict = got.get(timeout=60)
            assert verdict.split(",")[0] == "0"
            assert len(verdict.strip().split(",")) == 9
            proc.stdin.close()
            assert proc.wait(timeout=60) == 0
        finally:
            proc.kill()
            proc.wait()

    def test_stdin_burst_then_late_line_matches_file(self, pipeline, tmp_path):
        lines = pipeline["corpus"].read_text().splitlines()[:301]
        for i, bad in ((0, "garbage,line"), (64, lines[1] + ",extra"),
                       (299, lines[2].rsplit(",", 1)[0] + ",")):
            lines[i] = bad
        burst, late = lines[:300], lines[300]
        data = tmp_path / "burst.txt"
        data.write_text("\n".join(lines) + "\n")
        args = [sys.executable, "-m", "idpskit.cli", "detect",
                "--model", str(pipeline["model"]),
                "--schema", str(pipeline["prep"] / "schema.txt"), "--data"]
        from_file = subprocess.run(args + [str(data)], capture_output=True,
                                   env=cli_env(), timeout=120, check=True)
        proc = subprocess.Popen(args + ["-"], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=cli_env())
        got = queue.Queue()

        def read_lines():
            for out_line in iter(proc.stdout.readline, b""):
                got.put(out_line)
            got.put(None)

        threading.Thread(target=read_lines, daemon=True).start()
        try:
            os.write(proc.stdin.fileno(),
                     "".join(line + "\n" for line in burst).encode())
            out = [got.get(timeout=60) for _ in burst]
            os.write(proc.stdin.fileno(), (late + "\n").encode())
            out.append(got.get(timeout=60))
            assert out[-1].startswith(b"300,")
            proc.stdin.close()
            assert got.get(timeout=60) is None
            assert proc.wait(timeout=60) == 0
            assert b"".join(out) == from_file.stdout
            assert proc.stderr.read() == from_file.stderr
        finally:
            proc.kill()
            proc.wait()


# pieces that stress decoding and line splitting: newline forms, multibyte
# characters (split across reads when a read boundary falls inside them),
# bytes invalid in UTF-8 and characters that str.splitlines treats as breaks
PIECES = (b"0,tcp", b"\n", b"\r\n", b"\r", b"", b" ", "\u00e9".encode(),
          "\u20ac".encode(), "\U0001d11e".encode(), b"\xff", b"\xc3",
          b"\x0b", b"\x1c", "\u2028".encode())


class FakeStdin:
    """sys.stdin over data whose reads return the given pieces in turn."""

    def __init__(self, data, cuts, encoding, errors, events):
        self.encoding, self.errors, self.buffer = encoding, errors, self
        self._blocks = [data[a:b] for a, b in zip([0, *cuts], [*cuts, None])]
        self._events = events

    def read1(self, size):
        self._events.append("read")
        return self._blocks.pop(0) if self._blocks else b""


def live_lines(data, cuts, encoding, errors):
    """LiveLines over data. Every read must follow a flush, and ready()
    must be true exactly when the next line comes without a read."""
    events = []
    reader = LiveLines(FakeStdin(data, cuts, encoding, errors, events),
                       SimpleNamespace(flush=lambda: events.append("flush")))
    lines = []
    for line in reader:
        lines.append(line)
        events.append(reader.ready())
    for i, event in enumerate(events):
        after = events[i + 1] if i + 1 < len(events) else None
        if event == "read":
            assert events[i - 1] == "flush"
        elif event is True:
            assert after in (True, False)
        elif event is False:
            assert after in ("flush", None)
    return lines


class TestLiveLines:
    @given(data=st.lists(st.sampled_from(PIECES), max_size=30).map(b"".join),
           cut_seeds=st.lists(st.integers(0, 10**6), max_size=8),
           encoding=st.sampled_from(["utf-8", "latin-1"]),
           errors=st.sampled_from(["strict", "surrogateescape", "replace"]))
    @settings(max_examples=300, deadline=None)
    def test_yields_what_iterating_stdin_yields(self, data, cut_seeds,
                                                 encoding, errors):
        # read boundaries strictly inside data: only the end reads as b""
        cuts = sorted({seed % len(data) for seed in cut_seeds} - {0}
                      if data else ())
        # sys.stdin on POSIX is a TextIOWrapper with newline="\n"
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding=encoding,
                                 errors=errors, newline="\n")
        try:
            expected = list(stdin)
        except UnicodeDecodeError:
            with pytest.raises(UnicodeDecodeError):
                live_lines(data, cuts, encoding, errors)
            return
        assert live_lines(data, cuts, encoding, errors) == expected

    def test_reference_is_what_sys_stdin_yields(self):
        data = b"".join(PIECES) + b"\nlast"
        env = dict(cli_env(), PYTHONIOENCODING="utf-8:surrogateescape")
        expected = ascii(list(io.TextIOWrapper(
            io.BytesIO(data), encoding="utf-8", errors="surrogateescape",
            newline="\n")))
        for code in ("import sys; print(ascii(list(sys.stdin)))",
                     "import sys; from idpskit.cli import LiveLines; "
                     "print(ascii(list(LiveLines(sys.stdin, sys.stdout))))"):
            child = subprocess.run([sys.executable, "-c", code], input=data,
                                   capture_output=True, env=env, timeout=60,
                                   check=True)
            assert child.stdout.decode().strip() == expected


class TestTrainProgress:
    def _train(self, pipeline, out, *extra):
        return run_cli("train", "--data", pipeline["prep"],
                       "--model", out / "model.txt", "--out", out,
                       "--max-epochs", "60", "--seed", "3", *extra)

    def test_progress_lines_leave_outputs_unchanged(self, pipeline, tmp_path,
                                                    capsys):
        assert self._train(pipeline, tmp_path / "quiet") == 0
        quiet = capsys.readouterr()
        assert quiet.err == ""
        assert self._train(pipeline, tmp_path / "loud", "--progress", "25") == 0
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        for name in ("model.txt", "history.csv", "run_manifest.json"):
            assert (tmp_path / "loud" / name).read_bytes() == \
                (tmp_path / "quiet" / name).read_bytes()
        history = (tmp_path / "loud" / "history.csv").read_text().splitlines()
        expected = []
        for epoch in (25, 50):
            _, tm, vm = history[epoch].split(",")
            expected.append(f"epoch {epoch} train_mse {float(tm):.6f} "
                            f"val_mse {float(vm):.6f} failures ")
        lines = loud.err.splitlines()
        assert len(lines) == 2
        for line, prefix in zip(lines, expected):
            assert line.startswith(prefix)
            assert re.fullmatch(r"\d+/6", line[len(prefix):])

    @pytest.mark.parametrize("every", ["0", "-3"])
    def test_progress_must_be_positive(self, pipeline, tmp_path, capsys, every):
        assert self._train(pipeline, tmp_path, "--progress", every) == 2
        assert "error in train: --progress" in capsys.readouterr().err
        assert not (tmp_path / "model.txt").exists()


class TestTrainSettings:
    @pytest.mark.parametrize("flag,value", [("--max-epochs", "0"),
                                            ("--max-epochs", "-5"),
                                            ("--goal-mse", "nan")])
    def test_invalid_setting_fails_before_writing(
            self, pipeline, tmp_path, capsys, flag, value):
        assert run_cli("train", "--data", pipeline["prep"],
                       "--model", tmp_path / "model.txt", "--out", tmp_path,
                       flag, value) == 2
        assert "error in train" in capsys.readouterr().err
        for name in ("model.txt", "history.csv", "run_manifest.json"):
            assert not (tmp_path / name).exists()

    def test_config_with_batch_size_fails_loudly(self, pipeline, tmp_path,
                                                 capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"batch_size": 64}))
        assert run_cli("train", "--config", cfg, "--data", pipeline["prep"],
                       "--model", tmp_path / "model.txt",
                       "--max-epochs", "5") == 2
        assert (f"error in train: config file {cfg}: 'batch_size' is not an "
                "option of train") in capsys.readouterr().err
        assert not (tmp_path / "model.txt").exists()


class TestDeterminism:
    def _chain(self, corpus, base):
        prep = base / "prep"
        assert run_cli("prep", "--data", corpus, "--out", prep,
                       "--seed", "5") == 0
        model = base / "model.txt"
        assert run_cli("train", "--data", prep, "--model", model,
                       "--out", base / "t", "--max-epochs", "40",
                       "--seed", "5") == 0
        out = base / "eval"
        assert run_cli("eval", "--data", prep, "--model", model,
                       "--out", out) == 0
        return prep, model, base / "t" / "history.csv", out / "summary.csv"

    def test_identical_runs_byte_identical_artifacts(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        write_corpus(corpus, 600, seed=21)
        a = self._chain(corpus, tmp_path / "a")
        b = self._chain(corpus, tmp_path / "b")
        prep_a, model_a, hist_a, summ_a = a
        prep_b, model_b, hist_b, summ_b = b
        assert model_a.read_bytes() == model_b.read_bytes()
        assert hist_a.read_bytes() == hist_b.read_bytes()
        assert summ_a.read_bytes() == summ_b.read_bytes()
        manifest_a = json.loads((prep_a / "run_manifest.json").read_text())
        manifest_b = json.loads((prep_b / "run_manifest.json").read_text())
        assert manifest_a == manifest_b

    def test_repeated_eval_reproduces_summary(self, pipeline, tmp_path):
        out1, out2 = tmp_path / "e1", tmp_path / "e2"
        for out in (out1, out2):
            assert run_cli("eval", "--data", pipeline["prep"],
                           "--model", pipeline["model"], "--out", out) == 0
        assert (out1 / "summary.csv").read_bytes() == \
            (out2 / "summary.csv").read_bytes()


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path):
        corpus = tmp_path / "corpus.txt"
        write_corpus(corpus, 300, seed=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(corpus), "out": str(tmp_path / "cfg_out"),
            "seed": 9, "split": "0.80,0.10,0.10",
        }))
        rc = run_cli("prep", "--config", cfg, "--data", corpus,
                     "--out", tmp_path / "flag_out", "--split",
                     "0.70,0.15,0.15")
        assert rc == 0
        manifest = json.loads(
            (tmp_path / "flag_out" / "run_manifest.json").read_text())
        assert manifest["config"]["split"] == "0.70,0.15,0.15"
        assert manifest["config"]["seed"] == 9  # config supplied, no flag

    @pytest.mark.parametrize("config,key", [
        ({"goal": 0.5, "max": 7}, "goal"),   # prefixes of --goal-mse, --max-epochs
        ({"max_epoch": 7}, "max_epoch"),
        ({"nosuch": 1}, "nosuch"),
        ({"config": "other.json"}, "config"),
    ], ids=["prefixes", "prefix", "unknown", "config"])
    def test_key_must_name_an_option_exactly(self, pipeline, tmp_path, capsys,
                                             config, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run_cli("train", "--config", cfg, "--data", pipeline["prep"],
                       "--model", tmp_path / "model.txt") == 2
        assert capsys.readouterr().err == (
            f"error in train: config file {cfg}: {key!r} is not an option "
            "of train\n")
        assert not (tmp_path / "model.txt").exists()

    def test_exact_keys_set_their_options(self, pipeline, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"goal_mse": 0.5, "max-epochs": 3,
                                   "seed": 4, "progress": None}))
        assert run_cli("train", "--config", cfg, "--data", pipeline["prep"],
                       "--model", tmp_path / "model.txt") == 0
        manifest = json.loads((tmp_path / "run_manifest.json").read_text())
        assert manifest["config"]["goal_mse"] == 0.5
        assert manifest["config"]["max_epochs"] == 3
        assert manifest["config"]["seed"] == 4

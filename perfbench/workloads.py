"""The four workloads, run through the ``idpskit`` CLI as a user runs it.

Each workload makes its inputs from the seed (not timed), sets up
(timed as ``setup_s``), then repeats its timed operation until the run's
seconds are used up, at least MIN_REPS times. The machine's slowness is
measured around every operation (see calibrate.py). Children get a fixed
environment (see ``child_env``), never the caller's.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import checks
import inputs

EPOCH_BUDGET = 50  # train: about 2 s per command on a 2-core machine
MIN_REPS = 3
SETUP_REPS = 3  # prep runs per train/audit run; setup_s is their median
PREP_SEED = 42
PACED_RATE = 2000  # records/s, well below detect's sustainable rate
PACED_SESSION = 10_000  # records per paced session, 5 s at PACED_RATE
PACED_WARMUP = 500  # records written at once to time the cold start
COLD_STARTS = 10  # detect_paced cold starts per run; setup_s is their median
TRAIN_ROWS = 35_000  # 70% of CORPUS_RECORDS
DETECT_RECORDS = 25_000  # per detect pass, about 1.5 s
PARTITION_FILES = ("train.csv", "val.csv", "test.csv", "schema.txt")

# Every child starts through this launcher. A process's ru_maxrss also
# counts the memory of the process it was forked from; forked from the
# small launcher, the child's peak RSS is its own.
LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    os.execv(sys.argv[2], sys.argv[2:])
_, status, usage = os.wait4(pid, 0)
with open(sys.argv[1], "w") as fh:
    fh.write(str(usage.ru_maxrss))
sys.exit(os.waitstatus_to_exitcode(status))
"""


def child_env(src: str) -> dict:
    """The environment every child runs in; PYTHONUNBUFFERED is left unset."""
    return {
        "PATH": os.defpath,
        "PYTHONPATH": src,
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
    }


@dataclass
class Run:
    """State of one benchmark run: paths, clock budget and tallies."""

    root: str
    work: str
    seconds: float
    deadline: float
    env: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    inputs: dict = field(default_factory=dict)  # name -> sha256
    artifacts: dict = field(default_factory=dict)  # name -> sha256
    ops: dict = field(default_factory=dict)  # sample set -> [Op]
    calibrator: object = None
    notes: dict = field(default_factory=dict)  # name -> value, for the report
    peak_rss_kb: int = 0
    spawned: int = 0
    tally: checks.VerdictTally = field(default_factory=checks.VerdictTally)

    @property
    def fixture(self) -> str:
        return os.path.join(self.root, "perfbench", "fixture")

    @property
    def model(self) -> str:
        return os.path.join(self.fixture, "model.txt")

    @property
    def schema(self) -> str:
        return os.path.join(self.fixture, "schema.txt")

    def path(self, *parts) -> str:
        return os.path.join(self.work, *parts)

    def fail(self, problems) -> None:
        """Count one failed operation if there are problems, and keep them."""
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def timeout(self) -> float:
        return max(1.0, self.deadline - time.perf_counter())

    def spawn(self, args, **popen) -> tuple:
        """Start ``idpskit <args>`` in a process group of its own."""
        self.attempted += 1
        self.spawned += 1
        rss = self.path(f"rss{self.spawned}")
        cmd = [sys.executable, "-S", "-c", LAUNCHER, rss,
               sys.executable, "-m", "idpskit.cli", *args]
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.work,
                                start_new_session=True, **popen)
        return proc, rss

    def reap(self, proc, rss) -> int:
        """Wait for a child (killing its group if it still runs); its exit code."""
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
        rc = proc.wait()
        if os.path.exists(rss):
            self.peak_rss_kb = max(self.peak_rss_kb, int(read(rss)))
        return rc

    def cli(self, args) -> tuple:
        """Run one idpskit command; return (seconds, stdout)."""
        t0 = time.perf_counter()
        proc, rss = self.spawn(args, text=True, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=self.timeout())
        finally:
            rc = self.reap(proc, rss)
        dt = time.perf_counter() - t0
        if rc != 0:
            self.fail([f"idpskit {args[0]} exited {rc}: {err.strip()[-300:]}"])
        return dt, out

    def record(self, name, path) -> None:
        """Keep an artifact's SHA-256; repetitions must write the same bytes."""
        digest = inputs.file_sha256(path)
        if self.artifacts.setdefault(name, digest) != digest:
            self.fail([f"{name} differs between repetitions of one run"])

    def keep_going(self, started: float, reps: int) -> bool:
        """Go on while one more operation of average length fits the seconds."""
        if reps < MIN_REPS:
            return True
        return (time.perf_counter() - started) * (reps + 1) / reps <= self.seconds


@dataclass
class Op:
    """Values one timed operation measured, and the machine's slowness
    just before and just after it (see calibrate.py)."""

    values: list
    before: dict
    after: dict


def read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


def make_corpus(run: Run, seed: int) -> str:
    path = run.path("corpus.txt")
    run.inputs["corpus.txt"] = inputs.write_lines(path, inputs.corpus_lines(seed))
    return path


def repeat(run: Run, op, reps: int = 0, unit: int = 1) -> None:
    """Call op(rep) reps times, or until the run's seconds are used up,
    stopping only after a whole multiple of unit calls.

    op returns {sample set: values}; the machine's slowness is measured
    before the first call and after each one. Verdict percentiles are taken
    per call, so that one slow call moves them no more than the median.
    """
    started, rep = time.perf_counter(), 0
    before = run.calibrator.measure()
    while rep % unit or (rep < reps if reps
                         else run.keep_going(started, rep // unit)):
        measured = op(rep)
        if measured.get("verdict_ms"):
            for p in (50, 99):
                measured[f"verdict_p{p}_ms"] = [
                    percentile(measured["verdict_ms"], p)]
        after = run.calibrator.measure()
        for name, values in measured.items():
            run.ops.setdefault(name, []).append(Op(values, before, after))
        before, rep = after, rep + 1


def prep_setup(run: Run, corpus: str) -> str:
    """prep SETUP_REPS times as setup_s; the partitions must agree."""
    out = run.path("prep")

    def prep(rep):
        dt, _ = run.cli(["prep", "--data", corpus, "--out", out,
                         "--schema", run.schema, "--seed", str(PREP_SEED)])
        for name in PARTITION_FILES:
            run.record(f"prep/{name}", os.path.join(out, name))
        return {"setup_s": [dt]}

    repeat(run, prep, SETUP_REPS)
    return out


def train(run: Run, seed: int) -> None:
    corpus = make_corpus(run, seed)
    prep = prep_setup(run, corpus)

    def train_once(rep):
        out = run.path(f"train{rep}")
        model = os.path.join(out, "model.txt")
        dt, stdout = run.cli(["train", "--data", prep, "--model", model,
                              "--out", out, "--max-epochs", str(EPOCH_BUDGET),
                              "--seed", str(PREP_SEED)])
        history = os.path.join(out, "history.csv")
        run.fail(checks.check_train(
            stdout, read(history) if os.path.exists(history) else "",
            EPOCH_BUDGET))
        for name in ("model.txt", "history.csv"):
            if os.path.exists(os.path.join(out, name)):
                run.record(f"train/{name}", os.path.join(out, name))
        return {"wall_s": [dt]}

    repeat(run, train_once)
    run.notes["records_per_op"] = TRAIN_ROWS * EPOCH_BUDGET


AUDIT_ARTIFACTS = {
    "eval": ("summary.csv", "roc_attack.csv"),
    "roc": ("roc_auc.csv",),
    "quantize": ("qmodel.txt",),
    "compare": ("agreement.csv", "agreement_summary.txt"),
}


def audit(run: Run, seed: int) -> None:
    """Each command is one timed operation, so the calibration brackets it;
    a chain is eval, roc, quantize and compare on the fixture model."""
    corpus = make_corpus(run, seed)
    prep = prep_setup(run, corpus)
    names = list(AUDIT_ARTIFACTS)

    def command(rep):
        name = names[rep % len(names)]
        out = run.path(f"audit{rep // len(names)}")
        args = {
            "eval": ["--data", prep, "--model", run.model],
            "roc": ["--data", prep, "--model", run.model],
            "quantize": ["--model", run.model],
            "compare": ["--data", prep, "--model", run.model, "--qmodel",
                        os.path.join(out, "quantize", "qmodel.txt")],
        }[name]
        dt, _ = run.cli([name, *args, "--out", os.path.join(out, name)])
        for artifact in AUDIT_ARTIFACTS[name]:
            path = os.path.join(out, name, artifact)
            if os.path.exists(path):
                run.record(f"{name}/{artifact}", path)
        if name == "compare":
            check_audit(run, out)
        return {f"audit.{name}_s": [dt]}

    repeat(run, command, unit=len(names))
    run.notes["records_per_op"] = inputs.CORPUS_RECORDS


def check_audit(run: Run, out: str) -> None:
    summary = os.path.join(out, "eval", "summary.csv")
    agreement = os.path.join(out, "compare", "agreement_summary.txt")
    if not (os.path.exists(summary) and os.path.exists(agreement)):
        run.fail(["eval or compare wrote no summary"])
        return
    success, problems = checks.check_summary(read(summary))
    rate, more = checks.check_agreement(read(agreement))
    run.fail(problems + more)
    run.notes["test_success"] = success
    run.notes["fixed_float_agreement"] = rate


def check_detect_output(run, out_lines, stderr_text, causes, labeled):
    tally = checks.check_verdicts(out_lines, causes)
    reported, accuracy, problems = checks.check_stream_summary(
        stderr_text, causes, labeled)
    tally.reported.update(reported)
    run.tally.add(tally)
    run.attempted += tally.records
    run.failed += tally.failed
    run.problems.extend(tally.problems)
    run.fail(problems)
    if accuracy is not None:
        run.notes["labeled_accuracy"] = accuracy


def detect_pass(run: Run, data: str, causes, labeled, rep: int) -> dict:
    """One closed-loop detect over a file; verdicts are timed as they are read."""
    out = run.path(f"detect{rep}")
    err_path = run.path(f"detect{rep}.err")
    chunks, times = [], []
    with open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc, rss = run.spawn(["detect", "--data", data, "--model", run.model,
                               "--schema", run.schema, "--out", out],
                              stdout=subprocess.PIPE, stderr=err)
        try:
            while True:
                block = proc.stdout.read1(1 << 16)
                if not block:
                    break
                now = time.perf_counter()
                chunks.append(block)
                times.extend([now] * block.count(b"\n"))
            proc.wait(timeout=run.timeout())
        finally:
            rc = run.reap(proc, rss)
    if rc != 0:
        run.fail([f"detect exited {rc}"])
    text = b"".join(chunks).decode("utf-8")
    out_lines = text.splitlines()
    check_detect_output(run, out_lines, read(err_path), causes, labeled)
    verdicts = os.path.join(out, "verdicts.csv")
    if os.path.exists(verdicts):
        if read(verdicts).splitlines()[1:] != out_lines:
            run.fail(["verdicts.csv differs from the verdicts on stdout"])
        run.record("detect/verdicts.csv", verdicts)
    if len(times) < 2:
        run.fail(["detect gave fewer than two verdicts"])
        return {}
    return {
        "setup_s": [times[0] - t_spawn],
        "wall_s": [times[-1] - times[0]],
        "verdict_ms": [(t - t_spawn) * 1000 for t in times],
    }


def detect_inputs(run: Run, seed: int) -> tuple:
    """Write the detect stream; return (path, lines, causes, labeled)."""
    lines, causes = inputs.detect_stream(
        inputs.corpus_lines(seed, DETECT_RECORDS), seed)
    labeled = [line.count(",") == 41 for line in lines]
    path = run.path("stream.txt")
    run.inputs["stream.txt"] = inputs.write_lines(path, lines)
    return path, lines, causes, labeled


def detect(run: Run, seed: int) -> None:
    data, stream, causes, labeled = detect_inputs(run, seed)
    repeat(run, lambda rep: detect_pass(run, data, causes, labeled, rep))
    run.notes["records_per_op"] = len(stream)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def paced_session(run: Run, warmup, lines, rep: int) -> dict:
    """Open loop: send lines at PACED_RATE; time each verdict from its due time.

    The warm-up burst is written at spawn; the schedule starts once its
    first verdict has arrived. Two threads: this one writes, a reader
    thread timestamps verdict lines.
    """
    err_path = run.path(f"paced{rep}.err")
    chunks, times = [], []
    first = threading.Event()

    def reader(stream):
        while True:
            block = stream.read(1 << 16)
            if not block:
                break
            now = time.perf_counter()
            chunks.append(block)
            n = block.count(b"\n")
            times.extend([now] * n)
            if n:
                first.set()

    payload = [(line + "\n").encode("utf-8") for line in lines]
    late, dues = [], []
    with open(err_path, "wb") as err:
        proc, rss = run.spawn(["detect", "--data", "-", "--model", run.model,
                               "--schema", run.schema], bufsize=0,
                              stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=err)
        thread = threading.Thread(target=reader, args=(proc.stdout,))
        thread.start()
        try:
            fd = proc.stdin.fileno()
            _write_all(fd, "".join(line + "\n" for line in warmup).encode("utf-8"))
            if not first.wait(timeout=run.timeout()):
                raise TimeoutError("no verdict for the warm-up burst")
            t0 = time.perf_counter() + 0.005
            for i, data in enumerate(payload):
                due = t0 + i / PACED_RATE
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                late.append(time.perf_counter() - due)
                dues.append(due)
                _write_all(fd, data)
            proc.stdin.close()
            proc.wait(timeout=run.timeout())
        finally:
            rc = run.reap(proc, rss)
            thread.join()
    if rc != 0:
        run.fail([f"detect --data - exited {rc}"])
    n_all = len(warmup) + len(lines)
    causes, labeled = [None] * n_all, [False] * n_all
    out_lines = b"".join(chunks).decode("utf-8").splitlines()
    check_detect_output(run, out_lines, read(err_path), causes, labeled)
    paced_times = times[len(warmup):]
    if len(paced_times) != len(dues):
        run.fail(["paced session lost verdicts"])
        return {}
    return {
        "wall_s": [paced_times[-1] - dues[0]],
        "verdict_ms": [(t - d) * 1000 for t, d in zip(paced_times, dues)],
        "generator_late_ms": [x * 1000 for x in late],
    }


def cold_start(run: Run, warmup, rep: int) -> dict:
    """Spawn detect on stdin and write the warm-up burst; the first verdict
    line read marks the detector's cold start."""
    err_path = run.path(f"cold{rep}.err")
    with open(err_path, "wb") as err:
        t_spawn = time.perf_counter()
        proc, rss = run.spawn(["detect", "--data", "-", "--model", run.model,
                               "--schema", run.schema], stdin=subprocess.PIPE,
                              stdout=subprocess.PIPE, stderr=err)
        try:
            _write_all(proc.stdin.fileno(),
                       "".join(line + "\n" for line in warmup).encode("utf-8"))
            proc.stdin.close()
            first = proc.stdout.read1(1 << 16)
            t_first = time.perf_counter()
            text = (first + proc.stdout.read()).decode("utf-8")
            proc.wait(timeout=run.timeout())
        finally:
            rc = run.reap(proc, rss)
    if rc != 0:
        run.fail([f"detect --data - exited {rc}"])
    check_detect_output(run, text.splitlines(), read(err_path),
                        [None] * len(warmup), [False] * len(warmup))
    return {"setup_s": [t_first - t_spawn]} if first else {}


def paced_inputs(seed: int) -> tuple:
    lines = [inputs.strip_label(line) for line in
             inputs.corpus_lines(seed, PACED_WARMUP + PACED_SESSION)]
    return lines[:PACED_WARMUP], lines[PACED_WARMUP:]


def detect_paced(run: Run, seed: int) -> None:
    warmup, lines = paced_inputs(seed)
    run.inputs["paced.txt"] = inputs.sha256_text(
        "".join(line + "\n" for line in warmup + lines))
    # the cold starts share one core with the calibration kernels, as on
    # the other workloads; the sessions do not, so that the generator and
    # the detector each have a core
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cpus)})
    try:
        repeat(run, lambda rep: cold_start(run, warmup, rep), COLD_STARTS)
    finally:
        os.sched_setaffinity(0, cpus)
    repeat(run, lambda rep: paced_session(run, warmup, lines, rep))
    run.notes["records_per_op"] = len(lines)


WORKLOADS = {
    "train": train,
    "audit": audit,
    "detect": detect,
    "detect_paced": detect_paced,
}

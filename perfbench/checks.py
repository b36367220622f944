"""Checks that the program's outputs are correct.

Each check returns a list of problems; an empty list means the output
passed. The floors are ones the fixture model meets on every seed tried,
with margin: test success 0.9557 and fixed/float agreement 1.0 on seed 7.
"""

import math
from collections import Counter
from dataclasses import dataclass, field

TEST_SUCCESS_FLOOR = 0.90
AGREEMENT_FLOOR = 0.99
DETECT_ACCURACY_FLOOR = 0.90  # attack-vs-normal, labeled well-formed lines

N_CLASSES = 6
POLICY = {0: "allow", 1: "block", 2: "block", 3: "block", 4: "block", 5: "alert"}


def check_train(stdout: str, history_text: str, epochs: int) -> list:
    """train used its whole epoch budget and wrote one finite row per epoch."""
    problems = []
    if f"epochs {epochs} stop max_epochs" not in stdout:
        problems.append(f"train did not run its {epochs}-epoch budget: "
                        f"{stdout.strip()!r}")
    if not history_text.endswith("\n"):
        problems.append("history.csv does not end with a newline: truncated")
    lines = history_text.splitlines()
    if not lines or lines[0] != "epoch,train_mse,val_mse":
        return problems + ["history.csv has no header"]
    rows = lines[1:]
    if len(rows) != epochs:
        problems.append(f"history.csv has {len(rows)} epochs, expected {epochs}")
    for n, row in enumerate(rows, start=1):
        parts = row.split(",")
        try:
            ok = (len(parts) == 3 and int(parts[0]) == n
                  and all(math.isfinite(float(p)) for p in parts[1:]))
        except ValueError:
            ok = False
        if not ok:
            problems.append(f"history.csv row {n} is malformed: {row!r}")
            break
    return problems


def check_summary(summary_text: str) -> tuple:
    """(test success rate, problems) from eval's summary.csv."""
    for line in summary_text.splitlines()[1:]:
        parts = line.split(",")
        if parts[0] == "test":
            rate = float(parts[2])
            if rate < TEST_SUCCESS_FLOOR:
                return rate, [f"test success {rate:.4f} < {TEST_SUCCESS_FLOOR}"]
            return rate, []
    return 0.0, ["summary.csv has no test row"]


def check_agreement(summary_text: str) -> tuple:
    """(agreement, problems) from compare's agreement_summary.txt."""
    values = dict(line.split(" ", 1) for line in summary_text.splitlines()
                  if " " in line)
    if "agreement" not in values:
        return 0.0, ["agreement_summary.txt has no agreement line"]
    rate = float(values["agreement"])
    if rate < AGREEMENT_FLOOR:
        return rate, [f"fixed/float agreement {rate:.4f} < {AGREEMENT_FLOOR}"]
    return rate, []


@dataclass
class VerdictTally:
    """What happened to each record sent to detect."""

    records: int = 0
    verdicts: int = 0
    missing: int = 0
    wrong: int = 0
    injected: Counter = field(default_factory=Counter)
    caught: Counter = field(default_factory=Counter)
    reported: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.missing + self.wrong

    def add(self, other: "VerdictTally") -> None:
        self.records += other.records
        self.verdicts += other.verdicts
        self.missing += other.missing
        self.wrong += other.wrong
        self.injected.update(other.injected)
        self.caught.update(other.caught)
        self.reported.update(other.reported)


def _verdict_ok(parts, index, cause) -> bool:
    if len(parts) != 3 + N_CLASSES or parts[0] != str(index):
        return False
    if cause is not None:
        return parts[1] == "-1" and parts[2] == "alert"
    try:
        predicted = int(parts[1])
        scores = [float(s) for s in parts[3:]]
    except ValueError:
        return False
    return (predicted in POLICY and parts[2] == POLICY[predicted]
            and scores[predicted] == max(scores)
            and abs(sum(scores) - 1.0) < 1e-4)


def check_verdicts(stdout_lines, causes) -> VerdictTally:
    """One verdict line per record, in order; malformed lines get -1,alert."""
    t = VerdictTally(records=len(causes), verdicts=len(stdout_lines))
    t.injected.update(c for c in causes if c is not None)
    for index, cause in enumerate(causes):
        if index >= len(stdout_lines):
            t.missing = len(causes) - index
            t.problems.append(f"{t.missing} records got no verdict")
            break
        if _verdict_ok(stdout_lines[index].split(","), index, cause):
            if cause is not None:
                t.caught[cause] += 1
        else:
            t.wrong += 1
            if t.wrong <= 3:
                t.problems.append(f"record {index} ({cause or 'well-formed'}): "
                                  f"wrong verdict {stdout_lines[index]!r}")
    if len(stdout_lines) > len(causes):
        t.wrong += len(stdout_lines) - len(causes)
        t.problems.append(f"{len(stdout_lines) - len(causes)} extra verdicts")
    return t


def check_stream_summary(stderr_text: str, causes, labeled) -> tuple:
    """Check detect's stderr: one error line per injected cause, and totals.

    Returns (reported-errors Counter by injected cause, attack-vs-normal
    accuracy on labeled lines or None without any, problems).
    """
    problems = []
    reported = Counter()
    totals = {}
    for line in stderr_text.splitlines():
        if line.startswith("record "):
            index = int(line.split(":", 1)[0].split()[1])
            if 0 <= index < len(causes) and causes[index] is not None:
                reported[causes[index]] += 1
            else:
                problems.append(f"unexpected error line: {line!r}")
        else:
            key, _, value = line.partition(" ")
            if value.isdigit():
                totals[key] = int(value)
    n_injected = sum(c is not None for c in causes)
    if totals.get("records") != len(causes):
        problems.append(f"summary records {totals.get('records')} != {len(causes)}")
    if totals.get("errors") != n_injected:
        problems.append(f"summary errors {totals.get('errors')} != {n_injected}")
    actions = sum(totals.get(a, 0) for a in ("allow", "alert", "block"))
    if actions != len(causes):
        problems.append(f"action counts add up to {actions}, not {len(causes)}")
    alarms = {k: totals.get(k, 0) for k in
              ("true_positive", "false_positive", "false_negative", "true_negative")}
    n_labeled = sum(1 for c, lab in zip(causes, labeled) if c is None and lab)
    if sum(alarms.values()) != n_labeled:
        problems.append(f"alarm tallies add up to {sum(alarms.values())}, "
                        f"not {n_labeled} labeled records")
    accuracy = None
    if n_labeled:
        accuracy = (alarms["true_positive"] + alarms["true_negative"]) / n_labeled
        if accuracy < DETECT_ACCURACY_FLOOR:
            problems.append(f"attack-vs-normal accuracy {accuracy:.4f} < "
                            f"{DETECT_ACCURACY_FLOOR}")
    return reported, accuracy, problems

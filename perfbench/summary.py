"""End-to-end metrics of one run, and the report printed before the JSON."""

import json
import statistics

import calibrate
import workloads


def values(run, name: str, scale: bool = False) -> list:
    """Samples of one set, scaled to the reference machine speed if asked."""
    return [v / (calibrate.factor(op.before, op.after) if scale else 1)
            for op in run.ops.get(name, []) for v in op.values]


def end_to_end(run, workload: str, scale: bool = True) -> dict:
    """{metric: (value, unit, samples)}; see run.py for the definitions.

    With scale, times are divided by the machine's slowness around them
    (calibrate.py), except the paced workload's wall and verdict times,
    which its schedule sets; its setup_s, a cold start, is scaled too.
    """
    setups = values(run, "setup_s", scale)
    scale = scale and workload != "detect_paced"
    if workload == "audit":
        # a burst of host load slows one command, not the chain: add medians
        per_command = [values(run, f"audit.{c}_s", scale)
                       for c in workloads.AUDIT_ARTIFACTS]
        walls = [sum(chain) for chain in zip(*per_command)]
        wall = sum(statistics.median(v) for v in per_command)
    else:
        walls = values(run, "wall_s", scale)
        wall = statistics.median(walls)
    if workload in ("train", "audit"):
        latency = [w * 1000 for w in walls]
        p50 = p99 = wall * 1000
    else:
        latency = values(run, "verdict_ms", scale)
        p50 = statistics.median(values(run, "verdict_p50_ms", scale))
        p99 = statistics.median(values(run, "verdict_p99_ms", scale))
    per_op = run.notes["records_per_op"]
    return {
        "wall_s": (wall, "s", walls),
        "records_per_s": (per_op / wall, "1/s", [per_op / w for w in walls]),
        "verdict_p50_ms": (p50, "ms", latency),
        "verdict_p99_ms": (p99, "ms", latency),
        "setup_s": (statistics.median(setups), "s", setups),
        "peak_rss_mb": (run.peak_rss_kb / 1024, "MB", None),
    }


def tail(values, better_higher: bool) -> tuple:
    """The worst percentile with at least ten samples beyond it, else the
    worst sample: the highest of p99.9/p99/p90/p50, or for a rate where
    higher is better the lowest of p0.1/p1/p10/p50."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if len(values) * (1 - p / 100) >= 10:
            q = 100 - p if better_higher else p
            return f"p{q:g}", workloads.percentile(values, q)
    return ("min", min(values)) if better_higher else ("max", max(values))


def report(run, metrics: dict, raw: dict, env: dict) -> None:
    """Print the run's record; raw holds the metrics unscaled."""
    print("env " + json.dumps(env, sort_keys=True))
    for name, digest in sorted(run.inputs.items()):
        print(f"input {name} sha256 {digest}")
    for name, digest in sorted(run.artifacts.items()):
        print(f"artifact {name} sha256 {digest}")
    for name, value in sorted(run.notes.items()):
        print(f"note {name} {value}")
    t = run.tally
    if t.records:
        print(f"verdicts {t.verdicts} for {t.records} records: "
              f"{t.missing} missing, {t.wrong} wrong")
        for cause in sorted(t.injected):
            print(f"injected {cause} {t.injected[cause]}: "
                  f"-1,alert {t.caught[cause]}, error line {t.reported[cause]}")
    for name, ops in sorted(run.ops.items()):
        if name.endswith("_s"):
            print(f"unscaled {name} (value/slowness) " + " ".join(
                f"{v:.4f}/{calibrate.factor(op.before, op.after):.3f}"
                for op in ops for v in op.values))
    print(f"{'metric':<16} {'unit':<5} {'value':>14} {'raw':>14} "
          f"{'median':>14} {'tail':>20} {'n':>7}")
    # the value is what the JSON reports and raw the same unscaled; median,
    # tail and n are of the (scaled) samples
    for name, (value, unit, samples) in metrics.items():
        line = f"{name:<16} {unit:<5} {value:>14.4f}"
        if name in raw:
            line += f" {raw[name][0]:>14.4f}"
        if samples:
            label, worst = tail(samples, unit == "1/s")
            line += (f" {statistics.median(samples):>14.4f} "
                     f"{label + ' ' + format(worst, '.4f'):>20} {len(samples):>7}")
        print(line)
    for problem in run.problems[:20]:
        print(f"problem: {problem}")

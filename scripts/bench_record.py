#!/usr/bin/env python3
"""Record the benchmark of one source tree in a BENCH_*.json file.

Runs ``perfbench/run.py`` as it is: every workload once per seed in SEEDS
with ``--seconds`` SECONDS, then one ``--trace 1`` run. The file holds:

- the git revision, a digest of ``src/idpskit``, nproc, Python, numpy and
  the BLAS (``np.show_config(mode="dicts")``);
- per workload, the median, quartiles and IQR of every end-to-end metric
  over the seeds, with each run's value and the calibration slowness each
  run measured;
- the traced per-module metrics, and a note on the ones that time a chunk
  of rows, not one row.

Usage, from the repository root (about 15 minutes on a 2-core host):

    python3 scripts/bench_record.py --out BENCH_<n>.json

No timing here is a test gate. Two files compare two trees only when they
were recorded on the same host; the slowness figures show how far the
host's speed moved while each run was made.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
WORKLOADS = ("train", "audit", "detect", "detect_paced")
SEEDS = (901, 902, 903, 904, 905)
SECONDS = 20
TRACE_WORKLOAD, TRACE_SEED = "detect", 1

# What the traced per-module metrics measure, where a name could mislead.
TRACE_NOTES = {
    "mlp.forward_row_us": "one engine.forward call in detect: a stack of up "
                          "to 64 rows (engine.CHUNK), not one row",
    "preprocessing.transform_row_us": "one RangeScaler.transform call in "
                                      "detect: a chunk of up to 64 rows, "
                                      "not one row",
    "ingest.encode_record_us": "engine.encode_record, called only on the "
                               "records the chunk encoder cannot cast "
                               "(malformed or new symbols)",
    "mlp.train_epoch_ms": "cli.train_network's span over the epochs it ran",
}


def git_revision() -> str:
    try:
        return subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest() -> str:
    """SHA-256 over the paths and bytes of the .py files under src/idpskit."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "idpskit")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "machine": platform.machine(),
    }


def run_bench(workload: str, seed: int, trace: int) -> dict:
    """One perfbench run: its final JSON line and the slowness it measured."""
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no output, exit "
                         f"{proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # summary.report prints "unscaled NAME (value/slowness) v/f v/f ..." per
    # timed name: f is one op's calibration, repeated for each of its values,
    # and names measured by the same ops print the same factors. Take one
    # factor per op (two adjacent ops that print the same three decimals
    # count once), and each op once.
    ops = []
    for line in lines:
        if line.startswith("unscaled "):
            factors = re.findall(r"/([0-9.]+)", line.split(")", 1)[1])
            per_op = tuple(f for i, f in enumerate(factors)
                           if i == 0 or f != factors[i - 1])
            if per_op not in ops:
                ops.append(per_op)
    result["slowness"] = [float(f) for per_op in ops for f in per_op]
    return result


def spread(values: list) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "runs": values}


def record() -> dict:
    out = {"environment": environment(), "seeds": list(SEEDS),
           "seconds": SECONDS, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            print(f"{workload} seed {seed}", file=sys.stderr, flush=True)
            runs.append(run_bench(workload, seed, 0))
        names = sorted({name for r in runs for name in r["metrics"]})
        out["workloads"][workload] = entry = {
            "correct": [r["correct"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "metrics": {
                name: {"unit": runs[0]["metrics"][name]["unit"],
                       **spread([r["metrics"][name]["value"] for r in runs])}
                for name in names if all(name in r["metrics"] for r in runs)
            },
        }
        slowness = [s for r in runs for s in r["slowness"]]
        if slowness:
            entry["slowness"] = spread(slowness)
    print(f"traced {TRACE_WORKLOAD} seed {TRACE_SEED}", file=sys.stderr,
          flush=True)
    traced = run_bench(TRACE_WORKLOAD, TRACE_SEED, 1)
    out["traced"] = {"workload": TRACE_WORKLOAD, "seed": TRACE_SEED,
                     "correct": traced["correct"],
                     "metrics": traced["metrics"], "notes": TRACE_NOTES}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, help="the BENCH_*.json to write")
    args = ap.parse_args(argv)
    result = record()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    ok = all(all(w["correct"]) for w in result["workloads"].values())
    return 0 if ok and result["traced"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

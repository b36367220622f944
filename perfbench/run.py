"""Benchmark of the idpskit pipeline, driven through the ``idpskit`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

Workloads (inputs are made from --seed; the program sees only the files):

- ``train``: ``idpskit train`` on the 50k-record prepared corpus with a
  fixed budget of EPOCH_BUDGET epochs, which every seed uses up.
- ``audit``: ``eval``, ``roc``, ``quantize`` and ``compare`` on the fixture
  model, the analyst's path after training.
- ``detect``: closed loop, ``idpskit detect --data FILE --out DIR`` over
  a seeded mix of labeled, unlabeled and malformed lines.
- ``detect_paced``: open loop, unlabeled lines on stdin at PACED_RATE
  records/s, each verdict timed from its record's due time.

With ``--trace 0`` the last line of stdout is a JSON object with every
end-to-end metric, the same names on every workload:

- ``wall_s``: median duration of the workload's timed operation: one
  train command, one audit chain (the sum of each command's median), one
  detect pass from first verdict to last, one paced session from first due
  time to last verdict.
- ``records_per_s``: records per second of that operation (for train,
  training rows times epochs).
- ``verdict_p50_ms``, ``verdict_p99_ms``: how long a result waits, as the
  median over operations of each operation's percentile. On detect_paced,
  from each record's due time to its verdict line being read; on detect,
  from handing detect the file to each verdict line; on train and audit,
  the whole operation, whose result the user waits for.
- ``setup_s``: median of the run's set-ups: ``idpskit prep`` for train and
  audit; spawn to first verdict (cold start) for the detect workloads, per
  detect pass and, on detect_paced, over COLD_STARTS starts of their own.
- ``peak_rss_mb``: the largest RSS of any child process.

Times in the JSON are in seconds of a reference machine speed: each is
divided by the host's slowness measured around it (calibrate.py), except
detect_paced's wall and verdict times. The report above the JSON prints
every metric unscaled as well (``raw``).

With ``--trace 1`` the chain runs in-process with spans around each call
(see tracing.py) and the JSON holds the per-module metrics instead.
The command exits 1 when a check on the program's outputs fails, and 2
when the checkout has no ``src/idpskit``.
"""

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")
DEADLINE_S = 170
WORKLOAD_NAMES = ("train", "audit", "detect", "detect_paced")


def environment(child_env: dict) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "child_env": child_env,
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "idpskit", "cli.py")):
        print(f"no idpskit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    # before numpy is first imported, so the traced run uses one BLAS thread
    os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    sys.path.insert(0, SRC)
    import calibrate
    import inputs
    import summary
    import tracing
    import workloads

    if not args.trace and args.workload != "detect_paced":
        # the calibration kernels and the children share one core, so the
        # kernels see the slowness the children see
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.makedirs(RUN_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUN_DIR)
    env = workloads.child_env(SRC)
    run = workloads.Run(root=ROOT, work=work, seconds=args.seconds,
                        deadline=time.perf_counter() + DEADLINE_S, env=env,
                        calibrator=calibrate.Calibrator())
    metrics, raw = {}, {}
    try:
        problem = inputs.check_generator()
        if problem:
            run.fail([problem])
        elif args.trace:
            per_module = tracing.traced_run(run, args.workload, args.seed,
                                            os.path.join(RUN_DIR, "traces"))
            metrics = {k: (v, u, None) for k, (v, u) in per_module.items()}
        else:
            workloads.WORKLOADS[args.workload](run, args.seed)
            metrics = summary.end_to_end(run, args.workload)
            raw = summary.end_to_end(run, args.workload, scale=False)
    except Exception:
        run.fail([traceback.format_exc()])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    summary.report(run, metrics, raw, environment(env))
    correct = not run.problems and bool(metrics)
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

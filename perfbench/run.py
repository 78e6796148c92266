"""Benchmark of the trimodal pipeline: one command, three workloads.

    python3 perfbench/run.py --workload {cv_grid,fusion_cv,score_cohort} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  A worker process sets up several times
(once when tracing); the timed body then repeats for ``--seconds`` in a
second worker, whose peak RSS is reported.  Both workers start with the
BLAS thread count pinned to ``BLAS_THREADS``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` the per-layer metrics of one traced repetition, and the
self-time and conv layer tables are printed above it and written under
``perfbench/.work/trace/``.  The command exits 1 when any correctness
check fails, and 2 when the program's sources are not beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spans  # noqa: E402

WORKLOADS = ("cv_grid", "fusion_cv", "score_cohort")
BLAS_THREADS = 1
# The whole run, set-ups included, must end within 180 s.
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"), ("subjects_per_s", "subjects/s"), ("peak_rss_mb", "MB"),
    ("setup_s", "s"), ("auc_mean", "1"),
)


class WorkerError(RuntimeError):
    pass


def run_worker(args, deadline):
    """Run one workloads.py phase; returns its JSON result.  A worker
    past the deadline is killed and waited for."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), *args]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerError(f"no time left for {args[0]}")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired as e:
        raise WorkerError(f"{args[0]} worker passed the {DEADLINE_S:.0f} s deadline") from e
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{args[0]} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def measure(workload, seed, seconds, trace, work, trace_dir):
    """Set up, run the timed body, and gather metrics and the ledger."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed)]
    setup_trace = os.path.join(trace_dir, f"{workload}.setup.jsonl") if trace else None
    extra = ["--trace", setup_trace] if trace else []
    r = run_worker(["setup", *common, "--dir", work, *extra], deadline)
    attempted, failed = r["attempted"], r["failed"]
    setup_times, setup_dir = r["setup_times"], r["dir"]

    body_trace = os.path.join(trace_dir, f"{workload}.body.jsonl") if trace else None
    extra = ["--trace", body_trace] if trace else []
    r = run_worker(["body", *common, "--dir", setup_dir, "--seconds", str(seconds), *extra],
                   deadline)
    attempted += r["attempted"]
    failed += r["failed"]
    if not r["walls"]:
        raise WorkerError("no repetition of the timed body completed")
    wall = statistics.median(r["walls"])
    result = {
        "attempted": attempted, "failed": failed, "environment": r["environment"],
        "reps": len(r["walls"]), "walls": r["walls"], "setup_times": setup_times,
        "metrics": {
            "wall_s": wall,
            "subjects_per_s": r["subject_passes"] / wall,
            "peak_rss_mb": r["peak_rss_mb"],
            "setup_s": statistics.median(setup_times),
            "auc_mean": r["auc_mean"],
        },
    }
    if trace:
        if r["traced_wall"] is None:
            raise WorkerError("the traced repetition did not complete")
        result["body_spans"] = spans.read_spans(body_trace)
        result["setup_spans"] = spans.read_spans(setup_trace)
        result["traced_wall"] = r["traced_wall"]
    return result


def report_trace(workload, res, trace_dir):
    """Print and write the self-time and layer tables; return per-layer metrics."""
    body = res["body_spans"]
    traced = res["traced_wall"]
    lines = [f"self time per span, traced repetition of {workload} "
             f"({traced:.3f} s traced, {res['metrics']['wall_s']:.3f} s untraced):",
             "| span | calls | total s | self s | self % of traced wall |",
             "| --- | --- | --- | --- | --- |"]
    rows = sorted(spans.self_times(body).items(), key=lambda kv: -kv[1][2])
    for name, (calls, total, self_s) in rows:
        lines.append(f"| {name} | {calls} | {total:.4f} | {self_s:.4f} | {100 * self_s / traced:.1f} |")
    covered = sum(self_s for _, (_, _, self_s) in rows)
    lines.append(f"untraced remainder (outside every span): {traced - covered:.4f} s")
    table = spans.layer_table(body)
    text = "\n".join(lines) + f"\n\nconv layers at batch {spans.TABLE_BATCH}:\n" + table + "\n"
    with open(os.path.join(trace_dir, f"{workload}.tables.md"), "w", encoding="utf-8") as f:
        f.write(text)
    print(text)
    return spans.per_layer_metrics(body, res["setup_spans"], res["metrics"]["wall_s"], traced)


def main(argv=None):
    p = argparse.ArgumentParser(description="trimodal benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "trimodal", "__init__.py")):
        print(f"error: the trimodal sources are not under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2

    base = os.path.join(HERE, ".work")
    work = os.path.join(base, f"{args.workload}-{args.seed}-{os.getpid()}")
    trace_dir = os.path.join(base, "trace")
    os.makedirs(work)
    os.makedirs(trace_dir, exist_ok=True)
    try:
        res = measure(args.workload, args.seed, args.seconds, args.trace, work, trace_dir)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("environment:", json.dumps(res["environment"], sort_keys=True))
    print("only this command's own processes were measured; no machine setting was changed")
    m = res["metrics"]
    print(f"{args.workload} seed {args.seed}: {res['reps']} timed repetitions "
          f"{[round(w, 3) for w in res['walls']]}, set-ups {[round(s, 3) for s in res['setup_times']]}")
    for name, unit in END_TO_END:
        print(f"  {name:<15} {m[name]:>12.4f} {unit}")
    error_rate = res["failed"] / res["attempted"]
    print(f"  {'error_rate':<15} {error_rate:>12.4f} fraction "
          f"({res['failed']} failed of {res['attempted']} attempted)")
    if args.trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in report_trace(args.workload, res, trace_dir).items()}
    else:
        metrics = {name: {"value": m[name], "unit": unit} for name, unit in END_TO_END}
    correct = res["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark worker: set-up and timed body of each workload.

Run by ``run.py`` in a fresh process per phase, with the BLAS thread
count already pinned in the environment, so that NumPy starts with it and
the timed body's peak RSS is its own:

    python3 perfbench/workloads.py setup --workload W --seed N --dir D [--trace F]
    python3 perfbench/workloads.py body  --workload W --seed N --dir D --seconds S [--trace F]

Prints one JSON object as its last stdout line.  The program receives
only the generated cohort (and, for ``score_cohort``, the models fitted in
set-up); the seed chooses the cohort.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402
import yaml  # noqa: E402

import spans  # noqa: E402
# Traced functions are called through their modules, so that the
# tracer's patches see the calls made from here too.
from trimodal import checkpoint, cli, synthdata, trainer, verify  # noqa: E402
from trimodal.mmg import MmgModel  # noqa: E402
from trimodal.synthdata import CohortConfig, Standardizer, split_kfold  # noqa: E402
from trimodal.trainer import FusionBundle, FusionModel, TrainConfig  # noqa: E402

# Sizes are chosen so one repetition of a timed body takes 2-7 s on one
# core, and the AUC floors sit well below every seed tried while still
# above chance (0.5), so a pipeline that stops learning trips them.
CV_GRID = dict(n_subjects=60, k_folds=2, epochs_stage1=3, epochs_stage2=3, auc_floor=0.55)
FUSION_CV = dict(n_subjects=200, k_folds=2, epochs_stage2=3, auc_floor=0.75,
                 modes=((False, False), (False, True)))
SCORE_COHORT = dict(n_subjects=1200, missing_pet_rate=0.5, n_fit=150,
                    epochs_stage1=2, epochs_stage2=2, auc_floor=0.75)
GRID_MODES = ("none", "mmg_only", "tcaf_only", "mmg_tcaf")
# Set-up repetitions per run (one when tracing); score_cohort's set-up
# fits models and is ten times longer, so three already cover ~18 s.
SETUP_REPEATS = {"cv_grid": 5, "fusion_cv": 5, "score_cohort": 3}


class Ledger:
    """Operations attempted and failed; each failure names itself on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def dir_digest(path):
    """sha256 over every file's relative path and bytes, in sorted order."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode("utf-8"))
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def environment():
    """What the numbers were measured on; no machine setting is changed."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _train_config(**kw):
    return TrainConfig(**kw).validate()


# -- set-up ----------------------------------------------------------------------


def setup(workload, seed, work, ledger):
    """Write the cohort, run the verify gate, fit score_cohort's models."""
    cohort_dir = os.path.join(work, "cohort")
    if workload == "cv_grid":
        synthdata.generate_cohort(
            CohortConfig(n_subjects=CV_GRID["n_subjects"], seed=seed), cohort_dir)
        tree = {"cohort": {"n_subjects": CV_GRID["n_subjects"], "seed": seed},
                "train": {k: CV_GRID[k] for k in ("k_folds", "epochs_stage1", "epochs_stage2")}}
        with open(os.path.join(work, "run.yaml"), "w", encoding="utf-8") as f:
            yaml.safe_dump(tree, f, sort_keys=True)
    elif workload == "fusion_cv":
        synthdata.generate_cohort(
            CohortConfig(n_subjects=FUSION_CV["n_subjects"], seed=seed), cohort_dir)
    else:
        p = SCORE_COHORT
        synthdata.generate_cohort(CohortConfig(n_subjects=p["n_subjects"], seed=seed,
                                               missing_pet_rate=p["missing_pet_rate"]),
                                  cohort_dir)
        fit = synthdata.load_cohort(cohort_dir)[:p["n_fit"]]
        cfg = _train_config(epochs_stage1=p["epochs_stage1"], epochs_stage2=p["epochs_stage2"])
        models = os.path.join(work, "models")
        mmg_model, _ = trainer.train_mmg(fit, cfg, out_dir=models)
        trainer.train_fusion(fit, cfg, mmg_model, out_dir=models)
    _, ok = verify.run_all(out=io.StringIO())
    ledger.check(ok, "verify.run_all(): a named self-check failed")


def setup_repeated(workload, seed, base, trace_path, ledger):
    """Set up into fresh directories, keeping only the last; every set-up
    must write the same bytes."""
    times, digests, work = [], [], None
    for i in range(1 if trace_path else SETUP_REPEATS[workload]):
        if work:
            shutil.rmtree(work)
        work = os.path.join(base, f"setup_{i}")
        os.makedirs(work)
        restore = None
        if trace_path:
            tracer = spans.Tracer()
            tracer.run_id = f"{workload}-setup"
            restore = spans.install(tracer)
        t0 = time.perf_counter()
        try:
            setup(workload, seed, work, ledger)
        finally:
            times.append(time.perf_counter() - t0)
            if restore:
                restore()
                tracer.write(trace_path)
        digests.append(dir_digest(work))
    if len(digests) > 1:
        ledger.check(len(set(digests)) == 1, f"{workload} set-up outputs differ between repetitions")
    return {"setup_times": times, "dir": work}


# -- timed bodies ----------------------------------------------------------------


def _cv_grid_passes(subjects):
    """Subject-passes of one grid run: stage-1 and stage-2 training
    forward+backward per subject and epoch, plus test-fold scoring."""
    p = CV_GRID
    ids = [s.subject_id for s in subjects]
    # run_cv splits with the train seed, which run.yaml leaves at its default 0
    folds = split_kfold(ids, p["k_folds"], 0, labels=[s.label for s in subjects])
    total = 0
    for test in folds:
        test_set = set(test)
        train = [s for s in subjects if s.subject_id not in test_set]
        n_pet = sum(s.has_pet for s in train)
        stage1 = p["epochs_stage1"] * n_pet
        stage2 = p["epochs_stage2"] * len(train) + len(test)
        total += 2 * stage1 + 4 * stage2
    return total


class Body:
    """A timed body: ``run(rep)`` returns (wall_s, output, ...) and
    ``check(result)`` returns (auc, digest), recording checks in the ledger."""

    def __init__(self, work, ledger):
        self.work, self.ledger = work, ledger
        self.first = None

    def same_as_first(self, digest, what):
        if self.first is None:
            self.first = digest
        else:
            self.ledger.check(digest == self.first, f"{what} differ between repetitions")
        return digest


class CvGrid(Body):
    """``trimodal cv --ablation all`` on an on-disk cohort: both stages,
    every mode, every artifact written."""

    def __init__(self, work, ledger):
        super().__init__(work, ledger)
        self.passes = _cv_grid_passes(synthdata.load_cohort(os.path.join(work, "cohort")))

    def run(self, rep):
        out = os.path.join(self.work, f"out_{rep}")
        argv = ["cv", "--ablation", "all", "--config", os.path.join(self.work, "run.yaml"),
                "--cohort", os.path.join(self.work, "cohort"), "--out", out]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall = time.perf_counter() - t0
        return wall, out, rc

    def check(self, result):
        _, out, rc = result
        led = self.ledger
        led.check(rc == 0, f"cli cv exited {rc}")
        aucs = []
        for mode in GRID_MODES:
            path = os.path.join(out, f"metrics_{mode}.json")
            rows = []
            if os.path.exists(path):
                with open(path, encoding="utf-8") as f:
                    report = json.load(f)
                rows = report["folds"]
                aucs.append(report["aggregate"]["auc"]["mean"])
            for fold in range(CV_GRID["k_folds"]):
                led.check(any(r["fold"] == fold for r in rows), f"{mode} fold {fold} did not finish")
        auc = sum(aucs) / len(aucs) if aucs else 0.0
        led.check(auc >= CV_GRID["auc_floor"], f"cv_grid auc_mean {auc:.4f} < floor")
        return auc, self.same_as_first(dir_digest(out), "cv_grid artifacts")


class FusionCv(Body):
    """Stage-2-only cross-validation (modes none and tcaf_only), no generator."""

    def __init__(self, work, ledger):
        super().__init__(work, ledger)
        p = FUSION_CV
        self.cfgs = [_train_config(k_folds=p["k_folds"], epochs_stage2=p["epochs_stage2"],
                                   use_mmg=m, use_tcaf=t) for m, t in p["modes"]]
        n = p["n_subjects"]
        n_test = n // p["k_folds"]
        self.passes = len(self.cfgs) * p["k_folds"] * (p["epochs_stage2"] * (n - n_test) + n_test)

    def run(self, rep):
        t0 = time.perf_counter()
        subjects = synthdata.load_cohort(os.path.join(self.work, "cohort"))
        reports = [trainer.run_cv(subjects, cfg) for cfg in self.cfgs]
        return time.perf_counter() - t0, reports

    def check(self, result):
        _, reports = result
        led = self.ledger
        for cfg, report in zip(self.cfgs, reports):
            for fold in range(cfg.k_folds):
                led.check(any(r["fold"] == fold for r in report["folds"]),
                          f"{cfg.mode()} fold {fold} did not finish")
        auc = sum(r["aggregate"]["auc"]["mean"] for r in reports) / len(reports)
        led.check(auc >= FUSION_CV["auc_floor"], f"fusion_cv auc_mean {auc:.4f} < floor")
        digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode("utf-8")).hexdigest()
        return auc, self.same_as_first(digest, "fusion_cv reports")


def _load_models(models_dir, cfg):
    """Rebuild the fitted generator and fusion bundle from their checkpoints."""
    tensors, meta = checkpoint.load_checkpoint(os.path.join(models_dir, "mmg.itck"))
    mmg_model = MmgModel(np.random.default_rng(0), cfg.mmg,
                         volume_shape=tuple(meta["volume_shape"]))
    mmg_model.load_state_dict(tensors)
    tensors, meta = checkpoint.load_checkpoint(os.path.join(models_dir, "fusion.itck"))
    standardizer = Standardizer()
    standardizer.mean = tensors.pop("standardizer.mean").astype(np.float64)
    standardizer.std = tensors.pop("standardizer.std").astype(np.float64)
    model = FusionModel(np.random.default_rng(0), cfg.enc, use_tcaf=meta["use_tcaf"])
    model.load_state_dict(tensors)
    return mmg_model, FusionBundle(model, standardizer, cfg.loss, [])


class ScoreCohort(Body):
    """Load a large cohort and the fitted models, impute the missing PET
    and score every subject not used for fitting, in one batch."""

    def __init__(self, work, ledger):
        super().__init__(work, ledger)
        self.cfg = _train_config()
        self.passes = SCORE_COHORT["n_subjects"] - SCORE_COHORT["n_fit"]

    def run(self, rep):
        t0 = time.perf_counter()
        subjects = synthdata.load_cohort(os.path.join(self.work, "cohort"))
        mmg_model, bundle = _load_models(os.path.join(self.work, "models"), self.cfg)
        m = trainer.evaluate_fusion(bundle, subjects[SCORE_COHORT["n_fit"]:], mmg_model)
        return time.perf_counter() - t0, m

    def check(self, result):
        _, m = result
        led = self.ledger
        led.check(m["tp"] + m["tn"] + m["fp"] + m["fn"] == self.passes,
                  "score_cohort did not score every subject")
        led.check(m["auc"] >= SCORE_COHORT["auc_floor"], f"score_cohort auc {m['auc']:.4f} < floor")
        digest = hashlib.sha256(json.dumps(m, sort_keys=True).encode("utf-8")).hexdigest()
        return m["auc"], self.same_as_first(digest, "score_cohort metrics")


BODIES = {"cv_grid": CvGrid, "fusion_cv": FusionCv, "score_cohort": ScoreCohort}


def body(workload, work, seconds, trace_path, ledger):
    """Repeat the timed body while another repetition still fits in
    ``seconds`` (at least twice).  With tracing, untraced repetitions fill
    half the time and one traced repetition follows."""
    wl = BODIES[workload](work, ledger)
    walls, aucs, digest = [], [], None
    budget = seconds / 2 if trace_path else seconds
    min_reps = 1 if trace_path else 2
    t_start = time.perf_counter()
    rep = 0

    def one(rep):
        try:
            result = wl.run(rep)
        except Exception:  # a crashed repetition is a failed operation, not a crash of the run
            traceback.print_exc()
            ledger.check(False, f"{workload} repetition {rep} raised")
            return None
        auc, d = wl.check(result)
        aucs.append(auc)
        return result[0], d

    while True:
        got = one(rep)
        rep += 1
        if got is not None:
            walls.append(got[0])
            digest = got[1]
        elapsed = time.perf_counter() - t_start
        if rep >= min_reps and elapsed + elapsed / rep > budget:
            break
    traced_wall = None
    if trace_path:
        tracer = spans.Tracer()
        tracer.run_id = f"{workload}-body-rep{rep}"
        restore = spans.install(tracer)
        try:
            got = one(rep)
        finally:
            restore()
        tracer.write(trace_path)
        traced_wall = got[0] if got else None
    return {
        "walls": walls, "traced_wall": traced_wall, "auc_mean": aucs[0] if aucs else 0.0,
        "subject_passes": wl.passes, "digest": digest,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("phase", choices=("setup", "body"))
    p.add_argument("--workload", required=True, choices=sorted(BODIES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", default=None, metavar="SPANS_FILE")
    args = p.parse_args(argv)
    ledger = Ledger()
    if args.phase == "setup":
        result = setup_repeated(args.workload, args.seed, args.dir, args.trace, ledger)
    else:
        result = body(args.workload, args.dir, args.seconds, args.trace, ledger)
        result["environment"] = environment()
    result.update(attempted=ledger.attempted, failed=ledger.failed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

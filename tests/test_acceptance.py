"""End-to-end guarantees of the shipped package, one test per line item.

Fast families first (gradients, oracles, identities, determinism,
formats), then the desk-scale learning runs, which live in module-scoped
fixtures so each expensive experiment happens exactly once and whose
tests carry the ``slow`` marker (``pytest -m "not slow"`` leaves them
out).  Every assertion message carries the measured numbers.

The last two margin tests state a bar this generator does not meet: the
plain-concat baseline ties the co-attention heads here because, at this
scale, the pooled summary and the attended tokens expose the same single
discriminative direction.  They are kept as written rather than loosened,
and fail with the measured gap.
"""

import hashlib
import os
import time

import numpy as np
import pytest
import yaml

from trimodal.checkpoint import load_checkpoint, save_checkpoint, state_checksums
from trimodal.cli import main
from trimodal.synthdata import (
    MANIFEST_COLUMNS,
    CohortConfig,
    _draw_subjects,
    read_volume,
    write_volume,
)
from trimodal.trainer import (
    Instrument,
    TrainConfig,
    evaluate_fusion,
    run_cv,
    train_fusion,
    train_mmg,
)
from trimodal.verify import ALL_CHECKS

from conftest import fast_train_config

ELAPSED = {}


def _run_named_checks(prefix):
    checks = [(name, fn) for name, fn in ALL_CHECKS if name.startswith(prefix)]
    assert checks, f"no registered checks named {prefix}*"
    failures = []
    t0 = time.perf_counter()
    for name, fn in checks:
        try:
            fn()
        except Exception as e:  # noqa: BLE001 - any raise is a failed check
            failures.append(f"{name}: {e}")
    return failures, time.perf_counter() - t0, [name for name, _ in checks]


# -- 1: gradient suite -------------------------------------------------------


def test_gradient_suite_passes_within_two_minutes():
    failures, elapsed, names = _run_named_checks("grad/")
    assert "grad/composite-mmg-loss" in names
    assert "grad/composite-fusion-focal" in names
    assert not failures, "; ".join(failures)
    assert elapsed < 120.0, f"gradient suite took {elapsed:.1f}s (budget 120s)"


# -- 2: oracle equivalences --------------------------------------------------


def test_oracle_equivalences_hold():
    failures, _, names = _run_named_checks("oracle/")
    for required in ("oracle/quantize-bruteforce", "oracle/conv3d-naive",
                     "oracle/coattention-loops", "oracle/auc-pairwise"):
        assert required in names
    assert not failures, "; ".join(failures)


# -- 3: loss identities ------------------------------------------------------


def test_loss_identities_hold():
    failures, _, names = _run_named_checks("identity/")
    for required in ("identity/focal-ce", "identity/triple-endpoints",
                     "identity/total-alpha0", "identity/hybrid-single-weight",
                     "identity/sdm-zero-nonneg"):
        assert required in names
    assert not failures, "; ".join(failures)


# -- 4: determinism ----------------------------------------------------------

_FAST_YAML = """\
cohort:
  n_subjects: 16
  volume_shape: [8, 8, 8]
  missing_pet_rate: 0.25
  seed: 11
train:
  epochs_stage1: 2
  epochs_stage2: 2
  batch_size: 4
  k_folds: 2
  average_last: 2
  seed: 5
"""


def test_cv_rerun_produces_identical_metrics_bytes(tmp_path):
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(_FAST_YAML)
    yaml.safe_load(_FAST_YAML)  # the config itself must be well-formed
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert main(["cv", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert main(["cv", "--config", str(cfg_path), "--out", str(out2)]) == 0
    b1 = (out1 / "metrics_mmg_tcaf.json").read_bytes()
    b2 = (out2 / "metrics_mmg_tcaf.json").read_bytes()
    assert b1 == b2, "identical seed+config produced different metrics bytes"


# sha256 of the `cv --ablation all` tree of _FAST_YAML, cohort included:
# every file's relative path, then its bytes, in sorted walk order.  Bits
# of float arithmetic depend on the NumPy and BLAS build, so the digest is
# keyed to the one it was recorded on.  A change in arithmetic must update
# it on purpose.
_REFERENCE_BUILD = ("2.4.6", "scipy-openblas", "0.3.31.188.0")
_REFERENCE_DIGEST = "19c523219969f3cfbf10ef3cc3bf81d29d7ff6829c56b4208e6514641ad071a3"


def _numpy_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # NumPy without the structured config
        return (np.__version__, None, None)
    return (np.__version__, blas.get("name"), blas.get("version"))


def _dir_digest(path):
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode("utf-8"))
            with open(full, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def test_cv_ablation_grid_matches_the_reference_digest(tmp_path):
    if _numpy_build() != _REFERENCE_BUILD:
        pytest.skip(f"reference digest recorded on NumPy/BLAS {_REFERENCE_BUILD}, "
                    f"this is {_numpy_build()}")
    cfg_path = tmp_path / "run.yaml"
    cfg_path.write_text(_FAST_YAML)
    out = tmp_path / "grid"
    assert main(["cv", "--config", str(cfg_path), "--out", str(out), "--ablation", "all"]) == 0
    assert _dir_digest(out) == _REFERENCE_DIGEST


def test_stage2_training_leaves_generator_checksums_unchanged(small_subjects):
    cfg = fast_train_config()
    model, _ = train_mmg(small_subjects, cfg)
    before = state_checksums(model.state_dict())
    inst = Instrument()
    train_fusion(small_subjects, cfg, model, instrument=inst)
    after = state_checksums(model.state_dict())
    assert after == before, "stage 2 modified generator weights"
    assert inst.events["mmg_checksums_before"] == inst.events["mmg_checksums_after"]


# -- 5: desk-scale learning --------------------------------------------------


@pytest.fixture(scope="module")
def default_cv_report():
    """5-fold CV of the full pipeline at library defaults."""
    t0 = time.perf_counter()
    subjects = _draw_subjects(CohortConfig())
    report = run_cv(subjects, TrainConfig())
    ELAPSED["default_cv"] = time.perf_counter() - t0
    return report


_ABLATION_MODES = (
    ("none", False, False),
    ("tcaf_only", False, True),
    ("mmg_tcaf", True, True),
)


@pytest.fixture(scope="module")
def ablation_study():
    """Half-missing cohorts over 3 seeds: train on 200 subjects, score the
    held-out 400 from the same generator; the generator is trained once per
    seed and shared by the imputing mode."""
    t0 = time.perf_counter()
    aucs = {mode: [] for mode, _, _ in _ABLATION_MODES}
    seed0 = {}
    for seed in (0, 1, 2):
        cohort = CohortConfig(n_subjects=600, seed=seed, missing_pet_rate=0.5)
        subs = _draw_subjects(cohort)
        train, test = subs[:200], subs[200:]
        gen_model, _ = train_mmg(train, TrainConfig(seed=seed),
                                 seed_seq=np.random.SeedSequence((seed, 99)))
        if seed == 0:
            seed0 = {"train": train, "test": test, "generator": gen_model}
        for mode, use_mmg, use_tcaf in _ABLATION_MODES:
            cfg = TrainConfig(seed=seed, use_mmg=use_mmg, use_tcaf=use_tcaf)
            bundle = train_fusion(train, cfg, gen_model if use_mmg else None,
                                  seed_seq=np.random.SeedSequence((seed, 1234)))
            row = evaluate_fusion(bundle, test, gen_model if use_mmg else None)
            aucs[mode].append(row["auc"])
    ELAPSED["ablation"] = time.perf_counter() - t0
    return {"aucs": aucs, **seed0}


@pytest.mark.slow
def test_generator_beats_mean_predictor_on_held_out_pet(ablation_study):
    train = [s for s in ablation_study["train"] if s.has_pet]
    test = [s for s in ablation_study["test"] if s.has_pet]
    model = ablation_study["generator"]
    assert len(test) > 50
    gen = model.generate_pet(np.stack([s.mri for s in test])[:, None])[:, 0]
    truth = np.stack([s.pet for s in test])
    mse_gen = float(((gen - truth) ** 2).mean())
    mean_vol = np.stack([s.pet for s in train]).mean(axis=0)
    mse_mean = float(((mean_vol[None] - truth) ** 2).mean())
    print(f"held-out PET MSE: generated {mse_gen:.4f}, mean-predictor {mse_mean:.4f}")
    assert mse_gen < mse_mean, (
        f"generated-volume MSE {mse_gen:.4f} did not beat the "
        f"mean-predictor baseline {mse_mean:.4f}")


@pytest.mark.slow
def test_default_cohort_cv_clears_auc_and_acc_floors(default_cv_report):
    agg = default_cv_report["aggregate"]
    auc_mean, acc_mean = agg["auc"]["mean"], agg["acc"]["mean"]
    per_fold = [(r["auc"], r["acc"]) for r in default_cv_report["folds"]]
    print(f"default CV: mean AUC {auc_mean:.4f}, mean ACC {acc_mean:.4f}, folds {per_fold}")
    assert auc_mean >= 0.85, f"mean AUC {auc_mean:.4f} < 0.85 (folds: {per_fold})"
    assert acc_mean >= 0.80, f"mean ACC {acc_mean:.4f} < 0.80 (folds: {per_fold})"


@pytest.mark.slow
def test_imputing_mode_tracks_zero_fill_mode_within_margin(ablation_study):
    a = ablation_study["aucs"]
    imputed = float(np.mean(a["mmg_tcaf"]))
    zero_fill = float(np.mean(a["tcaf_only"]))
    print(f"mean AUC: mmg_tcaf {imputed:.4f}, tcaf_only {zero_fill:.4f}")
    assert imputed >= zero_fill - 0.02, (
        f"mmg_tcaf mean AUC {imputed:.4f} fell more than 0.02 below "
        f"tcaf_only {zero_fill:.4f} (per-seed {a['mmg_tcaf']} vs {a['tcaf_only']})")


@pytest.mark.slow
def test_tcaf_only_clears_plain_concat_margin(ablation_study):
    a = ablation_study["aucs"]
    tcaf = float(np.mean(a["tcaf_only"]))
    plain = float(np.mean(a["none"]))
    assert tcaf >= plain + 0.02, (
        f"tcaf_only mean AUC {tcaf:.4f} vs plain-concat {plain:.4f}: margin "
        f"{tcaf - plain:+.4f} < +0.02 -- the attended tokens and the pooled "
        f"concat expose the same single discriminative direction at this "
        f"scale, so the heads tie (per-seed {a['tcaf_only']} vs {a['none']})")


@pytest.mark.slow
def test_mmg_tcaf_clears_plain_concat_margin(ablation_study):
    a = ablation_study["aucs"]
    both = float(np.mean(a["mmg_tcaf"]))
    plain = float(np.mean(a["none"]))
    assert both >= plain + 0.02, (
        f"mmg_tcaf mean AUC {both:.4f} vs plain-concat {plain:.4f}: margin "
        f"{both - plain:+.4f} < +0.02 -- imputation lifts the missing-PET "
        f"half of the cohort but the overall ranking is already carried by "
        f"the clinical channel (per-seed {a['mmg_tcaf']} vs {a['none']})")


@pytest.mark.slow
def test_learning_runs_fit_the_time_budget(default_cv_report, ablation_study):
    total = ELAPSED["default_cv"] + ELAPSED["ablation"]
    print(f"learning runs: CV {ELAPSED['default_cv']:.1f}s + "
          f"ablations {ELAPSED['ablation']:.1f}s = {total:.1f}s")
    assert total < 600.0, f"learning runs took {total:.1f}s (budget 600s)"


# -- 6: format contracts -----------------------------------------------------


def test_volume_roundtrip_is_bitwise(tmp_path, rng):
    vol = rng.standard_normal((5, 6, 7)).astype(np.float32)
    path = tmp_path / "vol.vol"
    write_volume(vol, str(path))
    back = read_volume(str(path))
    assert back.dtype == np.float32
    assert back.tobytes() == vol.tobytes()


def test_checkpoint_roundtrip_is_bitwise(tmp_path, rng):
    tensors = {
        "a.weight": rng.standard_normal((3, 4)).astype(np.float32),
        "b.bias": rng.standard_normal(4).astype(np.float32),
    }
    path = tmp_path / "model.itck"
    save_checkpoint(str(path), tensors, meta={"seed": 0})
    back, meta = load_checkpoint(str(path))
    assert meta == {"seed": 0}
    for name, arr in tensors.items():
        assert back[name].tobytes() == arr.tobytes()


def test_manifest_column_order_is_exact(small_cohort_dir):
    header = (small_cohort_dir / "manifest.csv").read_text().splitlines()[0]
    assert header == ",".join(MANIFEST_COLUMNS)
    assert MANIFEST_COLUMNS[:5] == [
        "subject_id", "label", "has_pet", "mri_path", "pet_path"]

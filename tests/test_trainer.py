"""Training-loop tests: optimizer arithmetic, PET assembly rules, the
frozen-generator contract, fold hygiene, and report structure."""

import dataclasses
import gc
import json
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import trimodal
from trimodal import autograd, trainer
from trimodal.encoders import EncoderConfig
from trimodal.mmg import MmgConfig, MmgModel
from trimodal.losses import LossConfig
from trimodal.nn import Parameter
from trimodal.synthdata import CohortConfig, Standardizer, _draw_subjects, clinical_matrix, split_kfold
from trimodal.trainer import (
    Adam,
    FusionBundle,
    FusionModel,
    MODES,
    OptimizerNaNError,
    TrainConfig,
    _batches,
    _imputation_noise,
    assemble_pet,
    evaluate_fusion,
    load_fusion,
    run_cv,
    run_cv_fold,
    train_fusion,
    train_mmg,
)
from trimodal.checkpoint import state_checksums

from conftest import fast_train_config


# -- optimizer -------------------------------------------------------------


def test_adam_single_step_hand_value():
    p = Parameter(np.array([1.0], dtype=np.float32))
    p.grad = np.array([0.5], dtype=np.float32)
    opt = Adam([("w", p)], lr=0.1)
    opt.step()
    # bias correction makes the first step lr * g / (|g| + eps)
    want = 1.0 - 0.1 * 0.5 / (0.5 + 1e-8)
    assert float(p.data[0]) == pytest.approx(want, abs=1e-7)


def test_adam_skips_missing_gradients():
    p = Parameter(np.array([2.0], dtype=np.float32))
    opt = Adam([("w", p)], lr=0.1)
    p.grad = None
    opt.step()
    assert float(p.data[0]) == 2.0


def _adam_per_parameter(named_params, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The per-parameter Adam loop, as reference for the flat buffers."""
    m = [np.zeros_like(p.data) for _, p in named_params]
    v = [np.zeros_like(p.data) for _, p in named_params]
    for t, step_grads in enumerate(grads, start=1):
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for i, ((_, p), g) in enumerate(zip(named_params, step_grads)):
            if g is None:
                continue
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            p.data -= lr * (m[i] / c1) / (np.sqrt(v[i] / c2) + eps)


def test_flat_adam_matches_per_parameter_loop_bytes(rng):
    shapes = [(3, 4), (5,), (2, 1, 3)]
    init = [rng.standard_normal(s).astype(np.float32) for s in shapes]
    grads = [[rng.standard_normal(s).astype(np.float32) for s in shapes] for _ in range(5)]
    grads[2][1] = None  # a missing gradient keeps its parameter and moments
    flat = [(f"p{i}", Parameter(x.copy())) for i, x in enumerate(init)]
    loop = [(f"p{i}", Parameter(x.copy())) for i, x in enumerate(init)]
    opt = Adam(flat, lr=1e-2)
    for step_grads in grads:
        for (_, p), g in zip(flat, step_grads):
            p.grad = g
        opt.step()
    _adam_per_parameter(loop, grads, lr=1e-2)
    for (_, p), (_, q) in zip(flat, loop):
        assert p.data.tobytes() == q.data.tobytes()


def test_adam_rejects_nan_gradient():
    p = Parameter(np.array([1.0], dtype=np.float32))
    p.grad = np.array([np.nan], dtype=np.float32)
    opt = Adam([("w", p)], lr=0.1)
    with pytest.raises(OptimizerNaNError, match="'w'"):
        opt.step()


def test_adam_nan_error_names_the_parameter_among_several():
    params = [(n, Parameter(np.ones(3, dtype=np.float32))) for n in ("a", "b", "c")]
    for _, p in params:
        p.grad = np.ones(3, dtype=np.float32)
    params[1][1].grad[2] = np.nan
    with pytest.raises(OptimizerNaNError, match="'b'"):
        Adam(params, lr=0.1).step()


def test_adam_rejects_infinite_gradient_and_changes_nothing():
    p = Parameter(np.array([1.0, 2.0], dtype=np.float32))
    opt = Adam([("w", p)], lr=0.1)
    p.grad = np.ones(2, dtype=np.float32)
    opt.step()
    data, m, v = p.data.copy(), opt.m.copy(), opt.v.copy()
    p.grad = np.array([np.inf, 1.0], dtype=np.float32)
    with pytest.raises(OptimizerNaNError, match="'w'"):
        opt.step()
    assert p.data.tobytes() == data.tobytes()
    assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes() and opt.t == 1


def test_adam_rejects_bad_lr():
    with pytest.raises(ValueError):
        Adam([], lr=0.0)


def test_zero_grad_clears_all():
    p = Parameter(np.array([1.0], dtype=np.float32))
    p.grad = np.array([1.0], dtype=np.float32)
    Adam([("w", p)], lr=0.1).zero_grad()
    assert p.grad is None


def test_batches_partition_indices(rng):
    got = _batches(11, 4, rng)
    assert [len(b) for b in got] == [4, 4, 3]
    assert sorted(np.concatenate(got).tolist()) == list(range(11))


# -- config ----------------------------------------------------------------


def test_train_config_mode_mapping():
    assert fast_train_config(use_mmg=False, use_tcaf=False).mode() == "none"
    assert fast_train_config(use_mmg=True, use_tcaf=False).mode() == "mmg_only"
    assert fast_train_config(use_mmg=False, use_tcaf=True).mode() == "tcaf_only"
    assert fast_train_config(use_mmg=True, use_tcaf=True).mode() == "mmg_tcaf"


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(epochs_stage1=0),
        dict(batch_size=0),
        dict(k_folds=1),
        dict(lr=0.0),
        dict(average_last=-1),
        dict(seed=-1),
    ],
)
def test_train_config_validation(kwargs):
    with pytest.raises(ValueError):
        fast_train_config(**kwargs).validate()


# -- PET assembly ----------------------------------------------------------


def _toy_generator(rng, residual_sd=0.0):
    model = MmgModel(rng, MmgConfig(codebook_size=8, d_code=4), volume_shape=(8, 8, 8))
    model.calib.affine.data[2] = residual_sd
    return model


def test_assemble_pet_keeps_acquired_volumes(small_subjects, rng):
    model = _toy_generator(rng)
    out = assemble_pet(small_subjects, model)
    assert out.shape == (len(small_subjects), 1, 8, 8, 8)
    for i, s in enumerate(small_subjects):
        if s.has_pet:
            np.testing.assert_array_equal(out[i, 0], s.pet)


def test_assemble_pet_zero_fills_without_generator(small_subjects):
    out = assemble_pet(small_subjects, None)
    for i, s in enumerate(small_subjects):
        if not s.has_pet:
            assert not out[i].any()


def test_assemble_pet_imputes_only_missing(small_subjects, rng, monkeypatch):
    model = _toy_generator(rng)
    inputs = []
    generate = model.generate_pet
    monkeypatch.setattr(model, "generate_pet", lambda batch: inputs.append(batch) or generate(batch))
    out = assemble_pet(small_subjects, model)
    missing = [s for s in small_subjects if not s.has_pet]
    assert len(missing) > 0
    assert len(inputs) == 1
    np.testing.assert_array_equal(inputs[0], np.stack([s.mri for s in missing])[:, None])
    gen_all = model.generate_pet(
        np.stack([s.mri for s in small_subjects])[:, None])
    for i, s in enumerate(small_subjects):
        if not s.has_pet:
            np.testing.assert_array_equal(out[i], gen_all[i])  # residual_sd 0


def test_assemble_pet_noise_matching_is_deterministic(small_subjects, rng):
    model = _toy_generator(rng, residual_sd=0.4)
    a = assemble_pet(small_subjects, model)
    b = assemble_pet(small_subjects, model)
    assert a.tobytes() == b.tobytes()
    # imputed volume = calibrated mean prediction + residual_sd * keyed noise
    i = next(i for i, s in enumerate(small_subjects) if not s.has_pet)
    gen = model.generate_pet(small_subjects[i].mri[None, None])[0, 0]
    want = gen + 0.4 * _imputation_noise(small_subjects[i].mri, (8, 8, 8))
    np.testing.assert_allclose(a[i, 0], want, atol=1e-6)


def test_imputation_noise_keyed_to_volume_bytes(rng):
    mri = rng.standard_normal((8, 8, 8)).astype(np.float32)
    n1 = _imputation_noise(mri, mri.shape)
    n2 = _imputation_noise(mri.copy(), mri.shape)
    assert n1.tobytes() == n2.tobytes()
    other = _imputation_noise(mri + 1e-3, mri.shape)
    assert n1.tobytes() != other.tobytes()
    assert abs(float(n1.mean())) < 0.1 and abs(float(n1.std()) - 1.0) < 0.1


# -- stage 1 ---------------------------------------------------------------


def test_train_mmg_needs_two_complete_subjects(small_subjects):
    starved = [dataclasses.replace(s, has_pet=False, pet=None) for s in small_subjects]
    with pytest.raises(ValueError, match="stage 1"):
        train_mmg(starved, fast_train_config())


def test_train_mmg_reconstruction_improves(small_subjects):
    cfg = fast_train_config(epochs_stage1=8)
    model, history = train_mmg(small_subjects, cfg)
    l1 = [row[1] for row in history]
    assert len(history) == 8
    assert l1[-1] < l1[0]
    # calibration was fitted after training
    assert float(model.calib.affine.data[1]) != 1.0 or float(model.calib.affine.data[0]) != 0.0


def test_train_mmg_is_deterministic(small_subjects):
    cfg = fast_train_config()
    m1, h1 = train_mmg(small_subjects, cfg)
    m2, h2 = train_mmg(small_subjects, cfg)
    assert h1 == h2
    for k, v in m1.state_dict().items():
        np.testing.assert_array_equal(v, m2.state_dict()[k])


# -- stage 2 ---------------------------------------------------------------


def test_train_fusion_never_touches_generator(small_subjects, rng):
    model = _toy_generator(rng)
    before = state_checksums(model.state_dict())
    train_fusion(small_subjects, fast_train_config(), model)
    assert state_checksums(model.state_dict()) == before


def test_train_fusion_refuses_a_modified_generator(small_subjects, rng, monkeypatch):
    model = _toy_generator(rng)
    real_assemble = assemble_pet

    def tampering_assemble(subjects, mmg_model=None):
        mmg_model.codebook.codes.data[0, 0] += 1.0
        return real_assemble(subjects, mmg_model)

    monkeypatch.setattr("trimodal.trainer.assemble_pet", tampering_assemble)
    with pytest.raises(RuntimeError, match="frozen generator"):
        train_fusion(small_subjects, fast_train_config(), model)


def test_train_fusion_sdm_off_leaves_trajectory_unchanged(
        small_subjects, monkeypatch):
    # with the triple term weighted zero the SDM values are reported but
    # must not influence training: replacing them with constants yields a
    # bitwise-identical parameter trajectory
    cfg = fast_train_config(loss=LossConfig(alpha_total=0.0))
    real = train_fusion(small_subjects, cfg, None)

    from trimodal.autograd import Tensor

    def fake_terms(feats, y, loss_cfg):
        z = Tensor(np.zeros((), dtype=np.float32))
        return z, z, z

    monkeypatch.setattr("trimodal.trainer._sdm_terms", fake_terms)
    stubbed = train_fusion(small_subjects, cfg, None)
    for k, v in real.model.state_dict().items():
        np.testing.assert_array_equal(v, stubbed.model.state_dict()[k])
    # focal column identical, sdm columns differ (reporting only)
    assert [r[2] for r in real.history] == [r[2] for r in stubbed.history]
    assert any(r[3] != 0.0 for r in real.history)


def test_tail_average_is_the_mean_of_the_last_epochs_weights(small_subjects):
    """average_last=2 over 3 epochs averages the weights after epochs 2
    and 3, which the same seeds reach with averaging off."""
    def weights(epochs, average_last):
        cfg = fast_train_config(use_mmg=False, epochs_stage2=epochs, average_last=average_last)
        return train_fusion(small_subjects, cfg, None).model.state_dict()

    w2, w3, averaged = weights(2, 0), weights(3, 0), weights(3, 2)
    assert averaged.keys() == w3.keys()
    for k, v in averaged.items():
        want = ((w2[k].astype(np.float64) + w3[k]) / 2).astype(np.float32)
        assert v.tobytes() == want.tobytes(), k


# Scores 2*INFERENCE_CHUNK+3 subjects through the chunked generate_pet and
# evaluate_fusion and through one-batch forwards kept here, in both heads;
# prints the sha256 of each array as one JSON object.
_CHUNKED_VS_ONE_BATCH = """
import hashlib, json
import numpy as np
from trimodal import trainer
from trimodal.autograd import INFERENCE_CHUNK, Tensor, no_grad
from trimodal.encoders import EncoderConfig
from trimodal.losses import LossConfig
from trimodal.mmg import MmgConfig, MmgModel, quantize
from trimodal.synthdata import CohortConfig, Standardizer, _draw_subjects, clinical_matrix

subjects = _draw_subjects(CohortConfig(n_subjects=2 * INFERENCE_CHUNK + 3, missing_pet_rate=0.5, seed=7))
rng = np.random.default_rng(0)
mmg = MmgModel(rng, MmgConfig())
mmg.calib.affine.data[:] = (0.1, 1.3, 0.2)
mri = np.stack([s.mri for s in subjects])[:, None]
clin = clinical_matrix(subjects)
labels = np.array([s.label for s in subjects])
with no_grad():
    z_q, _ = quantize(mmg.encode(Tensor(mri)), mmg.codebook)
    gen = mmg.calib.apply(mmg.decode(z_q).data)
pet = np.stack([s.pet if s.has_pet else
                gen[i, 0] + 0.2 * trainer._imputation_noise(s.mri, s.mri.shape)
                for i, s in enumerate(subjects)])[:, None]
digest = lambda a: hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
out = {"generate_pet/chunked": digest(mmg.generate_pet(mri)), "generate_pet/one_batch": digest(gen)}
scored = []
trainer.threshold_metrics = lambda p, y: scored.append(p.copy()) or {}
for use_tcaf in (False, True):
    bundle = trainer.FusionBundle(trainer.FusionModel(rng, EncoderConfig(), use_tcaf=use_tcaf),
                                  Standardizer().fit(clin), LossConfig(), [])
    trainer.evaluate_fusion(bundle, subjects, mmg)
    with no_grad():
        _, probs, _ = bundle.model(mri, pet, bundle.standardizer.transform(clin))
    out[f"tcaf={use_tcaf}/chunked"] = digest(scored.pop())
    out[f"tcaf={use_tcaf}/one_batch"] = digest(probs.data[:, 1])
print(json.dumps(out))
"""


def test_chunked_scoring_matches_one_batch_bytes_at_one_and_two_blas_threads():
    """Imputation and scoring in chunks give the bytes of one batch over
    the whole cohort, short last chunk included, at either thread count."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(trimodal.__file__)))
    digests = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _CHUNKED_VS_ONE_BATCH], env=env,
                              capture_output=True, text=True, timeout=300, check=True)
        digests[threads] = d = json.loads(proc.stdout)
        for what in ("generate_pet", "tcaf=False", "tcaf=True"):
            assert d[f"{what}/chunked"] == d[f"{what}/one_batch"], (threads, what)
    assert digests["1"] == digests["2"]


def test_evaluate_fusion_peak_memory_does_not_grow_with_the_cohort():
    subjects = _draw_subjects(CohortConfig(n_subjects=256, volume_shape=(8, 8, 8),
                                           missing_pet_rate=0.5, seed=3))
    rng = np.random.default_rng(0)
    generator = _toy_generator(rng, residual_sd=0.3)
    bundle = FusionBundle(FusionModel(rng, EncoderConfig()),
                          Standardizer().fit(clinical_matrix(subjects)), LossConfig(), [])
    evaluate_fusion(bundle, subjects[:8], generator)  # fill the conv geometry caches

    def peak(cohort):
        tracemalloc.start()
        try:
            evaluate_fusion(bundle, cohort, generator)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, large = peak(subjects[:64]), peak(subjects)
    assert large < 1.5 * small, f"peak {large} B on 256 subjects vs {small} B on 64"


def test_evaluate_fusion_scores_in_two_lanes_and_one_chunk_inline(monkeypatch):
    """At least two chunks: two distinct threads score.  One chunk: only
    the caller's thread scores and no thread is started."""
    subjects = _draw_subjects(CohortConfig(n_subjects=2 * autograd.INFERENCE_CHUNK + 1, volume_shape=(8, 8, 8),
                                           missing_pet_rate=0.5, seed=3))
    rng = np.random.default_rng(0)
    bundle = FusionBundle(FusionModel(rng, EncoderConfig()),
                          Standardizer().fit(clinical_matrix(subjects)), LossConfig(), [])
    scorers = []
    fusion_inputs = trainer._fusion_inputs
    monkeypatch.setattr(trainer, "_fusion_inputs", lambda chunk, *a: scorers.append(
        (threading.get_ident(), threading.active_count())) or fusion_inputs(chunk, *a))
    threads = threading.active_count()

    evaluate_fusion(bundle, subjects, _toy_generator(rng))
    assert len(scorers) == 3
    assert len({ident for ident, _ in scorers}) == 2
    assert threading.get_ident() in {ident for ident, _ in scorers}

    scorers.clear()
    evaluate_fusion(bundle, subjects[:autograd.INFERENCE_CHUNK], _toy_generator(rng))
    assert scorers == [(threading.get_ident(), threads)]


def test_evaluate_fusion_rejects_an_empty_cohort():
    bundle = FusionBundle(FusionModel(np.random.default_rng(0), EncoderConfig()),
                          Standardizer(), LossConfig(), [])
    with pytest.raises(ValueError, match="no subjects to score"):
        evaluate_fusion(bundle, [])


def test_evaluate_fusion_metric_row(small_subjects):
    cfg = fast_train_config(use_mmg=False)
    bundle = train_fusion(small_subjects, cfg, None)
    row = evaluate_fusion(bundle, small_subjects, None)
    for key in ("acc", "sen", "spe", "auc", "f1", "tp", "tn", "fp", "fn"):
        assert key in row
    assert 0.0 <= row["auc"] <= 1.0
    assert row["tp"] + row["tn"] + row["fp"] + row["fn"] == len(small_subjects)


def test_load_fusion_scores_held_out_subjects_like_the_trained_bundle(small_subjects, tmp_path):
    ids = [s.subject_id for s in small_subjects]
    labels = [s.label for s in small_subjects]
    test_ids = set(split_kfold(ids, 2, 0, labels=labels)[0])
    train = [s for s in small_subjects if s.subject_id not in test_ids]
    held_out = [s for s in small_subjects if s.subject_id in test_ids]
    bundle = train_fusion(train, fast_train_config(use_mmg=False), None, out_dir=str(tmp_path))
    loaded = load_fusion(str(tmp_path / "fusion.itck"))
    clin = clinical_matrix(held_out)
    assert np.array_equal(loaded.standardizer.transform(clin), bundle.standardizer.transform(clin))
    assert loaded.loss_cfg == bundle.loss_cfg
    assert evaluate_fusion(loaded, held_out, None) == evaluate_fusion(bundle, held_out, None)


def test_loaders_refuse_the_other_stage_and_a_meta_less_checkpoint(small_subjects, tmp_path):
    from trimodal.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
    from trimodal.trainer import load_mmg

    cfg = fast_train_config(epochs_stage1=1, epochs_stage2=1)
    model, _ = train_mmg(small_subjects, cfg, out_dir=str(tmp_path))
    train_fusion(small_subjects, cfg, model, out_dir=str(tmp_path))
    mmg_ckpt, fusion_ckpt, bare = (str(tmp_path / n) for n in ("mmg.itck", "fusion.itck", "bare.itck"))
    save_checkpoint(bare, load_checkpoint(mmg_ckpt)[0])  # the generator's tensors, no meta
    with pytest.raises(CheckpointError, match="fusion.itck is a stage-2 checkpoint; expected a stage-1"):
        load_mmg(fusion_ckpt)
    with pytest.raises(CheckpointError, match="mmg.itck is a stage-1 checkpoint; expected a stage-2"):
        load_fusion(mmg_ckpt)
    for loader, stage in ((load_mmg, 1), (load_fusion, 2)):
        with pytest.raises(CheckpointError, match=f"bare.itck has no stage.*expected a stage-{stage}"):
            loader(bare)


# -- cross-validation ------------------------------------------------------


def test_single_fold_train_events_exclude_test_ids(small_subjects, monkeypatch):
    """Both stages receive exactly the fold's train split.  Every batch,
    the standardizer fit and the imputation draw only on that argument,
    so recording it audits everything training saw."""
    received = {}

    def recording(stage, fit):
        def wrapper(subjects, *args, **kwargs):
            received.setdefault(stage, []).append([s.subject_id for s in subjects])
            return fit(subjects, *args, **kwargs)
        return wrapper

    monkeypatch.setattr("trimodal.trainer.train_mmg", recording("mmg", train_mmg))
    monkeypatch.setattr("trimodal.trainer.train_fusion", recording("fusion", train_fusion))
    cfg = fast_train_config()
    rows = run_cv_fold(small_subjects, cfg, {m: "" for m in MODES}, 0)
    ids = [s.subject_id for s in small_subjects]
    labels = [s.label for s in small_subjects]
    test_ids = set(split_kfold(ids, cfg.k_folds, cfg.seed, labels=labels)[0])
    train_ids = [i for i in ids if i not in test_ids]
    assert list(rows) == list(MODES)
    assert all(row["test_size"] == len(test_ids) for row in rows.values())
    assert received == {"mmg": [train_ids], "fusion": [train_ids] * len(MODES)}


def test_run_cv_report_structure_and_artifacts(small_subjects, tmp_path):
    cfg = fast_train_config()
    report = run_cv(small_subjects, cfg, out_dir=str(tmp_path))
    assert report["mode"] == "mmg_tcaf"
    assert report["k_folds"] == 2
    assert len(report["folds"]) == 2
    assert sum(r["test_size"] for r in report["folds"]) == len(small_subjects)
    for key in ("acc", "sen", "spe", "auc", "f1"):
        agg = report["aggregate"][key]
        assert 0.0 <= agg["mean"] <= 1.0 and agg["std"] >= 0.0

    on_disk = json.loads((tmp_path / "metrics_mmg_tcaf.json").read_text())
    assert on_disk == json.loads(json.dumps(report))  # same after round-trip
    for fold in (0, 1):
        d = tmp_path / f"fold_{fold}"
        for name in ("stage1_loss.csv", "mmg.itck",
                     "mmg_tcaf/stage2_loss.csv", "mmg_tcaf/fusion.itck"):
            assert (d / name).exists(), f"missing {name} in fold_{fold}"


def test_run_cv_is_reproducible(small_subjects):
    cfg = fast_train_config(use_mmg=False, use_tcaf=False)  # cheapest mode
    r1 = run_cv(small_subjects, cfg)
    r2 = run_cv(small_subjects, cfg)
    assert r1 == r2


def test_fold_pool_workers_use_one_blas_thread(monkeypatch):
    """Workers read 1 for each BLAS thread variable, whether the caller
    left it unset or set it; the caller's environment is restored."""
    blas = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
    monkeypatch.delenv(blas[0], raising=False)
    monkeypatch.setenv(blas[1], "2")
    monkeypatch.delenv(blas[2], raising=False)
    with trainer._fold_pool(1) as pool:
        assert pool.map(os.getenv, blas) == ["1", "1", "1"]
    assert [os.getenv(name) for name in blas] == [None, "2", None]


def test_training_leaves_no_cyclic_garbage(small_subjects):
    """Each step's graph is released by reference counting alone."""
    cfg = fast_train_config(epochs_stage1=1, epochs_stage2=1)
    # warm-up: the first call imports modules whose set-up leaves cyclic garbage
    train_fusion(small_subjects, cfg, train_mmg(small_subjects, cfg)[0])
    gc.collect()
    gc.disable()
    try:
        model, _ = train_mmg(small_subjects, cfg)
        train_fusion(small_subjects, cfg, model)
        del model
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_tape_values_and_gradients_are_float32(small_subjects, monkeypatch):
    """Both stages compute in float32: every value an op puts on the tape
    and every gradient backward accumulates, in one epoch of stage 1 and
    of stage 2 in three modes."""
    found = set()
    make, accum = autograd._make, autograd._accum

    def checked_make(data, parents):
        if data.dtype != np.float32:
            found.add(("value", str(data.dtype), sys._getframe(1).f_code.co_name))
        return make(data, parents)

    def checked_accum(t, g, fresh=False):
        if g.dtype != np.float32:
            found.add(("gradient", str(g.dtype), sys._getframe(1).f_code.co_name))
        return accum(t, g, fresh)

    for name, module in list(sys.modules.items()):
        if name == "trimodal" or name.startswith("trimodal."):
            if getattr(module, "_make", None) is make:
                monkeypatch.setattr(module, "_make", checked_make)
            if getattr(module, "_accum", None) is accum:
                monkeypatch.setattr(module, "_accum", checked_accum)

    cfg = fast_train_config(epochs_stage1=1, epochs_stage2=1)
    model, _ = train_mmg(small_subjects, cfg)
    for mode in ("none", "tcaf_only", "mmg_tcaf"):
        mode_cfg = cfg.with_mode(mode)
        train_fusion(small_subjects, mode_cfg, model if mode_cfg.use_mmg else None)
    assert not found, f"non-float32 tape entries (kind, dtype, op): {sorted(found)}"

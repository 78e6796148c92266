"""Two-stage optimization and the cross-validation driver.

Stage 1 fits the PET generator on PET-complete training subjects,
alternating generator and discriminator steps.  Stage 2 freezes it,
fills in missing PET volumes (generated, or zero-filled in ablation
modes), and trains the modality encoders, fusion head, and classifier
on the focal + alignment objective.  ``run_cv_modes`` wraps both stages
in a stratified k-fold loop with train-split-only standardization,
running every requested ablation mode on each fold's one generator.

Everything is seeded through ``numpy.random.SeedSequence`` spawns, so a
(config, seed) pair fully determines every artifact byte.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .autograd import Tensor, map_chunks, no_grad
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint, state_checksums
from .encoders import EncoderConfig, ModalityEncoders, pool_tokens
from .fusion import ConcatHead, TcafHead
from .losses import (LossConfig, focal_loss, inverse_class_weights, sdm_loss,
                     total_loss, triple_loss)
from .metrics import threshold_metrics
from .mmg import MmgConfig, MmgModel, hybrid_loss, quantize, discriminator_loss
from .nn import Module
from .synthdata import Standardizer, clinical_matrix, split_kfold


class OptimizerNaNError(RuntimeError):
    """A gradient is NaN or infinite; the step changed no parameter, moment or count."""


class Adam:
    """Bias-corrected Adam over a list of (name, Parameter) pairs.

    The moments of all parameters live in one flat buffer each, so a step
    is a handful of in-place whole-buffer operations instead of a loop of
    them; the per-element arithmetic is the per-parameter update's, bit
    for bit.  A parameter whose ``grad`` is None keeps its data and its
    moments.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, named_params, lr):
        if lr <= 0:
            raise ValueError(f"lr must be > 0, got {lr}")
        self.named_params = list(named_params)
        self.lr = lr
        self.t = 0
        # (name, parameter, lo, hi): each parameter's slice of the flat buffers
        self.spans, lo = [], 0
        for name, p in self.named_params:
            self.spans.append((name, p, lo, lo + p.data.size))
            lo += p.data.size
        dtype = self.named_params[0][1].data.dtype if self.named_params else np.float32
        self.m = np.zeros(lo, dtype)
        self.v = np.zeros(lo, dtype)
        # the gathered gradient (reused for the update) and one scratch buffer
        self._g = np.empty(lo, dtype)
        self._tmp = np.empty(lo, dtype)

    def zero_grad(self):
        for _, p in self.named_params:
            p.grad = None

    def step(self):
        g, tmp, m, v = self._g, self._tmp, self.m, self.v
        kept = []
        for _, p, lo, hi in self.spans:
            if p.grad is None:
                g[lo:hi] = 0
                kept.append((lo, hi))
            else:
                g[lo:hi] = p.grad.reshape(-1)
        if not np.isfinite(g).all():
            name = next(name for name, _, lo, hi in self.spans if not np.isfinite(g[lo:hi]).all())
            raise OptimizerNaNError(f"non-finite gradient in parameter {name!r} at step {self.t + 1}")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        kept = [(lo, hi, m[lo:hi].copy(), v[lo:hi].copy()) for lo, hi in kept]
        # m = b1 * m + (1 - b1) * g;  v = b2 * v + (1 - b2) * (g * g)
        np.multiply(g, 1.0 - b1, out=tmp)
        np.multiply(m, b1, out=m)
        np.add(m, tmp, out=m)
        np.multiply(g, g, out=tmp)
        np.multiply(tmp, 1.0 - b2, out=tmp)
        np.multiply(v, b2, out=v)
        np.add(v, tmp, out=v)
        # update = lr * (m / c1) / (sqrt(v / c2) + eps), formed in g
        np.divide(v, c2, out=tmp)
        np.sqrt(tmp, out=tmp)
        np.add(tmp, self.eps, out=tmp)
        np.divide(m, c1, out=g)
        np.multiply(g, self.lr, out=g)
        np.divide(g, tmp, out=g)
        for lo, hi, m_old, v_old in kept:
            m[lo:hi] = m_old
            v[lo:hi] = v_old
        for _, p, lo, hi in self.spans:
            if p.grad is not None:
                p.data -= g[lo:hi].reshape(p.data.shape)


# Ablation modes of the paper's grid -> (use_mmg, use_tcaf).
MODES = {
    "none": (False, False),
    "mmg_only": (True, False),
    "tcaf_only": (False, True),
    "mmg_tcaf": (True, True),
}


@dataclass
class TrainConfig:
    epochs_stage1: int = 30
    epochs_stage2: int = 30
    batch_size: int = 8
    lr: float = 1e-3
    average_last: int = 10       # stage-2 tail weight averaging window (0 = off)
    seed: int = 0
    k_folds: int = 5
    use_mmg: bool = True
    use_tcaf: bool = True
    loss: LossConfig = field(default_factory=LossConfig)
    mmg: MmgConfig = field(default_factory=MmgConfig)
    enc: EncoderConfig = field(default_factory=EncoderConfig)

    def validate(self):
        for name in ("epochs_stage1", "epochs_stage2", "batch_size", "k_folds"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if self.k_folds < 2:
            raise ValueError(f"k_folds must be >= 2, got {self.k_folds}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if int(self.average_last) < 0:
            raise ValueError(f"average_last must be >= 0, got {self.average_last}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError(f"seed must be u64, got {self.seed}")
        self.loss.validate()
        self.mmg.validate()
        self.enc.validate()
        return self

    def mode(self):
        switches = (bool(self.use_mmg), bool(self.use_tcaf))
        return next(m for m, sw in MODES.items() if sw == switches)

    def with_mode(self, mode):
        """This config with the named ablation mode's switches applied."""
        use_mmg, use_tcaf = MODES[mode]
        return replace(self, use_mmg=use_mmg, use_tcaf=use_tcaf)


def _rng(seed_seq):
    return np.random.Generator(np.random.PCG64(seed_seq))


def _batches(n, batch_size, rng):
    order = rng.permutation(n)
    return [order[i:i + batch_size] for i in range(0, n, batch_size)]


def _write_csv(path, header, rows):
    with open(path, "w", newline="\n", encoding="utf-8") as f:
        wr = csv.writer(f, lineterminator="\n")
        wr.writerow(header)
        wr.writerows(rows)


def _fmt_row(values):
    return [values[0]] + [f"{v:.6f}" for v in values[1:]]


# -- stage 1 -------------------------------------------------------------------


def train_mmg(subjects, cfg: TrainConfig, *, seed_seq=None, out_dir=None, config_hash=""):
    """Fit the PET generator on PET-complete subjects; returns (model, history).

    History rows are per-epoch means: (epoch, l1, qua, per, adv, total).
    """
    cfg.validate()
    complete = [s for s in subjects if s.has_pet]
    if len(complete) < 2:
        raise ValueError(f"stage 1 needs >= 2 PET-complete subjects, got {len(complete)}")
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(cfg.seed)
    ss_init, ss_shuffle, ss_reseed = seed_seq.spawn(3)

    shape = complete[0].mri.shape
    model = MmgModel(_rng(ss_init), cfg.mmg, volume_shape=shape)
    x_all = np.stack([s.mri for s in complete])[:, None]
    y_all = np.stack([s.pet for s in complete])[:, None]

    opt_gen = Adam(model.generator_parameters(), cfg.lr)
    opt_disc = Adam(model.disc.named_parameters(prefix="disc."), cfg.lr)
    shuffle_rng = _rng(ss_shuffle)
    reseed_rng = _rng(ss_reseed)

    history = []
    for epoch in range(cfg.epochs_stage1):
        model.codebook.reset_usage()
        sums = np.zeros(5)
        n_batches = 0
        pool = None
        for idx in _batches(len(complete), cfg.batch_size, shuffle_rng):
            x = Tensor(x_all[idx])
            y_true = Tensor(y_all[idx])

            z_hat = model.encode(x)
            z_q, code_idx = quantize(z_hat, model.codebook)
            model.codebook.record_usage(code_idx)
            y_gen = model.decode(z_q)

            model.disc.set_trainable(False)
            scores_fake = model.disc(y_gen)
            total, comps = hybrid_loss(
                y_true, y_gen, z_hat, scores_fake, cfg.mmg.weights(),
                codebook=model.codebook, indices=code_idx,
                beta=cfg.mmg.beta, perceptual_net=model.perceptual)
            opt_gen.zero_grad()
            total.backward()
            opt_gen.step()

            model.disc.set_trainable(True)
            s_real = model.disc(y_true)
            s_fake = model.disc(Tensor(y_gen.data))
            d_loss = discriminator_loss(s_real, s_fake)
            opt_disc.zero_grad()
            d_loss.backward()
            opt_disc.step()

            sums += (comps["l1"], comps["qua"], comps["per"], comps["adv"], float(total.data))
            n_batches += 1
            pool = np.moveaxis(z_hat.data, 1, -1).reshape(-1, z_hat.data.shape[1])
        model.codebook.reseed_dead(pool, reseed_rng)
        means = sums / n_batches
        history.append((epoch, *[float(v) for v in means]))

    # Align generated-volume scale with acquired ones on the training set;
    # the affine must be identity while the raw pairs are measured.
    model.calib.affine.data[:] = (0.0, 1.0, 0.0)
    model.calib.fit(y_all, model.generate_pet(x_all))

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "stage1_loss.csv"),
                   ["epoch", "l1", "qua", "per", "adv", "total"],
                   [_fmt_row(r) for r in history])
        meta = {
            "stage": 1, "seed": int(cfg.seed), "config_hash": config_hash,
            "codebook_size": cfg.mmg.codebook_size, "d_code": cfg.mmg.d_code,
            "volume_shape": list(shape), "beta": cfg.mmg.beta,
            "loss_weights": {"l1": cfg.mmg.lambda_l1, "qua": cfg.mmg.lambda_qua,
                             "per": cfg.mmg.lambda_per, "adv": cfg.mmg.lambda_adv},
        }
        save_checkpoint(os.path.join(out_dir, "mmg.itck"), model.state_dict(), meta)
    return model, history


def _load_stage(path, stage):
    """Tensors and meta of the checkpoint at ``path``, which training stage
    ``stage`` must have written (stage 1 the generator, stage 2 the fusion
    model)."""
    tensors, meta = load_checkpoint(path)
    found = meta.get("stage") if isinstance(meta, dict) else None
    if found != stage:
        what = "has no stage in its meta" if found is None else f"is a stage-{found} checkpoint"
        raise CheckpointError(f"{path} {what}; expected a stage-{stage} checkpoint")
    return tensors, meta


def load_mmg(path):
    """Rebuild a stage-1 generator from its checkpoint.  The architecture
    comes from the checkpoint's meta, not from the caller's config."""
    tensors, meta = _load_stage(path, 1)
    weights = meta["loss_weights"]
    mmg_cfg = MmgConfig(
        codebook_size=meta["codebook_size"], d_code=meta["d_code"], beta=meta["beta"],
        lambda_l1=weights["l1"], lambda_qua=weights["qua"],
        lambda_per=weights["per"], lambda_adv=weights["adv"])
    model = MmgModel(np.random.default_rng(0), mmg_cfg, volume_shape=tuple(meta["volume_shape"]))
    model.load_state_dict(tensors)
    return model


# -- stage 2 -------------------------------------------------------------------


class FusionModel(Module):
    """Modality encoders plus either the co-attention head or the
    plain-concat baseline head."""

    def __init__(self, rng, enc_cfg: EncoderConfig, use_tcaf=True):
        self.encoders = ModalityEncoders(rng, enc_cfg)
        self.head = TcafHead(rng, enc_cfg) if use_tcaf else ConcatHead(rng, enc_cfg)

    def forward(self, mri, pet, clin):
        f_m, f_p, f_c = self.encoders(mri, pet, clin)
        logits, probs = self.head(f_m, f_p, f_c)
        return logits, probs, (f_m, f_p, f_c)


@dataclass
class FusionBundle:
    """Everything needed to evaluate a trained stage-2 model."""
    model: FusionModel
    standardizer: Standardizer
    loss_cfg: LossConfig
    history: list


def _imputation_noise(mri, shape):
    """Deterministic unit-normal field keyed to the source MRI bytes.

    The same subject always receives the same imputed volume, across runs,
    process layouts, and train/eval assembly."""
    digest = hashlib.sha256(np.ascontiguousarray(mri, dtype=np.float32).tobytes()).digest()
    seed = np.frombuffer(digest[:16], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed.tolist())))
    return rng.standard_normal(shape, dtype=np.float32)


def assemble_pet(subjects, mmg_model=None):
    """[n,1,D,H,W] PET batch: real volumes where present, otherwise
    generated from MRI (or zero-filled when no generator is given).

    Generated volumes are mean predictions and carry less spread than
    acquired ones, so they are noise-matched with the generator's fitted
    residual sd: the fusion encoders then see a single input distribution
    instead of two separable ones."""
    shape = subjects[0].mri.shape
    out = np.zeros((len(subjects), 1) + shape, dtype=np.float32)
    missing_idx = [i for i, s in enumerate(subjects) if not s.has_pet]
    for i, s in enumerate(subjects):
        if s.has_pet:
            out[i, 0] = s.pet
    if missing_idx and mmg_model is not None:
        mri_missing = np.stack([subjects[i].mri for i in missing_idx])[:, None]
        gen = mmg_model.generate_pet(mri_missing)
        resid = mmg_model.calib.residual_sd
        for j, i in enumerate(missing_idx):
            out[i] = gen[j]
            if resid > 0.0:
                out[i, 0] += resid * _imputation_noise(subjects[i].mri, shape)
    return out


def _fusion_inputs(subjects, mmg_model, standardizer):
    """The (MRI, PET, clinical) arrays stage 2 feeds its model."""
    x_mri = np.stack([s.mri for s in subjects])[:, None]
    x_pet = assemble_pet(subjects, mmg_model)
    return x_mri, x_pet, standardizer.transform(clinical_matrix(subjects))


def train_fusion(subjects, cfg: TrainConfig, mmg_model=None, *, seed_seq=None,
                 out_dir=None, config_hash=""):
    """Train encoders + fusion + classifier; returns a FusionBundle.

    ``mmg_model`` (frozen) fills missing PET volumes; without it they are
    zero-filled.  Its weight checksums are taken before and after training,
    and a mismatch raises ``RuntimeError``.  History rows: (epoch, total,
    focal, sdm_mt, sdm_pt, sdm_mp).
    """
    cfg.validate()
    if seed_seq is None:
        seed_seq = np.random.SeedSequence(cfg.seed)
    ss_init, ss_shuffle = seed_seq.spawn(2)

    labels = np.array([s.label for s in subjects], dtype=np.int64)
    standardizer = Standardizer().fit(clinical_matrix(subjects))
    frozen = None if mmg_model is None else state_checksums(mmg_model.state_dict())
    x_mri, x_pet, x_clin = _fusion_inputs(subjects, mmg_model, standardizer)

    model = FusionModel(_rng(ss_init), cfg.enc, use_tcaf=cfg.use_tcaf)
    loss_cfg = cfg.loss
    if loss_cfg.alpha_focal is None:
        loss_cfg = replace(loss_cfg, alpha_focal=inverse_class_weights(labels))
    opt = Adam(model.named_parameters(), cfg.lr)
    shuffle_rng = _rng(ss_shuffle)
    sdm_in_graph = loss_cfg.alpha_total > 0

    history = []
    tail_sums = None
    tail_count = 0
    tail_start = max(cfg.epochs_stage2 - cfg.average_last, 1)
    for epoch in range(cfg.epochs_stage2):
        sums = np.zeros(5)
        n_batches = 0
        for idx in _batches(len(subjects), cfg.batch_size, shuffle_rng):
            y = labels[idx]
            logits, probs, feats = model(x_mri[idx], x_pet[idx], x_clin[idx])
            l_focal = focal_loss(probs, y, loss_cfg)

            sdm_vals = (0.0, 0.0, 0.0)
            l_total = l_focal
            if len(idx) >= 2:
                # with alpha_total == 0 they are reported but kept out of the
                # graph, so the trajectory matches a run that skips them
                with contextlib.nullcontext() if sdm_in_graph else no_grad():
                    l_mt, l_pt, l_mp = _sdm_terms(feats, y, loss_cfg)
                if sdm_in_graph:
                    l_triple = triple_loss(l_mt, l_pt, l_mp, loss_cfg.lam)
                    l_total = total_loss(l_focal, l_triple, loss_cfg.alpha_total)
                sdm_vals = (float(l_mt.data), float(l_pt.data), float(l_mp.data))

            opt.zero_grad()
            l_total.backward()
            opt.step()
            sums += (float(l_total.data), float(l_focal.data), *sdm_vals)
            n_batches += 1
        means = sums / n_batches
        history.append((epoch, *[float(v) for v in means]))
        # Small-batch training keeps bouncing around the basin it found;
        # the average of the last few epochs' weights sits nearer its
        # center than any single endpoint does.
        if cfg.average_last > 0 and epoch >= tail_start:
            state = model.state_dict()
            if tail_sums is None:
                tail_sums = {k: v.astype(np.float64) for k, v in state.items()}
            else:
                for k, v in state.items():
                    tail_sums[k] += v
            tail_count += 1
    if tail_sums is not None and tail_count > 0:
        model.load_state_dict(
            {k: (v / tail_count).astype(np.float32) for k, v in tail_sums.items()})

    if mmg_model is not None and state_checksums(mmg_model.state_dict()) != frozen:
        raise RuntimeError("stage 2 modified the frozen generator's weights")

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        _write_csv(os.path.join(out_dir, "stage2_loss.csv"),
                   ["epoch", "total", "focal", "sdm_mt", "sdm_pt", "sdm_mp"],
                   [_fmt_row(r) for r in history])
        tensors = model.state_dict()
        tensors["standardizer.mean"] = standardizer.mean.astype(np.float32)
        tensors["standardizer.std"] = standardizer.std.astype(np.float32)
        # The float32 standardizer tensors stay for readers of the tensor
        # entries, but they are rounded; load_fusion uses the meta's
        # float64 lists, which JSON round-trips exactly.
        meta = {
            "stage": 2, "seed": int(cfg.seed), "config_hash": config_hash,
            "use_mmg": bool(cfg.use_mmg), "use_tcaf": bool(cfg.use_tcaf),
            "encoder": asdict(cfg.enc),
            "loss": dict(asdict(loss_cfg), alpha_focal=[float(a) for a in loss_cfg.alpha_focal]),
            "standardizer": {"mean": standardizer.mean.tolist(), "std": standardizer.std.tolist()},
        }
        save_checkpoint(os.path.join(out_dir, "fusion.itck"), tensors, meta)
    return FusionBundle(model, standardizer, loss_cfg, history)


def load_fusion(path):
    """Rebuild a stage-2 bundle from its checkpoint alone: encoder widths,
    head, loss config and the standardizer's exact statistics come from
    the checkpoint's meta, so the bundle scores as the trained one did."""
    tensors, meta = _load_stage(path, 2)
    del tensors["standardizer.mean"], tensors["standardizer.std"]
    standardizer = Standardizer()
    standardizer.mean = np.array(meta["standardizer"]["mean"], dtype=np.float64)
    standardizer.std = np.array(meta["standardizer"]["std"], dtype=np.float64)
    model = FusionModel(np.random.default_rng(0), EncoderConfig(**meta["encoder"]),
                        use_tcaf=meta["use_tcaf"])
    model.load_state_dict(tensors)
    loss_cfg = LossConfig(**dict(meta["loss"], alpha_focal=tuple(meta["loss"]["alpha_focal"])))
    return FusionBundle(model, standardizer, loss_cfg, [])


def _sdm_terms(feats, y, loss_cfg):
    f_m, f_p, f_c = feats
    pm, pp, pc = pool_tokens(f_m), pool_tokens(f_p), pool_tokens(f_c)
    l_mt = sdm_loss(pm, pc, y, loss_cfg)
    l_pt = sdm_loss(pp, pc, y, loss_cfg)
    l_mp = sdm_loss(pm, pp, y, loss_cfg)
    return l_mt, l_pt, l_mp


def evaluate_fusion(bundle: FusionBundle, subjects, mmg_model=None):
    """Threshold and ranking metrics of the trained model on ``subjects``.

    PET assembly and the forward run ``INFERENCE_CHUNK`` subjects at a
    time in the two lanes of ``map_chunks``, so at most two chunks are in
    flight; the scores are pooled in subject order before any metric is
    taken.  An empty ``subjects`` raises ``ValueError``."""
    if not subjects:
        raise ValueError("evaluate_fusion: no subjects to score")

    def score(chunk):
        x_mri, x_pet, x_clin = _fusion_inputs(subjects[chunk], mmg_model, bundle.standardizer)
        _, probs, _ = bundle.model(x_mri, x_pet, x_clin)
        return probs.data[:, 1]

    labels = np.array([s.label for s in subjects], dtype=np.int64)
    return threshold_metrics(np.concatenate(map_chunks(score, len(subjects))), labels)


# -- cross-validation ----------------------------------------------------------

METRIC_KEYS = ("acc", "sen", "spe", "auc", "f1")


def _fold_seed(cfg, fold_index, stage):
    """SeedSequence(seed).spawn(k)[fold].spawn(2)[stage], built fresh:
    spawning advances a SeedSequence, and each stage-2 fit needs the
    same stream."""
    return np.random.SeedSequence(cfg.seed, spawn_key=(fold_index, stage))


def run_cv_fold(subjects, cfg: TrainConfig, mode_hashes, fold_index, out_dir=None):
    """Train and evaluate one fold in every mode of ``mode_hashes`` (mode ->
    config hash); returns {mode: fold row}.  The unit of --parallel-folds work.

    Stage 1 reads neither ablation switch, so the fold's generator is fitted
    once, under the first imputing mode's hash, and shared by the others.
    Fold membership and per-fold seeds derive only from (cfg, fold_index),
    so any execution order or process layout yields identical rows.
    """
    cfg.validate()
    ids = [s.subject_id for s in subjects]
    by_id = {s.subject_id: s for s in subjects}
    labels = [s.label for s in subjects]
    test_ids = split_kfold(ids, cfg.k_folds, cfg.seed, labels=labels)[fold_index]
    test_set = set(test_ids)
    train_subjects = [s for s in subjects if s.subject_id not in test_set]
    test_subjects = [by_id[t] for t in test_ids]
    fold_dir = None if out_dir is None else os.path.join(out_dir, f"fold_{fold_index}")

    mmg_model = None
    rows = {}
    for mode, chash in mode_hashes.items():
        mode_cfg = cfg.with_mode(mode)
        if mode_cfg.use_mmg and mmg_model is None:
            mmg_model, _ = train_mmg(
                train_subjects, mode_cfg, seed_seq=_fold_seed(cfg, fold_index, 0),
                out_dir=fold_dir, config_hash=chash)
        generator = mmg_model if mode_cfg.use_mmg else None
        bundle = train_fusion(
            train_subjects, mode_cfg, generator, seed_seq=_fold_seed(cfg, fold_index, 1),
            out_dir=None if fold_dir is None else os.path.join(fold_dir, mode),
            config_hash=chash)
        m = evaluate_fusion(bundle, test_subjects, generator)
        rows[mode] = {"fold": fold_index, "test_size": len(test_subjects),
                      **{k: m[k] for k in METRIC_KEYS},
                      "counts": {k: m[k] for k in ("tp", "tn", "fp", "fn")}}
    return rows


def _fold_pool(processes):
    """A spawn pool with one BLAS thread per worker.  Workers copy the
    environment as the pool starts them and read these variables before
    they import NumPy; the caller's values are restored afterwards.  (On
    two cores, two workers of two BLAS threads each ran a small CV 3-9x
    slower than one process.)"""
    import multiprocessing as mp

    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    saved = {k: os.environ.pop(k) for k in blas if k in os.environ}
    os.environ.update(dict.fromkeys(blas, "1"))
    try:
        return mp.get_context("spawn").Pool(processes)
    finally:
        for k in blas:
            del os.environ[k]
        os.environ.update(saved)


def run_cv_modes(subjects, cfg: TrainConfig, mode_hashes, *, out_dir=None, processes=1):
    """Stratified k-fold CV of the two-stage pipeline in every mode of
    ``mode_hashes`` (mode -> config hash); returns {mode: report dict}.

    Per fold: fit the standardizer and both stages on the train split only,
    then evaluate on the held-out fold.  With ``processes`` > 1 the folds
    run in a spawn pool, with bit-identical results.  The aggregate block
    holds the arithmetic mean and population std of each metric across
    folds.  ``out_dir`` receives ``metrics_<mode>.json`` per mode and, per
    fold, ``fold_<i>/`` with the generator and ``fold_<i>/<mode>/`` with
    each mode's stage-2 files.
    """
    cfg.validate()
    jobs = [(subjects, cfg, mode_hashes, i, out_dir) for i in range(cfg.k_folds)]
    if processes > 1:
        with _fold_pool(min(processes, cfg.k_folds)) as pool:
            fold_rows = pool.starmap(run_cv_fold, jobs)
    else:
        fold_rows = [run_cv_fold(*job) for job in jobs]

    reports = {}
    for mode, chash in mode_hashes.items():
        rows = [per_mode[mode] for per_mode in fold_rows]
        aggregate = {}
        for key in METRIC_KEYS:
            vals = np.array([row[key] for row in rows], dtype=np.float64)
            aggregate[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
        reports[mode] = {
            "mode": mode, "k_folds": cfg.k_folds, "seed": int(cfg.seed),
            "config_hash": chash, "folds": rows, "aggregate": aggregate,
        }
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            write_report(reports[mode], os.path.join(out_dir, f"metrics_{mode}.json"))
    return reports


def run_cv(subjects, cfg: TrainConfig, *, out_dir=None):
    """``run_cv_modes`` in the single mode ``cfg`` selects, unhashed; returns its report."""
    mode = cfg.mode()
    return run_cv_modes(subjects, cfg, {mode: ""}, out_dir=out_dir)[mode]


def write_report(report, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f, sort_keys=True, indent=2)
        f.write("\n")

"""Seeded synthetic multimodal cohorts with planted cross-modal structure.

A scalar disease latent ``s ~ N(0,1)`` drives every modality:

    anatomy  = template + s * pattern_A
    MRI      = gain * anatomy + sigma * noise
    PET      = 1.6 * tanh(smooth(anatomy)) + s * pattern_B + 0.55 * sigma * noise
    clinical = noisy linear functions of s (7 attributes)
    label    = 1 for the round(n * pmci_fraction) largest s

``gain`` is a per-subject smooth multiplicative field (scanner intensity
nonuniformity); ``smooth`` is a fixed 3x3x3 box blur with edge padding.  PET
is partly predictable from MRI (the generation target) while pattern_B
carries PET-only label signal.  Everything is a pure function of
(config, seed): rerunning a generation produces byte-identical files.

Also home to the on-disk formats (``.vol`` volumes, ``manifest.csv``), the
stratified k-fold splitter, the train-split standardizer, and a logistic
probe used to certify that the planted signal is actually learnable.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import struct
from dataclasses import dataclass

import numpy as np

VOLUME_MAGIC = b"VOL1"

MANIFEST_COLUMNS = [
    "subject_id", "label", "has_pet", "mri_path", "pet_path",
    "age", "sex", "education", "apoe4", "ptau", "ttau", "fdg_summary",
    "latent_s_debug",
]

CLINICAL_FIELDS = ["age", "sex", "education", "apoe4", "ptau", "ttau", "fdg_summary"]

# Correlation of each clinical attribute's latent with s, and the affine
# (offset, scale) mapping the unit-variance latent to natural units.
# Calibrated so a logistic probe on the 7 standardized columns reaches
# AUC around 0.85 on a 200-subject cohort (learnability floor > 0.8).
_CLINICAL_CORR = {
    "age": -0.33, "education": -0.24, "ptau": 0.50, "ttau": 0.44,
    "fdg_summary": -0.50, "sex": 0.20, "apoe4": 0.38,
}
_CLINICAL_AFFINE = {
    "age": (72.0, 4.0), "education": (16.0, 2.5), "ptau": (28.0, 8.0),
    "ttau": (85.0, 25.0), "fdg_summary": (1.25, 0.12),
}


class VolumeFormatError(ValueError):
    """Header or magic is not a valid volume file."""


class VolumeLengthError(ValueError):
    """Payload size disagrees with the header dims."""


# -- volume files ------------------------------------------------------------


def write_volume(vol, path):
    """Write a 3-d float32 array: magic, three u32 LE dims, f32 LE row-major."""
    vol = np.ascontiguousarray(vol, dtype="<f4")
    if vol.ndim != 3:
        raise VolumeFormatError(f"volume must be 3-d, got shape {vol.shape}")
    with open(path, "wb") as f:
        f.write(VOLUME_MAGIC)
        f.write(struct.pack("<III", *vol.shape))
        f.write(vol.tobytes())


def read_volume(path):
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != VOLUME_MAGIC:
        raise VolumeFormatError(f"bad magic {blob[:4]!r} in {path}, expected {VOLUME_MAGIC!r}")
    if len(blob) < 16:
        raise VolumeLengthError(f"truncated header in {path}")
    d, h, w = struct.unpack_from("<III", blob, 4)
    expect = 16 + 4 * d * h * w
    if len(blob) != expect:
        raise VolumeLengthError(
            f"payload length mismatch in {path}: dims {(d, h, w)} need {expect} bytes, file has {len(blob)}")
    return np.frombuffer(blob, dtype="<f4", offset=16).reshape(d, h, w).copy()


# -- generation --------------------------------------------------------------


@dataclass
class CohortConfig:
    n_subjects: int = 200
    volume_shape: tuple = (16, 16, 16)
    missing_pet_rate: float = 0.3
    pmci_fraction: float = 0.35
    noise_sigma: float = 0.7
    seed: int = 0
    label_correlated_missing: bool = False

    def validate(self):
        if self.n_subjects < 1:
            raise ValueError(f"n_subjects must be >= 1, got {self.n_subjects}")
        if not (0.0 <= self.missing_pet_rate <= 1.0):
            raise ValueError(f"missing_pet_rate must lie in [0, 1], got {self.missing_pet_rate}")
        if not (0.0 < self.pmci_fraction < 1.0):
            raise ValueError(f"pmci_fraction must lie in (0, 1), got {self.pmci_fraction}")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        shape = tuple(self.volume_shape)
        if len(shape) != 3 or any(int(d) < 8 for d in shape):
            raise ValueError(f"volume_shape needs three dims >= 8, got {self.volume_shape}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError(f"seed must be u64, got {self.seed}")
        return self


@functools.lru_cache(maxsize=8)
def _edge_pad_index(shape):
    """Index arrays that gather a volume into its 1-voxel edge-padded copy."""
    return np.ix_(*(np.clip(np.arange(-1, n + 1), 0, n - 1) for n in shape))


def box_blur3(vol):
    """3x3x3 box mean with edge padding; shape-preserving.

    Byte-identical to ``sliding_window_view(np.pad(vol, 1, mode="edge"),
    (3, 3, 3)).mean(axis=(3, 4, 5))``, whose summation order it follows:
    each window row is summed left to right, the nine row sums are added
    in (depth, height) order, and the total is divided by 27.  The row
    sums are shared by every window, so the blur is a dozen slice adds.
    (A volume one voxel wide on its last axis, which no cohort has, is
    reduced by NumPy in another order and may differ in the last bit.)
    """
    d, h, w = vol.shape
    p = vol[_edge_pad_index(vol.shape)]
    rows = p[:, :, 0:w] + p[:, :, 1:w + 1]
    rows += p[:, :, 2:w + 2]
    terms = [rows[a:a + d, b:b + h] for a in range(3) for b in range(3)]
    out = terms[0] + terms[1]
    for t in terms[2:]:
        out += t
    # NumPy's sum starts from +0, so a window of all -0 sums to +0
    out += 0
    out /= 27
    return out.astype(vol.dtype)


def _unit_field(rng, shape):
    """Smooth zero-mean unit-std random field."""
    f = box_blur3(rng.standard_normal(shape, dtype=np.float32))
    f = box_blur3(f)
    return ((f - f.mean()) / f.std()).astype(np.float32)


@dataclass
class Subject:
    subject_id: str
    label: int
    has_pet: bool
    mri: np.ndarray
    pet: np.ndarray | None
    clinical: dict
    latent_s: float


def _draw_subjects(cfg: CohortConfig):
    """Sample the full cohort in memory (deterministic in cfg)."""
    cfg.validate()
    shape = tuple(int(d) for d in cfg.volume_shape)
    n = cfg.n_subjects
    ss = np.random.SeedSequence(cfg.seed)
    r_struct, r_latent, r_mri, r_pet, r_clin, r_miss = (
        np.random.Generator(np.random.PCG64(c)) for c in ss.spawn(6))

    # Amplitudes keep the imaging task off the ceiling: MRI alone reads s
    # weakly (classification headroom for the fusion comparisons), PET
    # reads it more strongly (so zero-filling PET volumes costs AUC).
    template = _unit_field(r_struct, shape)
    pattern_a = 0.07 * _unit_field(r_struct, shape)
    pattern_b = 0.80 * _unit_field(r_struct, shape)
    # Smooth multiplicative gain fields model scanner intensity
    # nonuniformity on MRI.  Reading s through a per-subject gain needs
    # input-dependent reweighting, which separates the fusion variants.
    gain_fields = [_unit_field(r_struct, shape) for _ in range(3)]

    s = r_latent.standard_normal(n)

    k_pos = int(round(n * cfg.pmci_fraction))
    labels = np.zeros(n, dtype=np.int64)
    order = np.argsort(s, kind="stable")
    if k_pos:
        labels[order[-k_pos:]] = 1

    m_miss = int(round(n * cfg.missing_pet_rate))
    perm = r_miss.permutation(n)
    if cfg.label_correlated_missing:
        # Stress mode: missingness concentrates in the positive class.
        perm = np.concatenate([perm[labels[perm] == 1], perm[labels[perm] == 0]])
    missing = np.zeros(n, dtype=bool)
    missing[perm[:m_miss]] = True

    subjects = []
    # PET noise runs below the MRI noise: the deterministic anatomical
    # carrier must stay visible (crossmodal correlation > 0.5) even when the
    # MRI channel is degraded enough to leave classification headroom.
    sigma_pet = np.float32(0.55 * cfg.noise_sigma)
    for i in range(n):
        si = np.float32(s[i])
        anatomy = template + si * pattern_a
        u = r_mri.standard_normal(3).astype(np.float32)
        gain = np.exp(np.float32(0.3) * sum(c * f for c, f in zip(u, gain_fields)))
        mri = gain * anatomy + cfg.noise_sigma * r_mri.standard_normal(shape, dtype=np.float32)
        # The PET carrier is the anatomical field: the tracer map reflects
        # anatomy, and MRI acquisition artifacts must not cross over.
        # Carrier gain 1.6 holds the crossmodal correlation above 0.5
        # while the MRI channel keeps classification headroom.
        pet = (np.float32(1.6) * np.tanh(box_blur3(anatomy)) + si * pattern_b
               + sigma_pet * r_pet.standard_normal(shape, dtype=np.float32))
        clin = _draw_clinical(r_clin, s[i])
        subjects.append(Subject(
            subject_id=f"S{i + 1:04d}",
            label=int(labels[i]),
            has_pet=not missing[i],
            mri=mri.astype(np.float32),
            pet=None if missing[i] else pet.astype(np.float32),
            clinical=clin,
            latent_s=float(s[i]),
        ))
    return subjects


def _draw_clinical(rng, s):
    lat = {}
    for name in CLINICAL_FIELDS:
        c = _CLINICAL_CORR[name]
        lat[name] = c * s + np.sqrt(1.0 - c * c) * rng.standard_normal()
    rec = {}
    for name in ("age", "education", "ptau", "ttau", "fdg_summary"):
        off, scale = _CLINICAL_AFFINE[name]
        rec[name] = off + scale * lat[name]
    rec["sex"] = int(lat["sex"] > 0.0)
    # Allele count with a realistic 0/1/2 split (roughly 60/30/10).
    z = lat["apoe4"]
    rec["apoe4"] = int(z > 0.25) + int(z > 1.28)
    return {k: rec[k] for k in CLINICAL_FIELDS}


def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def generate_cohort(cfg: CohortConfig, out_dir):
    """Write manifest.csv and .vol files under ``out_dir``; returns a summary."""
    import os

    cfg.validate()
    os.makedirs(out_dir, exist_ok=True)
    subjects = _draw_subjects(cfg)
    rows = []
    for sub in subjects:
        mri_path = f"{sub.subject_id}_mri.vol"
        write_volume(sub.mri, os.path.join(out_dir, mri_path))
        pet_path = ""
        if sub.has_pet:
            pet_path = f"{sub.subject_id}_pet.vol"
            write_volume(sub.pet, os.path.join(out_dir, pet_path))
        c = sub.clinical
        rows.append([
            sub.subject_id, str(sub.label), str(int(sub.has_pet)), mri_path, pet_path,
            _fmt(c["age"]), _fmt(c["sex"]), _fmt(c["education"]), _fmt(c["apoe4"]),
            _fmt(c["ptau"]), _fmt(c["ttau"]), _fmt(c["fdg_summary"]),
            _fmt(sub.latent_s),
        ])
    # newline="\n" keeps manifests byte-identical across platforms
    with open(os.path.join(out_dir, "manifest.csv"), "w", newline="\n", encoding="utf-8") as f:
        wr = csv.writer(f, lineterminator="\n")
        wr.writerow(MANIFEST_COLUMNS)
        wr.writerows(rows)
    n_pos = sum(s.label for s in subjects)
    n_missing = sum(not s.has_pet for s in subjects)
    summary = {
        "n_subjects": cfg.n_subjects,
        "n_pmci": int(n_pos),
        "n_smci": int(cfg.n_subjects - n_pos),
        "n_missing_pet": int(n_missing),
        "n_with_pet": int(cfg.n_subjects - n_missing),
        "config_hash": config_hash_cohort(cfg),
        "seed": int(cfg.seed),
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w", encoding="utf-8") as f:
        json.dump(summary, f, sort_keys=True, indent=2)
        f.write("\n")
    return summary


def config_hash_cohort(cfg: CohortConfig):
    blob = json.dumps(
        {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(cfg).items()},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- loading -----------------------------------------------------------------


def load_manifest(cohort_dir):
    """Parse manifest.csv into row dicts with typed fields."""
    import os

    path = os.path.join(cohort_dir, "manifest.csv")
    with open(path, newline="", encoding="utf-8") as f:
        rd = csv.reader(f)
        header = next(rd)
        if header != MANIFEST_COLUMNS:
            raise ValueError(f"manifest columns {header} != expected {MANIFEST_COLUMNS}")
        rows = []
        for raw in rd:
            rec = dict(zip(header, raw))
            rec["label"] = int(rec["label"])
            rec["has_pet"] = int(rec["has_pet"])
            for k in ("age", "education", "ptau", "ttau", "fdg_summary", "latent_s_debug"):
                rec[k] = float(rec[k])
            for k in ("sex", "apoe4"):
                rec[k] = int(rec[k])
            rows.append(rec)
    return rows


def load_cohort(cohort_dir):
    """Manifest rows plus loaded volumes, as Subject objects."""
    import os

    subjects = []
    for rec in load_manifest(cohort_dir):
        mri = read_volume(os.path.join(cohort_dir, rec["mri_path"]))
        pet = None
        if rec["has_pet"]:
            pet = read_volume(os.path.join(cohort_dir, rec["pet_path"]))
        subjects.append(Subject(
            subject_id=rec["subject_id"],
            label=rec["label"],
            has_pet=bool(rec["has_pet"]),
            mri=mri,
            pet=pet,
            clinical={k: rec[k] for k in CLINICAL_FIELDS},
            latent_s=rec["latent_s_debug"],
        ))
    return subjects


# -- splits and standardization ----------------------------------------------


def split_kfold(subject_ids, k, seed, labels=None):
    """Disjoint test folds: sizes differ by <= 1, stratified when labels given.

    Within each class (or the whole list when labels is None) ids are
    shuffled by a seeded generator, then dealt round-robin with a cursor
    that carries across classes so overall sizes stay balanced.
    """
    ids = list(subject_ids)
    n = len(ids)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if k > n:
        raise ValueError(f"k={k} exceeds the number of subjects ({n})")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    if labels is None:
        groups = [list(range(n))]
    else:
        labels = list(labels)
        if len(labels) != n:
            raise ValueError("labels must align with subject_ids")
        groups = [[i for i, y in enumerate(labels) if y == cls] for cls in sorted(set(labels))]
    folds = [[] for _ in range(k)]
    cursor = 0
    for group in groups:
        order = rng.permutation(len(group))
        for j in order:
            folds[cursor % k].append(ids[group[j]])
            cursor += 1
    return folds


class Standardizer:
    """Per-column mean/std fitted on the training split only."""

    def __init__(self):
        self.mean = None
        self.std = None

    def fit(self, X):
        X = np.asarray(X, dtype=np.float64)
        self.mean = X.mean(axis=0)
        std = X.std(axis=0)
        self.std = np.where(std > 0, std, 1.0)
        return self

    def transform(self, X):
        if self.mean is None:
            raise RuntimeError("standardizer not fitted; call fit on the training split first")
        return ((np.asarray(X, dtype=np.float64) - self.mean) / self.std).astype(np.float32)


def clinical_matrix(subjects):
    """[n, 7] float matrix in the canonical clinical column order."""
    return np.array([[s.clinical[k] for k in CLINICAL_FIELDS] for s in subjects], dtype=np.float64)


# -- planted-signal probes -----------------------------------------------------


def logistic_probe(X, y):
    """Fit a tiny L2-regularized logistic model; returns scores on X.

    Plain full-batch gradient descent (400 steps of size 0.5, L2 weight
    1e-3) from zero init: deterministic, no dependencies, good enough to
    certify that the planted signal is linearly recoverable.  Columns are
    standardized internally so the attribute scales (years vs. allele
    counts) do not dictate the conditioning of the fit.
    """
    X = np.asarray(X, dtype=np.float64)
    X = (X - X.mean(axis=0)) / (X.std(axis=0) + 1e-12)
    y = np.asarray(y, dtype=np.float64)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    for _ in range(400):
        z = np.clip(X @ w + b, -35.0, 35.0)
        p = 1.0 / (1.0 + np.exp(-z))
        g = p - y
        gw = X.T @ g / n + 1e-3 * w
        gb = float(g.mean())
        w -= 0.5 * gw
        b -= 0.5 * gb
    return X @ w + b


def probe_auc(X, y):
    """In-sample AUC of the logistic probe (learnability floor oracle)."""
    from .metrics import auc

    return auc(logistic_probe(X, y), y)


def crossmodal_correlation(subjects):
    """Pearson correlation between smooth(MRI) and PET over all complete pairs."""
    xs, ys = [], []
    for s in subjects:
        if s.pet is None:
            continue
        xs.append(box_blur3(s.mri).reshape(-1))
        ys.append(s.pet.reshape(-1))
    if not xs:
        raise ValueError("no PET-complete subjects to correlate")
    x = np.concatenate(xs).astype(np.float64)
    y = np.concatenate(ys).astype(np.float64)
    x -= x.mean()
    y -= y.mean()
    return float((x * y).sum() / np.sqrt((x * x).sum() * (y * y).sum()))

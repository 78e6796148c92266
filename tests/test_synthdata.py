"""Cohort generation, on-disk formats, splits, and the planted-signal floor."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from trimodal.synthdata import (MANIFEST_COLUMNS, CohortConfig, Standardizer,
                                VolumeFormatError, VolumeLengthError,
                                _draw_subjects, box_blur3, clinical_matrix,
                                crossmodal_correlation, generate_cohort,
                                load_cohort, load_manifest, probe_auc,
                                read_volume, split_kfold, write_volume)


# -- volume files ----------------------------------------------------------


def test_volume_roundtrip_bitwise(tmp_path, rng):
    v = rng.standard_normal((5, 7, 3)).astype(np.float32)
    p = tmp_path / "v.vol"
    write_volume(v, p)
    back = read_volume(p)
    assert back.shape == v.shape
    assert back.tobytes() == v.tobytes()


def test_volume_bad_magic(tmp_path):
    p = tmp_path / "bad.vol"
    p.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(VolumeFormatError):
        read_volume(p)


def test_volume_truncated_payload(tmp_path, rng):
    p = tmp_path / "v.vol"
    write_volume(rng.standard_normal((4, 4, 4)).astype(np.float32), p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])
    with pytest.raises(VolumeLengthError):
        read_volume(p)


def test_volume_rejects_non_3d(tmp_path):
    with pytest.raises(VolumeFormatError):
        write_volume(np.zeros((2, 2), dtype=np.float32), tmp_path / "x.vol")


# -- generation ------------------------------------------------------------


def test_manifest_column_order(small_cohort_dir):
    header = (small_cohort_dir / "manifest.csv").read_text().splitlines()[0]
    assert header.split(",") == MANIFEST_COLUMNS


def test_no_missing_pet_when_rate_zero(tmp_path):
    cfg = CohortConfig(n_subjects=8, volume_shape=(8, 8, 8), missing_pet_rate=0.0, seed=3)
    generate_cohort(cfg, str(tmp_path))
    rows = load_manifest(str(tmp_path))
    assert len(rows) == 8
    assert all(r["has_pet"] == 1 for r in rows)


def test_exact_missing_count(tmp_path):
    cfg = CohortConfig(n_subjects=10, volume_shape=(8, 8, 8), missing_pet_rate=0.5, seed=4)
    generate_cohort(cfg, str(tmp_path))
    rows = load_manifest(str(tmp_path))
    assert sum(1 - r["has_pet"] for r in rows) == 5
    missing = [r for r in rows if not r["has_pet"]]
    assert all(r["pet_path"] == "" for r in missing)


def test_generation_byte_identical(tmp_path):
    cfg = CohortConfig(n_subjects=6, volume_shape=(8, 8, 8), seed=9)
    a, b = tmp_path / "a", tmp_path / "b"
    generate_cohort(cfg, str(a))
    generate_cohort(cfg, str(b))
    assert (a / "manifest.csv").read_bytes() == (b / "manifest.csv").read_bytes()
    for f in sorted(p.name for p in a.glob("*.vol")):
        assert (a / f).read_bytes() == (b / f).read_bytes()


# sha256 of the generate_cohort tree below: every file's name, then its
# bytes, in sorted order.  The float32 tanh and exp bits come from the NumPy
# build, so the digest is keyed to the version it was recorded on.
_COHORT_NUMPY = "2.4.6"
_COHORT_DIGEST = "1572375868ddb3da35b5fe4696574ea204b853f4f7b949c8ebc608b1a7bd4970"


def test_generation_matches_the_pinned_digest(tmp_path):
    if np.__version__ != _COHORT_NUMPY:
        pytest.skip(f"cohort digest recorded on NumPy {_COHORT_NUMPY}, this is {np.__version__}")
    cfg = CohortConfig(n_subjects=24, volume_shape=(16, 16, 16), missing_pet_rate=0.25, seed=11)
    generate_cohort(cfg, str(tmp_path))
    h = hashlib.sha256()
    for p in sorted(tmp_path.iterdir()):
        h.update(p.name.encode("utf-8"))
        h.update(p.read_bytes())
    assert h.hexdigest() == _COHORT_DIGEST


@pytest.mark.parametrize("rate", [0.3, 0.5])
def test_label_correlated_missing_fills_the_positive_class_first(rate):
    cfg = CohortConfig(n_subjects=20, volume_shape=(8, 8, 8), missing_pet_rate=rate,
                       seed=6, label_correlated_missing=True)
    subjects = _draw_subjects(cfg)
    missing = [s for s in subjects if not s.has_pet]
    n_pos = sum(s.label for s in subjects)
    assert len(missing) == round(20 * rate)
    # 7 positives: at rate 0.3 all 6 missing are positive, at 0.5 all 7 are
    assert sum(s.label for s in missing) == min(len(missing), n_pos)


def test_label_rule_marks_largest_latents(small_subjects):
    n_pos = round(len(small_subjects) * 0.35)
    by_s = sorted(small_subjects, key=lambda s: s.latent_s, reverse=True)
    assert all(s.label == 1 for s in by_s[:n_pos])
    assert all(s.label == 0 for s in by_s[n_pos:])


def test_load_cohort_inverts_generation(small_cohort_dir, small_subjects):
    rows = load_manifest(str(small_cohort_dir))
    assert [s.subject_id for s in small_subjects] == [r["subject_id"] for r in rows]
    with_pet = [s for s in small_subjects if s.has_pet]
    assert all(s.pet is not None and s.pet.shape == (8, 8, 8) for s in with_pet)
    assert all(s.pet is None for s in small_subjects if not s.has_pet)


def test_clinical_matrix_shape_and_order(small_subjects):
    X = clinical_matrix(small_subjects)
    assert X.shape == (len(small_subjects), 7)
    assert np.isfinite(X).all()


# -- planted signal --------------------------------------------------------


@pytest.fixture(scope="module")
def default_cohort():
    """In-memory 200-subject cohort at the default operating point."""
    from trimodal.synthdata import _draw_subjects

    return _draw_subjects(CohortConfig())


def test_latent_probe_is_perfect(default_cohort):
    """Labels are a threshold of s, so s ranks them perfectly."""
    s = np.array([x.latent_s for x in default_cohort])[:, None]
    y = np.array([x.label for x in default_cohort])
    assert probe_auc(s, y) == 1.0


def test_clinical_probe_floor(default_cohort):
    X = clinical_matrix(default_cohort)
    y = np.array([x.label for x in default_cohort])
    assert probe_auc(X, y) > 0.8


def test_crossmodal_correlation_floor(default_cohort):
    assert crossmodal_correlation(default_cohort) > 0.5


def _window_mean(vol):
    """The reference blur: the mean over sliding 3x3x3 windows of the edge pad."""
    p = np.pad(vol, 1, mode="edge")
    return sliding_window_view(p, (3, 3, 3)).mean(axis=(3, 4, 5)).astype(vol.dtype)


@pytest.mark.parametrize("shape", [(8, 8, 8), (16, 16, 16), (8, 12, 9), (19, 10, 13)])
@pytest.mark.parametrize("scale", [1e-4, 1.0, 1e4])
def test_box_blur3_matches_window_mean_bytes(shape, scale):
    rng = np.random.default_rng(sum(shape))
    v = (scale * (rng.standard_normal(shape) + 0.5)).astype(np.float32)
    assert box_blur3(v).tobytes() == _window_mean(v).tobytes()


@pytest.mark.parametrize("value", [2.5, -0.0])
def test_box_blur3_matches_window_mean_bytes_on_constant_fields(value):
    v = np.full((8, 9, 10), value, dtype=np.float32)
    assert box_blur3(v).tobytes() == _window_mean(v).tobytes()


def test_box_blur3_constant_field():
    # edge-padded mean of a constant field is the same constant
    v = np.full((5, 5, 5), 2.5, dtype=np.float32)
    assert np.allclose(box_blur3(v), 2.5, atol=1e-6)


# -- splits and standardization ----------------------------------------------


def test_kfold_partitions_everything():
    ids = [f"S{i:03d}" for i in range(23)]
    folds = split_kfold(ids, 5, seed=1)
    flat = [i for f in folds for i in f]
    assert sorted(flat) == sorted(ids)
    assert len(set(flat)) == len(ids)
    sizes = sorted(len(f) for f in folds)
    assert sizes[-1] - sizes[0] <= 1


def test_kfold_stratifies_labels():
    ids = [f"S{i:03d}" for i in range(40)]
    labels = [1 if i < 10 else 0 for i in range(40)]
    folds = split_kfold(ids, 5, seed=2, labels=labels)
    pos = {i for i, l in zip(ids, labels) if l == 1}
    counts = [sum(1 for i in f if i in pos) for f in folds]
    assert all(c == 2 for c in counts)


def test_kfold_deterministic():
    ids = [f"S{i:03d}" for i in range(17)]
    assert split_kfold(ids, 4, seed=7) == split_kfold(ids, 4, seed=7)
    assert split_kfold(ids, 4, seed=7) != split_kfold(ids, 4, seed=8)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 60), k=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1))
def test_kfold_partition_property(n, k, seed):
    if k > n:
        return
    ids = [f"S{i:03d}" for i in range(n)]
    folds = split_kfold(ids, k, seed)
    flat = sorted(i for f in folds for i in f)
    assert flat == sorted(ids)
    sizes = [len(f) for f in folds]
    assert max(sizes) - min(sizes) <= 1


def test_standardizer_normalizes_fit_data(rng):
    X = rng.normal(5.0, 3.0, size=(50, 7))
    st_ = Standardizer().fit(X)
    Z = st_.transform(X)
    assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-6)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-5)


def test_standardizer_is_train_statistics_only(rng):
    X = rng.normal(0.0, 1.0, size=(30, 7))
    st_ = Standardizer().fit(X)
    other = rng.normal(10.0, 1.0, size=(5, 7))
    Z = st_.transform(other)
    assert Z.mean() > 5.0   # offset survives, proving no refit happened

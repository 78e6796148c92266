"""Command-line contract tests: exit codes, artifact layout, ablation
grid output, and bit-identical reruns (sequential and parallel)."""

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest
import yaml

from trimodal import trainer
from trimodal.checkpoint import load_checkpoint
from trimodal.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from trimodal.config import config_hash, from_dict, load_config
from trimodal.trainer import MODES


FAST_YAML = """\
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


@pytest.fixture
def fast_config(tmp_path):
    p = tmp_path / "fast.yaml"
    p.write_text(FAST_YAML)
    return str(p)


def test_print_defaults_round_trips(capsys):
    assert main(["gen", "--print-defaults"]) == EXIT_OK
    text = capsys.readouterr().out
    tree = yaml.safe_load(text)
    for section in ("cohort", "train", "loss", "mmg", "encoders", "ablation", "out_dir"):
        assert section in tree
    from_dict(tree)  # canonical defaults must be loadable as-is


def test_gen_writes_cohort(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["gen", "--config", fast_config, "--out", str(out)]) == EXIT_OK
    assert (out / "cohort" / "manifest.csv").exists()
    assert "16 subjects" in capsys.readouterr().out


def test_gen_same_seed_same_bytes(fast_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    main(["gen", "--config", fast_config, "--out", str(out1)])
    main(["gen", "--config", fast_config, "--out", str(out2)])
    m1 = (out1 / "cohort" / "manifest.csv").read_bytes()
    m2 = (out2 / "cohort" / "manifest.csv").read_bytes()
    assert m1 == m2

    out3 = tmp_path / "c"
    main(["gen", "--config", fast_config, "--seed", "99", "--out", str(out3)])
    assert (out3 / "cohort" / "manifest.csv").read_bytes() != m1


def test_invalid_rate_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("cohort:\n  missing_pet_rate: 1.5\n")
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "missing_pet_rate" in capsys.readouterr().err


def test_unknown_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("cohort:\n  n_subject: 10\n")  # typo must not be ignored
    assert main(["gen", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "n_subject" in capsys.readouterr().err


def test_unwritable_out_exits_3(fast_config, tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")  # a file where a directory is needed
    code = main(["gen", "--config", fast_config, "--out", str(blocker / "sub")])
    assert code == EXIT_IO
    assert "i/o error" in capsys.readouterr().err


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_u64_exits_2(seed, tmp_path, capsys):
    assert main(["gen", "--seed", seed, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert "u64" in capsys.readouterr().err


def test_explicit_cohort_without_manifest_exits_3(fast_config, tmp_path, capsys):
    absent = tmp_path / "absent"
    code = main(["train-mmg", "--config", fast_config, "--cohort", str(absent),
                 "--out", str(tmp_path / "o")])
    assert code == EXIT_IO
    assert "manifest.csv" in capsys.readouterr().err
    assert not absent.exists()


def test_cohort_with_short_manifest_row_exits_2(fast_config, small_cohort_dir, tmp_path, capsys):
    cohort = tmp_path / "cohort"
    cohort.mkdir()
    lines = (small_cohort_dir / "manifest.csv").read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0]
    (cohort / "manifest.csv").write_text("\n".join(lines) + "\n")
    code = main(["cv", "--config", fast_config, "--cohort", str(cohort), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "line 3" in capsys.readouterr().err


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    capsys.readouterr()


def test_verify_unknown_mutation_exits_2(capsys):
    assert main(["verify", "--mutate", "bogus"]) == EXIT_CONFIG
    assert "unknown mutation" in capsys.readouterr().err


def test_verify_pristine_passes_and_lists_checks(capsys):
    assert main(["verify"]) == EXIT_OK
    out = capsys.readouterr().out
    named = [line for line in out.splitlines() if "PASS" in line]
    assert len(named) >= 20
    assert "FAIL" not in out


def test_verify_planted_defect_fails_naming_the_identity(capsys):
    assert main(["verify", "--mutate", "focal_sign"]) == 1
    out = capsys.readouterr().out
    failed = [line for line in out.splitlines() if "FAIL" in line]
    assert failed, "planted defect went undetected"
    assert any("focal" in line for line in failed)


def test_stage_commands_chain_through_checkpoint(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train-mmg", "--config", fast_config, "--out", str(out)]) == EXIT_OK
    assert (out / "mmg.itck").exists()
    assert (out / "stage1_loss.csv").exists()
    assert main([
        "train-fusion", "--config", fast_config, "--out", str(out),
        "--cohort", str(out / "cohort"),
        "--mmg-ckpt", str(out / "mmg.itck"),
    ]) == EXIT_OK
    assert (out / "fusion.itck").exists()
    assert (out / "stage2_loss.csv").exists()
    assert "stage 2 done" in capsys.readouterr().out


def test_train_fusion_builds_generator_from_checkpoint_meta(fast_config, tmp_path, capsys):
    # the generator's architecture comes from its checkpoint, not from the
    # stage-2 run's config
    small = tmp_path / "small.yaml"
    small.write_text(FAST_YAML + "mmg:\n  codebook_size: 16\n")
    out = tmp_path / "run"
    assert main(["train-mmg", "--config", str(small), "--out", str(out)]) == EXIT_OK
    assert main([
        "train-fusion", "--config", fast_config, "--out", str(out / "s2"),
        "--cohort", str(out / "cohort"),
        "--mmg-ckpt", str(out / "mmg.itck"),
    ]) == EXIT_OK
    assert "stage 2 done" in capsys.readouterr().out


def _manifest_with(src_dir, dst_dir, edit):
    """Copy the cohort ``src_dir`` to ``dst_dir``, its manifest rows passed
    through ``edit`` (a function of the list of split rows); returns ``dst_dir``."""
    shutil.copytree(src_dir, dst_dir)
    header, *rows = [line.split(",") for line in (dst_dir / "manifest.csv").read_text().splitlines()]
    edit(rows)
    (dst_dir / "manifest.csv").write_text("\n".join(",".join(r) for r in [header, *rows]) + "\n")
    return dst_dir


def test_cohort_with_has_pet_but_no_pet_path_exits_2(fast_config, small_cohort_dir, tmp_path, capsys):
    """Used to exit 3 on reading the cohort directory as a volume."""
    def edit(rows):
        row = next(r for r in rows if r[2] == "0")
        row[2] = "1"
    cohort = _manifest_with(small_cohort_dir, tmp_path / "cohort", edit)
    code = main(["cv", "--config", fast_config, "--cohort", str(cohort), "--out", str(tmp_path / "o")])
    assert code == EXIT_CONFIG
    assert "has_pet is 1 but pet_path is empty" in capsys.readouterr().err


def test_cv_with_a_one_class_test_fold_exits_2_before_any_fit(tmp_path, capsys):
    """10 subjects in 5 folds leave a test fold of one class.  The split
    used to be checked only by the AUC, after fold 0 had been trained and
    written."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("cohort:\n  n_subjects: 10\n  volume_shape: [8, 8, 8]\n  seed: 1\n"
                   "train:\n  epochs_stage1: 1\n  epochs_stage2: 1\n  k_folds: 5\n")
    out = tmp_path / "o"
    assert main(["cv", "--config", str(cfg), "--out", str(out), "--ablation", "none"]) == EXIT_CONFIG
    assert not list(out.glob("fold_*"))
    assert re.search(r"cv fold \d+'s test split needs both classes; got \d+ positives and \d+ negatives",
                     capsys.readouterr().err)


def test_cv_with_a_repeated_subject_id_exits_2_naming_it(tmp_path, capsys):
    """A repeated id used to drop one subject from training and scoring
    and score the other twice, without a warning."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("cohort:\n  n_subjects: 20\n  volume_shape: [8, 8, 8]\n  seed: 3\n"
                   "train:\n  epochs_stage1: 1\n  epochs_stage2: 1\n  k_folds: 2\n")
    assert main(["gen", "--config", str(cfg), "--out", str(tmp_path / "g")]) == EXIT_OK

    def edit(rows):
        rows[1][0] = rows[0][0]
    cohort = _manifest_with(tmp_path / "g" / "cohort", tmp_path / "cohort", edit)
    repeated = (cohort / "manifest.csv").read_text().splitlines()[1].split(",")[0]
    out = tmp_path / "o"
    code = main(["cv", "--config", str(cfg), "--cohort", str(cohort), "--out", str(out), "--ablation", "none"])
    assert code == EXIT_CONFIG
    assert f"subject id {repeated!r} appears more than once" in capsys.readouterr().err
    assert not list(out.glob("fold_*"))


def test_cv_with_n_clinical_other_than_the_clinical_fields_exits_2_before_the_cohort(tmp_path, capsys):
    """The clinical matrix always has one column per clinical field.  Any
    other n_clinical used to fail only after fold 0's generator was fitted
    and written, with an error naming no key."""
    cfg = tmp_path / "c.yaml"
    cfg.write_text("cohort:\n  n_subjects: 16\n  volume_shape: [8, 8, 8]\n  seed: 11\n"
                   "train:\n  epochs_stage1: 1\n  epochs_stage2: 1\n  k_folds: 2\n"
                   "encoders:\n  n_clinical: 5\n")
    out = tmp_path / "o"
    assert main(["cv", "--config", str(cfg), "--out", str(out), "--ablation", "mmg_tcaf"]) == EXIT_CONFIG
    assert "encoders.n_clinical must be 7" in capsys.readouterr().err
    assert not out.exists()


def test_cv_ablation_grid_writes_four_reports(fast_config, tmp_path, capsys,
                                              monkeypatch):
    stage1_calls = []
    real_train_mmg = trainer.train_mmg

    def counting_train_mmg(*args, **kwargs):
        stage1_calls.append(1)
        return real_train_mmg(*args, **kwargs)

    monkeypatch.setattr(trainer, "train_mmg", counting_train_mmg)
    out = tmp_path / "grid"
    assert main(["cv", "--config", fast_config, "--out", str(out),
                 "--ablation", "all"]) == EXIT_OK
    cfg = load_config(fast_config)
    # one generator per fold, shared by both imputing modes
    assert len(stage1_calls) == cfg.train.k_folds
    hashes = set()
    for mode, (use_mmg, use_tcaf) in MODES.items():
        report = json.loads((out / f"metrics_{mode}.json").read_text())
        mode_cfg = dataclasses.replace(cfg, train=cfg.train.with_mode(mode))
        assert report["config_hash"] == config_hash(mode_cfg), mode
        hashes.add(report["config_hash"])
        _, meta = load_checkpoint(str(out / "fold_0" / mode / "fusion.itck"))
        assert (meta["use_mmg"], meta["use_tcaf"]) == (use_mmg, use_tcaf), mode
        assert meta["config_hash"] == report["config_hash"], mode
    assert len(hashes) == 4
    stdout = capsys.readouterr().out
    assert stdout.count("AUC") == 4


def test_cv_rerun_is_byte_identical_across_directories(fast_config, tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["cv", "--config", fast_config, "--out", str(out1), "--ablation", "none"])
    main(["cv", "--config", fast_config, "--out", str(out2), "--ablation", "none"])
    b1 = (out1 / "metrics_none.json").read_bytes()
    b2 = (out2 / "metrics_none.json").read_bytes()
    assert b1 == b2


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_cv_parallel_folds_match_sequential(fast_config, tmp_path):
    seq, par = tmp_path / "seq", tmp_path / "par"
    assert main(["cv", "--config", fast_config, "--out", str(seq),
                 "--ablation", "all"]) == EXIT_OK
    assert main(["cv", "--config", fast_config, "--out", str(par),
                 "--ablation", "all", "--parallel-folds", "2"]) == EXIT_OK
    files_seq, files_par = _tree_bytes(seq), _tree_bytes(par)
    assert "fold_1/mmg_tcaf/fusion.itck" in files_seq
    assert files_seq.keys() == files_par.keys()
    for name, data in files_seq.items():
        assert files_par[name] == data, name


def test_cv_parallel_folds_below_one_exits_2(fast_config, tmp_path, capsys):
    code = main(["cv", "--config", fast_config, "--out", str(tmp_path / "o"),
                 "--parallel-folds", "-3"])
    assert code == EXIT_CONFIG
    assert "--parallel-folds" in capsys.readouterr().err


def test_console_script_is_installed():
    proc = subprocess.run(
        ["trimodal", "gen", "--print-defaults"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert "cohort:" in proc.stdout


def test_train_fusion_with_a_stage_2_checkpoint_as_generator_exits_2(fast_config, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train-fusion", "--config", fast_config, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main([
        "train-fusion", "--config", fast_config, "--out", str(out / "s2"),
        "--cohort", str(out / "cohort"),
        "--mmg-ckpt", str(out / "fusion.itck"),
    ]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "fusion.itck is a stage-2 checkpoint; expected a stage-1 checkpoint" in err


# Each value has the wrong type for its key; all must be refused before
# anything runs.  The small cohort keeps a wrongly accepted case cheap.
_SMALL_COHORT = {"n_subjects": 8, "volume_shape": [8, 8, 8]}


@pytest.mark.parametrize("section, key, value", [
    ("ablation", "use_mmg", "false"),
    ("cohort", "label_correlated_missing", "no"),
    ("train", "epochs_stage1", 1.5),
    ("train", "epochs_stage2", True),
    ("cohort", "volume_shape", 16),
    ("cohort", "volume_shape", [16.0, 16, 16]),
    ("loss", "alpha_focal", 3),
    ("loss", "alpha_focal", [1.0, "x"]),
    ("cohort", "n_subjects", "abc"),
    ("train", "lr", "abc"),
])
def test_mistyped_config_value_exits_2_naming_its_key(section, key, value, tmp_path, capsys):
    tree = {"cohort": dict(_SMALL_COHORT)}
    tree.setdefault(section, {})[key] = value
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(tree))
    assert main(["gen", "--config", str(path), "--out", str(tmp_path / "o")]) == EXIT_CONFIG
    assert f"{section}.{key}" in capsys.readouterr().err


def test_integers_in_float_fields_load_as_given():
    cfg = from_dict({"train": {"lr": 1}, "loss": {"gamma": 2, "alpha_focal": [1, 3]}})
    assert type(cfg.train.lr) is int and type(cfg.train.loss.gamma) is int
    assert cfg.train.loss.alpha_focal == (1.0, 3.0)

"""Command-line front end.

Subcommands: gen (cohort generation), train-mmg (stage 1), train-fusion
(stage 2), cv (k-fold cross-validation with ablation modes), verify
(self-check suite).  Exit codes: 0 success, 1 failed verification or
runtime error, 2 invalid configuration, 3 I/O failure.

``cv`` hands every requested mode to one driver, ``trainer.run_cv_modes``,
which fits each fold's generator once and writes ``metrics_<mode>.json``
per mode, carrying the hash of the config with that mode applied.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .config import ConfigError, RunConfig, config_hash, dump_defaults, load_config
from .trainer import MODES

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_IO = 3


def build_parser():
    p = argparse.ArgumentParser(
        prog="trimodal",
        description="Triple-modal conversion pipeline on seeded synthetic cohorts")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_cohort=False):
        sp.add_argument("--config", metavar="PATH", help="YAML run configuration")
        sp.add_argument("--seed", type=int, metavar="U64", help="override every seed in the config")
        sp.add_argument("--out", metavar="DIR", help="output directory (overrides config out_dir)")
        if needs_cohort:
            sp.add_argument("--cohort", metavar="DIR",
                            help="existing cohort directory (default: generate into OUT/cohort)")

    sp = sub.add_parser("gen", help="generate a synthetic cohort")
    common(sp)
    sp.add_argument("--print-defaults", action="store_true",
                    help="print the canonical default config and exit")

    sp = sub.add_parser("train-mmg", help="stage 1: fit the PET generator")
    common(sp, needs_cohort=True)

    sp = sub.add_parser("train-fusion", help="stage 2: fit encoders + fusion + classifier")
    common(sp, needs_cohort=True)
    sp.add_argument("--mmg-ckpt", metavar="PATH",
                    help="stage-1 checkpoint for imputation (omit for zero-fill)")

    sp = sub.add_parser("cv", help="k-fold cross-validation")
    common(sp, needs_cohort=True)
    sp.add_argument("--ablation", choices=[*MODES, "all"], default=None,
                    help="fusion/imputation mode, or 'all' for the full grid")
    sp.add_argument("--parallel-folds", type=int, default=1, metavar="N",
                    help="fold processes to run concurrently (cv only)")

    sp = sub.add_parser("verify", help="run the named property suite")
    sp.add_argument("--mutate", metavar="NAME", default=None,
                    help="plant a known defect first (suite must then fail)")
    return p


def _load(args):
    cfg = load_config(args.config) if args.config else RunConfig().validate()
    if args.seed is not None:
        cfg.cohort.seed = args.seed
        cfg.train.seed = args.seed
        cfg.validate()
    if getattr(args, "out", None):
        cfg.out_dir = args.out
    return cfg


def _ensure_cohort(args, cfg):
    """Load ``--cohort``; without it, generate the cohort into OUT/cohort
    first unless one is already there."""
    from .synthdata import generate_cohort, load_cohort

    cdir = args.cohort
    if cdir is None:
        cdir = os.path.join(cfg.out_dir, "cohort")
        if not os.path.exists(os.path.join(cdir, "manifest.csv")):
            generate_cohort(cfg.cohort, cdir)
    return load_cohort(cdir)


def cmd_gen(args):
    from .synthdata import generate_cohort

    if args.print_defaults:
        sys.stdout.write(dump_defaults())
        return EXIT_OK
    cfg = _load(args)
    summary = generate_cohort(cfg.cohort, os.path.join(cfg.out_dir, "cohort"))
    print(f"cohort written: {summary['n_subjects']} subjects "
          f"({summary['n_pmci']} pMCI / {summary['n_smci']} sMCI), "
          f"{summary['n_missing_pet']} missing PET")
    return EXIT_OK


def cmd_train_mmg(args):
    from .trainer import train_mmg

    cfg = _load(args)
    subjects = _ensure_cohort(args, cfg)
    _, history = train_mmg(subjects, cfg.train, out_dir=cfg.out_dir,
                           config_hash=config_hash(cfg))
    print(f"stage 1 done: {len(history)} epochs, final L1 {history[-1][1]:.4f} "
          f"(from {history[0][1]:.4f})")
    return EXIT_OK


def cmd_train_fusion(args):
    from .trainer import load_mmg, train_fusion

    cfg = _load(args)
    subjects = _ensure_cohort(args, cfg)
    mmg_model = load_mmg(args.mmg_ckpt) if args.mmg_ckpt else None
    bundle = train_fusion(subjects, cfg.train, mmg_model, out_dir=cfg.out_dir,
                          config_hash=config_hash(cfg))
    print(f"stage 2 done: {len(bundle.history)} epochs, final total "
          f"{bundle.history[-1][1]:.4f} (from {bundle.history[0][1]:.4f})")
    return EXIT_OK


def cmd_cv(args):
    from .trainer import run_cv_modes

    cfg = _load(args)
    if args.parallel_folds < 1:
        raise ConfigError(f"--parallel-folds must be >= 1, got {args.parallel_folds}")
    modes = list(MODES) if args.ablation == "all" else [args.ablation or cfg.train.mode()]
    mode_hashes = {m: config_hash(replace(cfg, train=cfg.train.with_mode(m))) for m in modes}
    subjects = _ensure_cohort(args, cfg)
    reports = run_cv_modes(subjects, cfg.train, mode_hashes, out_dir=cfg.out_dir,
                           processes=args.parallel_folds)
    for mode, report in reports.items():
        agg = report["aggregate"]
        print(f"[{mode}] AUC {agg['auc']['mean']:.3f}±{agg['auc']['std']:.3f}  "
              f"ACC {agg['acc']['mean']:.3f}±{agg['acc']['std']:.3f}  "
              f"({report['k_folds']} folds)")
    return EXIT_OK


def cmd_verify(args):
    from .verify import run_all

    _, ok = run_all(mutate=args.mutate)
    return EXIT_OK if ok else EXIT_FAIL


def main(argv=None):
    args = build_parser().parse_args(argv)
    handlers = {
        "gen": cmd_gen,
        "train-mmg": cmd_train_mmg,
        "train-fusion": cmd_train_fusion,
        "cv": cmd_cv,
        "verify": cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except ValueError as e:  # ConfigError included
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())

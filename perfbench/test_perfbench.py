"""Tests of the benchmark itself: run with
``python3 -m pytest perfbench/test_perfbench.py`` from the repository root."""

import json
import os
import shutil
import subprocess
import sys

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _worker(args, blas_threads):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads)
    proc = subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"), *args],
                          env=env, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_cv_grid_artifacts_identical_at_one_and_two_blas_threads(tmp_path):
    common = ["--workload", "cv_grid", "--seed", "5"]
    setup = _worker(["setup", *common, "--dir", str(tmp_path)], 1)
    assert setup["failed"] == 0
    digests = {}
    for threads in (1, 2):
        r = _worker(["body", *common, "--dir", setup["dir"], "--seconds", "0"], threads)
        assert r["failed"] == 0, f"{threads} BLAS threads: {r}"
        assert r["environment"]["blas_threads"]["OPENBLAS_NUM_THREADS"] == str(threads)
        digests[threads] = r["digest"]
    assert digests[1] == digests[2], digests


def test_run_exits_nonzero_without_program_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "workloads.py", "spans.py"):
        shutil.copy(os.path.join(HERE, name), bench / name)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cv_grid",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_self_time_subtracts_direct_children_only():
    recorded = [
        ["outer", 0.0, 10.0, -1, "r", None],
        ["mid", 1.0, 6.0, 0, "r", None],
        ["leaf", 2.0, 4.0, 1, "r", None],
        ["mid", 7.0, 8.0, 0, "r", None],
    ]
    table = spans.self_times(recorded)
    assert table["outer"] == [1, 10.0, 4.0]
    assert table["mid"] == [2, 6.0, 4.0]
    assert table["leaf"] == [1, 2.0, 2.0]


def test_install_restores_every_patched_name():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import trimodal  # noqa: F401
    from trimodal import autograd, mmg, nn, trainer

    before = (nn.conv3d, trainer.quantize, autograd.Tensor.backward, mmg.PerceptualNet.forward)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    assert nn.conv3d is not before[0] and trainer.quantize is not before[1]
    restore()
    after = (nn.conv3d, trainer.quantize, autograd.Tensor.backward, mmg.PerceptualNet.forward)
    assert after == before


def test_benchmark_json_names_every_metric_the_run_prints():
    import run

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    assert [m["name"] for m in bench["end_to_end"]] == [name for name, _ in run.END_TO_END]
    layers = spans.per_layer_metrics([], [], 1.0, 1.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (_, unit) in layers.items()]

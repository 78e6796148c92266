"""Outside-in tracing for the benchmark: spans recorded around calls into
the program's public functions, and the per-layer metrics derived from them.

Recording (``Tracer``, ``install``) runs inside a worker process and
imports the program lazily.  Analysis (``per_layer_metrics``,
``self_times``, ``layer_table``) is pure Python over the span records, so
the orchestrating process never imports NumPy.

A span record is ``[name, start, end, parent, run_id, attrs]``: ``parent``
is the index of the enclosing span (-1 at top level) and ``attrs`` holds
counts measured at the boundary (shapes, computed FLOPs and bytes, file
sizes, state digests) or ``None``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import statistics
import sys
import time

# Conv shapes of the default models at 16^3 volumes, as
# "<in>-<out>.d<input side>.k<kernel>": the mmg encoder, discriminator and
# perceptual net, the image encoders, and the mmg decoder.
CONV3D_SHAPES = (
    "1-16.d16.k4", "16-32.d8.k4", "32-32.d4.k4", "32-1.d4.k4",
    "1-8.d16.k3", "8-16.d8.k3", "16-16.d4.k3",
    "1-8.d16.k4", "8-16.d8.k4", "16-32.d4.k4",
)
CONV_TRANSPOSE3D_SHAPES = ("32-32.d2.k4", "32-16.d4.k4", "16-1.d8.k4")
# Per-shape rows time calls at the training batch size only.
TABLE_BATCH = 8

# Functions that only set-up calls; their metrics come from the traced
# set-up, every other metric from the traced timed body.
SETUP_LAYERS = ("synthdata.generate_cohort", "verify.run_all")


class Tracer:
    """In-memory span recorder with a parent stack (single-threaded)."""

    def __init__(self):
        self.spans = []
        self.run_id = ""
        self._stack = []

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id, None])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, attrs=None):
        """``fn`` inside a span; ``attrs(result, *args, **kwargs)`` runs after
        the span closes, so its cost is not charged to the layer."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if attrs is not None:
                self.spans[idx][5] = attrs(out, *args, **kwargs)
            return out
        return traced

    def wrap_op(self, name, fn, attrs=None):
        """An autograd op: forward span around the call, backward span
        around the ``_backward`` closure of the tensor it returns."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name + ".fwd")
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end(idx)
            info = attrs(out, *args) if attrs is not None else None
            self.spans[idx][5] = info and info[0]
            bwd = out._backward
            if bwd is not None:
                def timed_backward(g):
                    j = self.begin(name + ".bwd")
                    try:
                        bwd(g)
                    finally:
                        self.end(j)
                    if info is not None:
                        self.spans[j][5] = info[1]()
                out._backward = timed_backward
            return out
        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span, separators=(",", ":")))
                f.write("\n")


def read_spans(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


# -- computed work per conv call ------------------------------------------------


def _conv_info(transpose):
    """attrs for conv3d / conv_transpose3d: shape key, batch, computed FLOPs
    and bytes (inputs read plus outputs written, at the array itemsize)."""
    def info(out, x, kernel, *rest):
        xs, ks, ys = x.data.shape, kernel.data.shape, out.data.shape
        n, c = xs[0], xs[1]
        f = ks[1] if transpose else ks[0]
        k = ks[2]
        key = f"{c}-{f}.d{xs[2]}.k{k}"
        macs_per = k ** 3 * c * f
        sites = (xs[2] * xs[3] * xs[4]) if transpose else (ys[2] * ys[3] * ys[4])
        flop = 2 * n * sites * macs_per
        item = x.data.itemsize
        size_x, size_k, size_y = x.data.size, kernel.data.size, out.data.size
        fwd = {"key": key, "n": n, "flop": flop,
               "bytes": item * (size_x + size_k + size_y)}

        def bwd():
            dx, dk = x.requires_grad, kernel.requires_grad
            moved = size_y + size_x + size_k + dx * size_x + dk * size_k
            return {"key": key, "n": n, "dx": dx, "dw": dk,
                    "flop": flop * (int(dx) + int(dk)), "bytes": item * moved}
        return fwd, bwd
    return info


def _state_digest(model):
    h = hashlib.sha256()
    for name, arr in sorted(model.state_dict().items()):
        h.update(name.encode("utf-8"))
        h.update(arr.tobytes())
    return h.hexdigest()


def _tree_bytes(path, suffixes=None):
    total = 0
    for entry in os.scandir(path):
        if entry.is_file() and (suffixes is None or entry.name.endswith(suffixes)):
            total += entry.stat().st_size
    return total


# -- patching ------------------------------------------------------------------


def install(tracer):
    """Patch every traced function where it is looked up, and every traced
    method on its class; returns a function that restores the originals."""
    from trimodal import (autograd, checkpoint, cli, encoders, fusion, losses,
                          metrics, mmg, nn, synthdata, trainer, verify)

    undo = []

    def patch_function(module, name, wrapped):
        orig = getattr(module, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("trimodal"):
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)
                        undo.append((mod, attr, orig))

    def fn(module, name, span, attrs=None):
        patch_function(module, name, tracer.wrap(span, getattr(module, name), attrs))

    def op(name, attrs=None):
        orig = getattr(autograd, name)
        patch_function(autograd, name, tracer.wrap_op(f"autograd.{name}", orig, attrs))

    def method(cls, name, span, attrs=None):
        orig = cls.__dict__[name]
        setattr(cls, name, tracer.wrap(span, orig, attrs))
        undo.append((cls, name, orig))

    op("conv3d", _conv_info(transpose=False))
    op("conv_transpose3d", _conv_info(transpose=True))
    op("matmul")
    op("softmax")
    method(autograd.Tensor, "backward", "autograd.backward")
    method(nn.Linear, "forward", "nn.Linear")
    method(nn.LayerNorm, "forward", "nn.LayerNorm")

    fn(mmg, "quantize", "mmg.quantize")
    method(mmg.PerceptualNet, "forward", "mmg.PerceptualNet")
    method(mmg.PatchDiscriminator, "forward", "mmg.PatchDiscriminator")
    method(mmg.MmgModel, "generate_pet", "mmg.generate_pet",
           lambda out, self, batch: {"volumes": len(out)})

    method(encoders.ModalityEncoders, "forward", "encoders.ModalityEncoders")
    method(encoders.SelfAttention, "forward", "encoders.SelfAttention")
    method(fusion.TcafHead, "forward", "fusion.TcafHead")
    method(fusion.ConcatHead, "forward", "fusion.ConcatHead")
    fn(losses, "focal_loss", "losses.focal_loss")
    fn(losses, "sdm_loss", "losses.sdm_loss")

    fn(trainer, "train_mmg", "trainer.train_mmg",
       lambda out, *a, **k: {"digest": _state_digest(out[0]), "epochs": len(out[1])})
    fn(trainer, "train_fusion", "trainer.train_fusion",
       lambda out, *a, **k: {"epochs": len(out.history)})
    method(trainer.Adam, "step", "trainer.Adam.step")
    fn(trainer, "assemble_pet", "trainer.assemble_pet")
    fn(trainer, "evaluate_fusion", "trainer.evaluate_fusion")
    fn(metrics, "threshold_metrics", "metrics.threshold_metrics")

    fn(synthdata, "generate_cohort", "synthdata.generate_cohort",
       lambda out, cfg, out_dir: {"bytes": _tree_bytes(out_dir)})
    fn(synthdata, "load_cohort", "synthdata.load_cohort",
       lambda out, cohort_dir: {"bytes": _tree_bytes(cohort_dir, (".vol", ".csv"))})
    fn(checkpoint, "save_checkpoint", "checkpoint.save_checkpoint",
       lambda out, path, *a, **k: {"bytes": os.path.getsize(path)})
    fn(checkpoint, "load_checkpoint", "checkpoint.load_checkpoint",
       lambda out, path: {"bytes": os.path.getsize(path)})
    fn(checkpoint, "state_checksums", "checkpoint.state_checksums")
    fn(verify, "run_all", "verify.run_all")
    fn(cli, "main", "cli.main")

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
    return restore


# -- analysis ------------------------------------------------------------------


def self_times(spans):
    """{name: [calls, total_s, self_s]}; self time is a span's duration
    minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = {}
    for i, (name, start, end, *_) in enumerate(spans):
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return table


def _attr_sum(spans, name, key):
    return sum((s[5] or {}).get(key, 0) for s in spans if s[0] == name)


def _shape_ms(spans, name, key):
    """Mean ms per call at batch TABLE_BATCH: consistent with the op totals,
    so a faster path of either gradient kind moves it."""
    times = [1e3 * (s[2] - s[1]) for s in spans
             if s[0] == name and s[5] and s[5]["key"] == key and s[5]["n"] == TABLE_BATCH]
    return sum(times) / len(times) if times else 0.0


def per_layer_metrics(body_spans, setup_spans, untraced_wall_s, traced_wall_s):
    """Every per-layer metric by name, as {name: (value, unit)}.

    A function with no calls reports 0 for its times and counts; a
    per-shape row with no call at batch ``TABLE_BATCH`` reports 0 ms.
    Conv FLOPs are computed from shapes, not counted by hardware."""
    body = self_times(body_spans)
    setup = self_times(setup_spans)

    def row(name):
        src = setup if name in SETUP_LAYERS else body
        return src.get(name, [0, 0.0, 0.0])

    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    def timed(name, quantity="s"):
        calls, total, _ = row(name)
        put(f"{name}.{quantity}", total, "s")
        put(f"{name}.calls", calls, "count")

    for opname in ("conv3d", "conv_transpose3d", "matmul", "softmax"):
        base = f"autograd.{opname}"
        put(f"{base}.fwd_s", row(base + ".fwd")[1], "s")
        put(f"{base}.bwd_s", row(base + ".bwd")[1], "s")
        put(f"{base}.calls", row(base + ".fwd")[0], "count")
        if opname.startswith("conv"):
            flop = (_attr_sum(body_spans, base + ".fwd", "flop")
                    + _attr_sum(body_spans, base + ".bwd", "flop"))
            put(f"{base}.gflop", flop / 1e9, "GFLOP")
    timed("autograd.backward")
    put("autograd.backward.self_s", row("autograd.backward")[2], "s")
    for opname, shapes in (("conv3d", CONV3D_SHAPES),
                           ("conv_transpose3d", CONV_TRANSPOSE3D_SHAPES)):
        for key in shapes:
            for phase in ("fwd", "bwd"):
                put(f"autograd.{opname}.{key}.{phase}_ms",
                    _shape_ms(body_spans, f"autograd.{opname}.{phase}", key), "ms")
    timed("nn.Linear", "fwd_s")
    timed("nn.LayerNorm", "fwd_s")

    timed("trainer.train_mmg")
    epochs1 = _attr_sum(body_spans, "trainer.train_mmg", "epochs")
    put("trainer.stage1_epoch_s", row("trainer.train_mmg")[1] / epochs1 if epochs1 else 0.0, "s")
    timed("trainer.train_fusion")
    epochs2 = _attr_sum(body_spans, "trainer.train_fusion", "epochs")
    put("trainer.stage2_epoch_s", row("trainer.train_fusion")[1] / epochs2 if epochs2 else 0.0, "s")
    timed("trainer.Adam.step")
    timed("trainer.assemble_pet")
    timed("trainer.evaluate_fusion")
    digests = [s[5]["digest"] for s in body_spans if s[0] == "trainer.train_mmg"]
    put("trainer.stage1_unique_ratio",
        len(set(digests)) / len(digests) if digests else 0.0, "ratio")

    timed("mmg.quantize")
    timed("mmg.PerceptualNet", "fwd_s")
    timed("mmg.PatchDiscriminator", "fwd_s")
    put("mmg.generate_pet.s", row("mmg.generate_pet")[1], "s")
    put("mmg.generate_pet.volumes", _attr_sum(body_spans, "mmg.generate_pet", "volumes"), "count")

    for name in ("encoders.ModalityEncoders", "encoders.SelfAttention",
                 "fusion.TcafHead", "fusion.ConcatHead"):
        timed(name, "fwd_s")
    timed("losses.focal_loss")
    timed("losses.sdm_loss")
    timed("metrics.threshold_metrics")

    timed("synthdata.generate_cohort")
    put("synthdata.generate_cohort.bytes",
        _attr_sum(setup_spans, "synthdata.generate_cohort", "bytes"), "bytes")
    timed("synthdata.load_cohort")
    put("synthdata.load_cohort.bytes",
        _attr_sum(body_spans, "synthdata.load_cohort", "bytes"), "bytes")
    timed("checkpoint.save_checkpoint")
    put("checkpoint.save_checkpoint.bytes",
        _attr_sum(body_spans, "checkpoint.save_checkpoint", "bytes"), "bytes")
    timed("checkpoint.load_checkpoint")
    put("checkpoint.load_checkpoint.bytes",
        _attr_sum(body_spans, "checkpoint.load_checkpoint", "bytes"), "bytes")
    timed("checkpoint.state_checksums")
    timed("verify.run_all")
    calls, total, self_s = row("cli.main")
    put("cli.main.s", total, "s")
    put("cli.main.calls", calls, "count")
    put("cli.main.self_s", self_s, "s")

    put("trace.untraced_wall_s", untraced_wall_s, "s")
    put("trace.traced_wall_s", traced_wall_s, "s")
    put("trace.overhead_s", traced_wall_s - untraced_wall_s, "s")
    return out


def layer_table(spans):
    """Markdown rows per (op, shape, pass) at batch ``TABLE_BATCH``: calls,
    median ms, and computed GFLOP and MB per call.  Backward passes are
    split by the gradients they compute (dX input, dW kernel)."""
    rows = {}
    for name, start, end, _, _, attrs in spans:
        if not name.startswith("autograd.conv") or not attrs or attrs["n"] != TABLE_BATCH:
            continue
        op, phase = name[len("autograd."):].rsplit(".", 1)
        if phase == "bwd":
            phase = "bwd " + "+".join(g for g, on in (("dX", attrs["dx"]), ("dW", attrs["dw"])) if on)
        r = rows.setdefault((op, attrs["key"], phase), [[], 0, 0])
        r[0].append(1e3 * (end - start))
        r[1] += attrs["flop"]
        r[2] += attrs["bytes"]
    if not rows:
        return f"(no conv call at batch {TABLE_BATCH})"
    lines = ["| op | in→out | side | k | pass | calls | median ms | GFLOP/call | MB/call |",
             "| --- | --- | --- | --- | --- | --- | --- | --- | --- |"]
    for (op, key, phase), (times, flop, moved) in sorted(rows.items()):
        chans, side, k = key.split(".")
        n = len(times)
        lines.append(f"| {op} | {chans.replace('-', '→')} | {side[1:]}³ | {k[1:]} | {phase} | {n} "
                     f"| {statistics.median(times):.3f} | {flop / n / 1e9:.4f} | {moved / n / 1e6:.3f} |")
    return "\n".join(lines)

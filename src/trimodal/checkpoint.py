"""Binary checkpoint format for named parameter tensors.

Layout (all integers little-endian):

    magic   4 bytes  "ITCK"
    version u32      currently 1
    count   u32      number of entries
    entry*  name(u32 length + UTF-8), shape(u32 rank + rank*u32 dims),
            data(raw little-endian float32, row-major)

Metadata (config hash, seed, shapes, loss weights, ...) rides along as a
reserved entry named ``__meta__`` whose payload is a u32 JSON byte length
followed by UTF-8 JSON, zero-padded to a whole number of 32-bit words.
Readers that ignore the reserved name still parse the file.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np

MAGIC = b"ITCK"
VERSION = 1
META_KEY = "__meta__"


class CheckpointError(ValueError):
    pass


def _meta_to_payload(meta):
    raw = json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = struct.pack("<I", len(raw)) + raw
    pad = (-len(body)) % 4
    return np.frombuffer(body + b"\x00" * pad, dtype="<f4").copy()


def _meta_from_payload(arr):
    body = np.ascontiguousarray(arr).tobytes()
    (n,) = struct.unpack_from("<I", body, 0)
    if 4 + n > len(body):
        raise CheckpointError("metadata record truncated")
    try:
        return json.loads(body[4:4 + n].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"malformed metadata record: {e}") from None


def save_checkpoint(path, tensors, meta=None):
    """Write named float32 arrays (dict name -> ndarray) plus optional meta."""
    entries = list(tensors.items())
    if meta is not None:
        entries.append((META_KEY, _meta_to_payload(meta)))
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", VERSION))
        f.write(struct.pack("<I", len(entries)))
        for name, arr in entries:
            arr = np.ascontiguousarray(arr, dtype="<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", arr.ndim))
            for d in arr.shape:
                f.write(struct.pack("<I", d))
            f.write(arr.tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (tensors: dict, meta: dict|None).  A
    malformed or truncated file raises ``CheckpointError``."""
    with open(path, "rb") as f:
        blob = f.read()
    try:
        return _parse(blob)
    except (struct.error, UnicodeDecodeError) as e:  # a header or a name cut short
        raise CheckpointError(f"malformed checkpoint: {e}") from None


def _parse(blob):
    if blob[:4] != MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {MAGIC!r}")
    off = 4
    (version,) = struct.unpack_from("<I", blob, off)
    off += 4
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    (count,) = struct.unpack_from("<I", blob, off)
    off += 4
    tensors = {}
    meta = None
    seen = set()
    for _ in range(count):
        (nlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off:off + nlen].decode("utf-8")
        off += nlen
        (rank,) = struct.unpack_from("<I", blob, off)
        off += 4
        dims = struct.unpack_from(f"<{rank}I", blob, off)
        off += 4 * rank
        n = int(np.prod(dims, dtype=np.int64)) if rank else 1
        nbytes = 4 * n
        if off + nbytes > len(blob):
            raise CheckpointError(f"truncated payload for tensor {name!r}")
        arr = np.frombuffer(blob, dtype="<f4", count=n, offset=off).reshape(dims).copy()
        off += nbytes
        if name in seen:
            raise CheckpointError(f"duplicate entry {name!r}")
        seen.add(name)
        if name == META_KEY:
            meta = _meta_from_payload(arr)
        else:
            tensors[name] = arr
    if off != len(blob):
        raise CheckpointError(f"{len(blob) - off} trailing bytes after last tensor")
    return tensors, meta


def state_checksums(tensors):
    """Per-tensor sha256 hex digests over name, shape, dtype and bytes, for
    freeze verification: any change to a tensor's bytes changes its digest."""
    out = {}
    for name, a in sorted(tensors.items()):
        a = np.ascontiguousarray(a)
        h = hashlib.sha256(f"{name}|{a.shape}|{a.dtype.str}|".encode("utf-8"))
        h.update(a.tobytes())
        out[name] = h.hexdigest()
    return out

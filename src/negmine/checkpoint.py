"""Versioned binary scorer checkpoints with bit-exact round trips.

Layout (all integers little-endian):

    bytes 0-7    magic b"NEGMINE\\0"
    bytes 8-11   format version (uint32)
    bytes 12-19  header length in bytes (uint64)
    header       UTF-8 JSON: hidden dim, vocab (relations and words in id
                 order), thresholds, and the shape of each parameter array
                 in blob order
    blobs        raw C-order float64 arrays, concatenated in header order

JSON floats are serialized via repr, which round-trips doubles exactly, and
arrays are stored as raw bytes, so save → load → save reproduces the file
byte for byte. No timestamps or environment data are embedded.
"""
from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .ioutil import atomic_write_bytes
from .scorer import ScorerParams, ThresholdMap, TokenVocab

MAGIC = b"NEGMINE\0"
VERSION = 2

_ARRAY_NDIM = {"emb": 2, "ff_w": 2, "ff_b": 1, "w": 1}
_ARRAY_ORDER = tuple(_ARRAY_NDIM)
_HEADER_KEYS = frozenset({"bias", "hidden_dim", "vocab", "arrays", "thresholds"})


class CheckpointError(ValueError):
    """File is not a readable, finite checkpoint of a supported version."""


def save_checkpoint(
    path: str | Path, params: ScorerParams, thresholds: ThresholdMap | None = None
) -> None:
    arrays = {name: np.ascontiguousarray(getattr(params, name), dtype="<f8") for name in _ARRAY_ORDER}
    header = {
        "hidden_dim": params.hidden_dim,
        "bias": params.b,
        "vocab": {"relations": list(params.vocab.relations), "words": list(params.vocab.words)},
        "arrays": [{"name": name, "shape": list(arrays[name].shape)} for name in _ARRAY_ORDER],
        "thresholds": None
        if thresholds is None
        else {
            "per_relation": {r: thresholds.per_relation[r] for r in sorted(thresholds.per_relation)},
            "fallback": thresholds.fallback,
        },
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    parts = [
        MAGIC,
        np.uint32(VERSION).tobytes(),
        np.uint64(len(header_bytes)).tobytes(),
        header_bytes,
    ]
    parts.extend(arrays[name].tobytes() for name in _ARRAY_ORDER)
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path: str | Path) -> tuple[ScorerParams, ThresholdMap | None]:
    data = Path(path).read_bytes()
    if len(data) < 20 or data[:8] != MAGIC:
        raise CheckpointError(f"{path}: not a scorer checkpoint")
    version = int(np.frombuffer(data[8:12], dtype="<u4")[0])
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version}")
    header_len = int(np.frombuffer(data[12:20], dtype="<u8")[0])
    try:
        header = json.loads(data[20 : 20 + header_len].decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad JSON, or nested too deep
        raise CheckpointError(f"{path}: corrupt checkpoint header") from exc
    missing = _HEADER_KEYS - header.keys() if isinstance(header, dict) else _HEADER_KEYS
    if missing:
        raise CheckpointError(f"{path}: checkpoint header lacks {', '.join(sorted(missing))}")
    try:
        names = tuple(spec["name"] for spec in header["arrays"])
        if names != _ARRAY_ORDER:
            raise CheckpointError(
                f"{path}: checkpoint arrays {list(names)} differ from {list(_ARRAY_ORDER)}"
            )
        offset = 20 + header_len
        arrays = {}
        for spec in header["arrays"]:
            shape = tuple(int(d) for d in spec["shape"])
            if len(shape) != _ARRAY_NDIM[spec["name"]] or min(shape) < 0:
                raise CheckpointError(
                    f"{path}: checkpoint array {spec['name']} has bad shape {list(shape)}"
                )
            end = offset + math.prod(shape) * 8
            if end > len(data):
                raise CheckpointError(f"{path}: truncated checkpoint blob {spec['name']}")
            arrays[spec["name"]] = np.frombuffer(data[offset:end], dtype="<f8").reshape(shape).copy()
            offset = end
        if offset != len(data):
            raise CheckpointError(f"{path}: trailing bytes after checkpoint blobs")
        vocab = TokenVocab(header["vocab"]["relations"], header["vocab"]["words"])
        params = ScorerParams(
            vocab,
            arrays["emb"],
            arrays["ff_w"],
            arrays["ff_b"],
            arrays["w"],
            header["bias"],
        )
        thresholds = None
        if header["thresholds"] is not None:
            thresholds = ThresholdMap(
                dict(header["thresholds"]["per_relation"]), header["thresholds"]["fallback"]
            )
    except CheckpointError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    if not params.all_finite():
        raise CheckpointError(f"{path}: checkpoint holds non-finite scorer weights")
    return params, thresholds

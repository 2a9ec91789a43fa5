"""JSON interchange for models and reduction artifacts.

A matrix serializes as one entry {"shape": [rows, cols], "c16": "<base64>"},
the string holding its row-major, little-endian complex128 bytes, so every
float64 is kept bit for bit and no number goes through JSON.  The older form,
row-major nested arrays of [re, im] pairs, is still read.  Records and
distributions keep complex numbers as readable [re, im] pairs.  Reduced
models are written as ordinary conditional-evolution documents with an
extra "reduction" block, so every command that accepts a model also accepts
a reduced one.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile

import numpy as np

from .model import ConditionalEvolution, Instrument, OutputMap
from .operators import Superoperator, superop_from_kraus

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "superop_to_json",
    "superop_from_json",
    "ce_to_json",
    "ce_from_json",
    "reduced_ce_to_json",
    "save_json",
    "load_json",
]


def matrix_to_json(M: np.ndarray) -> dict:
    """The {"shape", "c16"} entry of a 2-D array: its row-major little-endian complex128 bytes."""
    M = np.ascontiguousarray(M, "<c16")
    return {"shape": [int(d) for d in M.shape], "c16": base64.b64encode(M.tobytes()).decode("ascii")}


def _matrix_from_c16(data: dict) -> np.ndarray:
    """Decode a {"shape", "c16"} entry, checking shape and payload length before allocating."""
    shape = data.get("shape")
    if not (isinstance(shape, (list, tuple)) and len(shape) == 2
            and all(type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"matrix 'shape' must be two non-negative ints, not {shape!r}")
    payload = data.get("c16")
    if not isinstance(payload, str):
        raise ValueError(f"matrix 'c16' must be a base64 string, not {type(payload).__name__}")
    rows, cols = shape
    n_bytes = 16 * rows * cols
    # base64 spends 4 characters on every 3 bytes, the last group padded
    if len(payload) != 4 * -(-n_bytes // 3):
        raise ValueError(f"matrix 'c16' of {len(payload)} characters cannot hold the "
                         f"{n_bytes} bytes of a {rows}x{cols} complex128 matrix")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error
        raise ValueError(f"matrix 'c16' is not strict base64: {exc}") from None
    if len(raw) != n_bytes:
        raise ValueError(f"matrix 'c16' holds {len(raw)} bytes, not the {n_bytes} of a {rows}x{cols} matrix")
    return np.frombuffer(raw, "<c16").astype(complex).reshape(rows, cols)


def matrix_from_json(data) -> np.ndarray:
    """Matrix from a {"shape", "c16"} entry or from rows of [re, im] pairs.

    ValueError on a malformed entry, or on ragged, non-numeric or misshapen rows.
    """
    if isinstance(data, dict):
        return _matrix_from_c16(data)
    A = np.asarray(data)
    if A.dtype.kind not in "iuf" or A.ndim != 3 or A.shape[2] != 2:
        raise ValueError(f"matrix must be rows of numeric [re, im] pairs, not {A.dtype} {A.shape}")
    # a C-ordered float copy holds each [re, im] pair as one complex number
    return A.astype(float).view(complex)[..., 0]


def superop_to_json(S: Superoperator) -> dict:
    return {"kraus": [matrix_to_json(K) for K in S.kraus]}


def superop_from_json(data: dict) -> Superoperator:
    """A map from its "kraus" list or, factored on loading, its "matrix"; ValueError unless CP."""
    if "kraus" in data:
        return superop_from_kraus([matrix_from_json(K) for K in data["kraus"]])
    if "matrix" in data:
        return Superoperator(matrix_from_json(data["matrix"]))
    raise ValueError("superoperator entry needs a 'kraus' or 'matrix' field")


def ce_to_json(ce: ConditionalEvolution, extra: dict | None = None) -> dict:
    doc = {
        "dim": ce.dim,
        "outcomes": list(ce.outcomes),
        "instrument": {k: superop_to_json(ce.instrument.maps[k]) for k in ce.outcomes},
        "observables": [
            {"name": name, "matrix": matrix_to_json(O)}
            for name, O in zip(ce.output.names, ce.output.observables)
        ],
    }
    if ce.has_split:
        doc["split"] = {
            "evolution": superop_to_json(ce.evolution),
            "effects": {k: superop_to_json(ce.effects[k]) for k in ce.outcomes},
        }
    if extra:
        doc.update(extra)
    return doc


def _labelled(label: str, read, data):
    """``read(data)`` with errors naming the entry, such as ``instrument map '0'``."""
    try:
        return read(data)
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


def ce_from_json(doc: dict) -> ConditionalEvolution:
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, not {type(doc).__name__}")
    try:
        outcomes = tuple(str(k) for k in doc["outcomes"])
        maps = {k: _labelled(f"instrument map {k!r}", superop_from_json, doc["instrument"][k])
                for k in outcomes}
        names = tuple(o["name"] for o in doc["observables"])
        obs = tuple(_labelled(f"observable {o['name']!r}", matrix_from_json, o["matrix"])
                    for o in doc["observables"])
        evolution = effects = None
        if "split" in doc:
            split = doc["split"]
            evolution = _labelled("split evolution", superop_from_json, split["evolution"])
            effects = {k: _labelled(f"split effect {k!r}", superop_from_json, split["effects"][k])
                       for k in outcomes}
    except KeyError as exc:
        raise ValueError(f"model document missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return ConditionalEvolution(
        instrument=Instrument(outcomes=outcomes, maps=maps),
        output=OutputMap(names=names, observables=obs),
        evolution=evolution,
        effects=effects,
    )


def reduced_ce_to_json(red) -> dict:
    """Reduced model as a valid CE document plus reduction provenance."""
    return ce_to_json(
        red.model,
        extra={
            "reduction": {
                "R": matrix_to_json(red.reduction_map.matrix),
                "U": matrix_to_json(red.factorization.decomposition.U),
                **red.provenance(),
            }
        },
    )


def save_json(doc: dict | list, path: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(doc))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)

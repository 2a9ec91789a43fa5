"""JSON interchange for models and reduction artifacts.

A matrix serializes as one entry
{"shape": [rows, cols], "nonzero": "<base64>", "c16": "<base64>"}.
"nonzero" is a bitmap in :func:`numpy.packbits` order (row-major, most
significant bit first, padding bits zero) marking the entries whose 16 bytes
are not all zero, and "c16" holds the marked entries alone, row-major, as
little-endian complex128 bytes.  So every float64 is kept bit for bit, -0.0
and NaN payloads included, no number goes through JSON, and a zero entry
costs one bit.  Two older forms are still read: the dense
{"shape", "c16"} entry, holding every entry's bytes, and row-major nested
arrays of [re, im] pairs.  A map is its "kraus" list of such entries.
A model gives each map once: a split model its "split", an "evolution" and
one "effects" entry per outcome, whose composition is its instrument, and any
other model its "instrument".  A document with both, as older split files
are, is refused.  Records and distributions keep complex numbers as [re, im] pairs.
Reduced models are written as ordinary conditional-evolution documents with
an extra "reduction" block, so every command that accepts a model also
accepts a reduced one.  Its "R" is the basis U of the block decomposition with
the blocks and the shape [D^2, n^2] of R's matrix,
{"shape": [D^2, n^2], "blocks": [[d_S, d_F], ...], "U": <entry>}, from which
R's Kraus list is rebuilt, bit for bit, as the reduction built it
(:func:`~cereduce.algebra.compression`).  This is the only form of R that is
read: an R written as its Kraus list or its dense matrix, as older files hold
it, is refused, and the reduction is written again by ``cereduce reduce``.
"""

from __future__ import annotations

import base64
import json
import os
import tempfile

import numpy as np

from .algebra import compression
from .model import ConditionalEvolution, Instrument, OutputMap
from .operators import Superoperator

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "superop_to_json",
    "superop_from_json",
    "reduction_map_from_json",
    "ce_to_json",
    "ce_from_json",
    "reduced_ce_to_json",
    "save_json",
    "load_json",
]


def _b64(a: np.ndarray) -> str:
    return base64.b64encode(a.tobytes()).decode("ascii")


def matrix_to_json(M: np.ndarray) -> dict:
    """The {"shape", "nonzero", "c16"} entry of a 2-D array: the bitmap of its entries
    whose bytes are not all zero, and those entries' row-major little-endian complex128 bytes."""
    M = np.ascontiguousarray(M, "<c16")
    flat = M.reshape(-1)
    nonzero = flat.view("<u8").reshape(-1, 2).any(axis=1)
    return {"shape": [int(d) for d in M.shape], "nonzero": _b64(np.packbits(nonzero)),
            "c16": _b64(flat[nonzero])}


def _shape(data: dict) -> tuple[int, int]:
    """The "shape" of an entry: two non-negative ints, else ValueError."""
    shape = data.get("shape")
    if not (isinstance(shape, (list, tuple)) and len(shape) == 2
            and all(type(d) is int and d >= 0 for d in shape)):
        raise ValueError(f"matrix 'shape' must be two non-negative ints, not {shape!r}")
    return tuple(shape)


def _payload(data: dict, key: str, n_bytes: int, what: str) -> bytes:
    """The ``n_bytes`` held by the base64 string ``data[key]``, its length checked before decoding."""
    payload = data.get(key)
    if not isinstance(payload, str):
        raise ValueError(f"matrix {key!r} must be a base64 string, not {type(payload).__name__}")
    # base64 spends 4 characters on every 3 bytes, the last group padded
    if len(payload) != 4 * -(-n_bytes // 3):
        raise ValueError(f"matrix {key!r} of {len(payload)} characters cannot hold "
                         f"the {n_bytes} bytes of {what}")
    try:
        raw = base64.b64decode(payload, validate=True)
    except ValueError as exc:  # binascii.Error
        raise ValueError(f"matrix {key!r} is not strict base64: {exc}") from None
    if len(raw) != n_bytes:
        raise ValueError(f"matrix {key!r} holds {len(raw)} bytes, not the {n_bytes} of {what}")
    return raw


def _matrix_from_c16(data: dict) -> np.ndarray:
    """Decode a {"shape", "nonzero", "c16"} or dense {"shape", "c16"} entry.

    Each string's length is checked before it is decoded: the bitmap's
    against the declared shape, and the entries' against the count of marked
    entries, once the bitmap's padding bits are found zero.  ValueError otherwise.
    """
    rows, cols = _shape(data)
    size = rows * cols
    if "nonzero" not in data:
        raw = _payload(data, "c16", 16 * size, f"a {rows}x{cols} complex128 matrix")
        return np.frombuffer(raw, "<c16").astype(complex).reshape(rows, cols)
    bits = np.frombuffer(_payload(data, "nonzero", -(-size // 8), f"the bitmap of a {rows}x{cols} matrix"),
                         np.uint8)
    pad = -size % 8
    if pad and bits[-1] & ((1 << pad) - 1):
        raise ValueError(f"matrix 'nonzero' sets padding bits past the {size} entries "
                         f"of a {rows}x{cols} matrix")
    nonzero = np.unpackbits(bits, count=size).view(bool)
    count = int(np.count_nonzero(nonzero))
    raw = _payload(data, "c16", 16 * count, f"its {count} marked complex128 entries")
    M = np.zeros(size, complex)
    M[nonzero] = np.frombuffer(raw, "<c16")
    return M.reshape(rows, cols)


def matrix_from_json(data) -> np.ndarray:
    """Matrix from a {"shape", "nonzero", "c16"} or {"shape", "c16"} entry, from rows
    of [re, im] pairs, or, for a {"shape", "blocks", "U"} entry, the (D^2, n^2)
    matrix of the R it holds.

    ValueError on a malformed entry, or on ragged, non-numeric or misshapen rows.
    """
    if isinstance(data, dict) and "blocks" in data:
        M = _compression_from_json(data).matrix
        M.flags.writeable = True  # the map is dropped here, so its cached matrix is the caller's
        return M
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
        return Superoperator(kraus=[matrix_from_json(K) for K in data["kraus"]])
    if "matrix" in data:
        return Superoperator(matrix_from_json(data["matrix"]))
    raise ValueError("superoperator entry needs a 'kraus' or 'matrix' field")


def _compression_from_json(data: dict) -> Superoperator:
    """R of a {"shape", "blocks", "U"} entry, rebuilt by :func:`~cereduce.algebra.compression`.

    The blocks must be positive int pairs [d_S, d_F] whose sums D = sum d_S and
    n = sum d_S d_F give the declared shape (D^2, n^2), and U must be n x n:
    all checked before U's payload is decoded, except the shape of a U given
    as [re, im] rows, checked after.  ValueError otherwise.
    """
    rows, cols = _shape(data)
    blocks = data["blocks"]
    if not (isinstance(blocks, (list, tuple)) and blocks and all(
            isinstance(b, (list, tuple)) and len(b) == 2 and all(type(d) is int and d > 0 for d in b)
            for b in blocks)):
        raise ValueError(f"'blocks' must be a list of positive int pairs [d_S, d_F], not {blocks!r}")
    D = sum(dS for dS, _ in blocks)
    n = sum(dS * dF for dS, dF in blocks)
    if (rows, cols) != (D * D, n * n):
        raise ValueError(f"'shape' {[rows, cols]} is not the (D^2, n^2) = {[D * D, n * n]} "
                         f"of its blocks {blocks}")
    if "U" not in data:
        raise ValueError("entry with 'blocks' needs its 'U'")
    if isinstance(data["U"], dict) and _shape(data["U"]) != (n, n):
        raise ValueError(f"'U' shape {data['U']['shape']} is not the ({n}, {n}) of its blocks")
    U = matrix_from_json(data["U"])
    if U.shape != (n, n):
        raise ValueError(f"'U' shape {list(U.shape)} is not the ({n}, {n}) of its blocks")
    return compression(U, blocks)


def reduction_map_from_json(data, shape: tuple[int, int]) -> Superoperator:
    """R from a reduced file's {"shape", "blocks", "U"} entry, whose matrix must have
    ``shape``, the (D^2, n^2) of the pair; R's Kraus list is rebuilt from U and the blocks.

    An R written as its Kraus list or its dense matrix, the forms of older
    files, is refused, as is a declared shape other than ``shape``, before
    any payload is decoded.  ValueError on these and on a malformed entry.
    """
    if not (isinstance(data, dict) and "blocks" in data):
        form = "its Kraus list" if isinstance(data, dict) and "kraus" in data else "a dense matrix"
        raise ValueError(f"R written as {form}, the form of older files, is no longer read; "
                         "re-run `cereduce reduce` on the full model")
    if "shape" in data and data["shape"] != list(shape):
        raise ValueError(f"its shape {data['shape']} and the (D^2, n^2) = {list(shape)} "
                         "of the model pair do not match")
    return _compression_from_json(data)


def ce_to_json(ce: ConditionalEvolution, extra: dict | None = None) -> dict:
    """The model document: a split model's "split", else its "instrument", never both."""
    if ce.has_split:
        maps = {"split": {"evolution": superop_to_json(ce.evolution),
                          "effects": {k: superop_to_json(ce.effects[k]) for k in ce.outcomes}}}
    else:
        maps = {"instrument": {k: superop_to_json(ce.instrument.maps[k]) for k in ce.outcomes}}
    doc = {
        "dim": ce.dim,
        "outcomes": list(ce.outcomes),
        **maps,
        "observables": [
            {"name": name, "matrix": matrix_to_json(O)}
            for name, O in zip(ce.output.names, ce.output.observables)
        ],
    }
    if extra:
        doc.update(extra)
    return doc


def _labelled(label: str, read, data, dim: int):
    """``read(data)``, which must be a dim x dim matrix or a map of dim x dim Kraus operators,
    with errors naming the entry, such as ``instrument map '0'``.  A base64 entry's declared
    "shape" is checked before any entry is decoded: [dim, dim] for a matrix or a Kraus
    operator, [dim^2, dim^2] for a map's "matrix"; an entry of [re, im] rows is checked once read."""
    try:
        if isinstance(data, dict) and "kraus" in data:
            entries, d = data["kraus"], dim
        elif isinstance(data, dict) and "matrix" in data:
            entries, d = [data["matrix"]], dim * dim
        else:
            entries, d = [data], dim
        for entry in entries:
            if isinstance(entry, dict) and "c16" in entry and _shape(entry) != (d, d):
                raise ValueError(f"shape {entry['shape']} is not the [{d}, {d}] of the model's 'dim'")
        X = read(data)
        shape = X.shape if isinstance(X, np.ndarray) else X.kraus[0].shape
        if shape != (dim, dim):
            raise ValueError(f"shape {list(shape)} is not the [{dim}, {dim}] of the model's 'dim'")
        return X
    except ValueError as exc:
        raise ValueError(f"{label}: {exc}") from exc


def ce_from_json(doc: dict) -> ConditionalEvolution:
    """The model of a document that gives its "instrument" or its "split"; ValueError, before
    any map is read, on a document that gives both or repeats an outcome label."""
    if not isinstance(doc, dict):
        raise ValueError(f"model document must be a JSON object, not {type(doc).__name__}")
    if "instrument" in doc and "split" in doc:
        raise ValueError("model document gives both 'instrument' and 'split': the split's composition "
                         "is its instrument, so re-run `cereduce zoo` or drop the 'instrument'")
    try:
        dim = doc["dim"]
        if type(dim) is not int or dim < 1:
            raise ValueError(f"model 'dim' must be a positive int, not {dim!r}")
        outcomes = tuple(str(k) for k in doc["outcomes"])
        if len(set(outcomes)) != len(outcomes):
            raise ValueError(f"duplicate outcome labels in {list(outcomes)}")
        if "split" in doc:
            split = doc["split"]
            form = {"evolution": _labelled("split evolution", superop_from_json, split["evolution"], dim),
                    "effects": {k: _labelled(f"split effect {k!r}", superop_from_json,
                                             split["effects"][k], dim) for k in outcomes}}
        else:
            form = {"instrument": Instrument(outcomes=outcomes, maps={
                k: _labelled(f"instrument map {k!r}", superop_from_json, doc["instrument"][k], dim)
                for k in outcomes})}
        names = tuple(o["name"] for o in doc["observables"])
        obs = tuple(_labelled(f"observable {o['name']!r}", matrix_from_json, o["matrix"], dim)
                    for o in doc["observables"])
    except KeyError as exc:
        raise ValueError(f"model document missing field {exc}") from exc
    except TypeError as exc:
        raise ValueError(f"malformed model document: {exc}") from exc
    return ConditionalEvolution(output=OutputMap(names=names, observables=obs), **form)


def reduced_ce_to_json(red) -> dict:
    """Reduced model as a valid CE document plus reduction provenance.

    R is written as the basis U of the block decomposition, its blocks and the
    (D^2, n^2) shape of R's matrix, which is not formed, nor is R's Kraus list
    written: the readers rebuild it from U and the blocks.
    """
    dec = red.factorization.decomposition
    return ce_to_json(
        red.model,
        extra={
            "reduction": {
                "R": {"shape": [dec.reduced_total_dim ** 2, dec.dim ** 2],
                      "blocks": [list(b) for b in dec.blocks],
                      "U": matrix_to_json(dec.U)},
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
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)

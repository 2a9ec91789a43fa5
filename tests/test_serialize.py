import base64
import json
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cereduce import operators
from cereduce.model import ConditionalEvolution, validate_ce
from cereduce.reduction import equivalence_check, reduce_ce
from cereduce.serialize import (
    ce_from_json,
    ce_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    reduced_ce_to_json,
    reduction_map_from_json,
    save_json,
    superop_from_json,
    superop_to_json,
)
from cereduce.zoo import ising_chain, measured_quantum_walk
from conftest import SPLIT_MODELS, b64, dense_entry, list_entry, random_complex, stored

DATA = Path(__file__).parent / "data"


def _reference_entry(M):
    """The bitmap and entry bytes a sparse entry of M must hold, found one 16-byte entry at a time."""
    raw = np.ascontiguousarray(M, "<c16").tobytes()
    cells = [raw[i:i + 16] for i in range(0, len(raw), 16)]
    bits = "".join("0" if c == bytes(16) else "1" for c in cells)
    bits += "0" * (-len(bits) % 8)
    bitmap = bytes(int(bits[i:i + 8], 2) for i in range(0, len(bits), 8))
    return bitmap, b"".join(c for c in cells if c != bytes(16))


def _entries(doc):
    """Every matrix entry of a document, of any form but [re, im] rows."""
    if isinstance(doc, dict):
        if "c16" in doc:
            yield doc
            return
        doc = list(doc.values())
    if isinstance(doc, list):
        for v in doc:
            yield from _entries(v)


def _patterned(shape, density, seed):
    """A random complex matrix with a random share 1 - density of entries zero, and as many
    again with only their real or only their imaginary part zero."""
    rng = np.random.default_rng(seed)
    M = random_complex(rng, shape)
    M.real[rng.random(shape) > density] = 0
    M.imag[rng.random(shape) > density] = 0
    M[rng.random(shape) > density] = 0
    return M


NAN_PAYLOAD = np.array([0x7FF8_0000_0000_0123], "<u8").view("<f8")[0]
MATRICES = {
    **{f"random-{r}x{c}-density{d}": (lambda r=r, c=c, d=d: _patterned((r, c), d, seed=r * c))
       for r, c in [(1, 1), (3, 4), (4, 3), (7, 9), (16, 16)] for d in (0.1, 0.5, 0.9)},
    "specials": lambda: np.array([[NAN_PAYLOAD, -0.0, np.inf], [-np.inf, 0, 1e-310],
                                  [complex(0, -0.0), complex(-0.0, -0.0), complex(np.nan, -np.inf)]]),
    "all-zero": lambda: np.zeros((5, 6), complex),
    "no-zero": lambda: random_complex(np.random.default_rng(0), (5, 6)),
    "1x1-zero": lambda: np.zeros((1, 1), complex),
    "1x1": lambda: np.array([[2 - 1j]]),
    "row": lambda: _patterned((1, 17), 0.5, seed=1),
    "column": lambda: _patterned((17, 1), 0.5, seed=2),
    "empty-0x0": lambda: np.zeros((0, 0), complex),
    "empty-0x3": lambda: np.zeros((0, 3), complex),
    "empty-3x0": lambda: np.zeros((3, 0), complex),
}


class TestMatrix:
    def test_roundtrip_exact(self, rng):
        M = random_complex(rng, (3, 4))
        assert np.array_equal(matrix_from_json(matrix_to_json(M)), M)

    def test_json_native_types(self):
        doc = matrix_to_json(np.eye(2, dtype=complex))
        assert set(doc) == {"shape", "nonzero", "c16"}
        assert doc["shape"] == [2, 2] and all(type(d) is int for d in doc["shape"])
        assert type(doc["nonzero"]) is str and type(doc["c16"]) is str
        assert json.loads(json.dumps(doc)) == doc
        one = np.array([1.0, 0.0], "<f8").tobytes()  # 1 + 0j
        # entries 0 and 3 marked, most significant bit first; the zeros are not written
        assert stored(doc) == (bytes([0b1001_0000]), one + one)

    @pytest.mark.parametrize("make", list(MATRICES.values()), ids=list(MATRICES))
    def test_only_nonzero_entries_stored_bit_exact(self, make):
        M = make()
        doc = json.loads(json.dumps(matrix_to_json(M)))
        assert set(doc) == {"shape", "nonzero", "c16"} and doc["shape"] == list(M.shape)
        bitmap, entry_bytes = stored(doc)
        assert (bitmap, entry_bytes) == _reference_entry(M)
        assert len(entry_bytes) == 16 * sum(bin(b).count("1") for b in bitmap)
        back = matrix_from_json(doc)
        assert back.dtype == complex and back.shape == M.shape and back.flags.writeable
        assert back.astype("<c16").tobytes() == M.astype("<c16").tobytes()

    @pytest.mark.parametrize("make", list(MATRICES.values()), ids=list(MATRICES))
    def test_older_forms_load_to_the_same_bytes(self, make):
        M = make()
        want = M.astype("<c16").tobytes()
        assert matrix_from_json(json.loads(json.dumps(dense_entry(M)))).astype("<c16").tobytes() == want
        if M.size:  # the rows of an empty matrix do not give its shape
            assert matrix_from_json(list_entry(M)).astype("<c16").tobytes() == want

    @pytest.mark.parametrize(
        "make",
        [
            lambda M: M.T,
            lambda M: M.astype(">c16"),
            lambda M: M.real,
            lambda M: np.arange(12).reshape(3, 4),
            lambda M: M[:0],
            lambda M: np.array([[np.nan, -0.0], [np.inf, 1e-310]]) * (1 - 1j),
        ],
        ids=["transposed", "big-endian", "real", "int", "no-rows", "nan-signed-zero-subnormal"],
    )
    def test_binary_roundtrip_bit_exact(self, rng, make):
        M = make(random_complex(rng, (3, 4)))
        back = matrix_from_json(json.loads(json.dumps(matrix_to_json(M))))
        assert back.dtype == complex and back.shape == M.shape and back.flags.writeable
        assert back.astype("<c16").tobytes() == np.ascontiguousarray(M, "<c16").tobytes()

    def test_list_form_still_read(self):
        rows = [[[1.0, 2.0], [0.0, -1.5]], [[3, 0], [0.25, 0.0]]]
        assert np.array_equal(matrix_from_json(rows), np.array([[1 + 2j, -1.5j], [3, 0.25]]))

    @pytest.mark.parametrize(
        "entry",
        [
            {"shape": [1, 1], "c16": "AAAAAAAAAAAAAAAAAAAA!A=="},
            {"shape": [1, 2], "c16": base64.b64encode(bytes(16)).decode()},
            {"shape": [1, 1], "c16": "A" * 24},
            {"shape": [16], "c16": base64.b64encode(bytes(16 * 16)).decode()},
            {"shape": [1, 1, 1], "c16": base64.b64encode(bytes(16)).decode()},
            {"shape": [-1, -1], "c16": base64.b64encode(bytes(16)).decode()},
            {"shape": [1.0, 1], "c16": base64.b64encode(bytes(16)).decode()},
            {"c16": base64.b64encode(bytes(16)).decode()},
            {"shape": [1, 1]},
            {"shape": [1, 1], "c16": [0.0, 0.0]},
        ],
        ids=["bad-char", "short", "long", "1-D", "3-D", "negative", "float-dim", "no-shape", "no-c16",
             "list-c16"],
    )
    def test_malformed_binary_rejected(self, entry):
        with pytest.raises(ValueError):
            matrix_from_json(entry)

    def test_huge_shape_rejected_before_decoding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("decoded")

        monkeypatch.setattr(base64, "b64decode", refuse)
        for entry in ({"shape": [10**9, 10**9], "c16": "AAAA"},
                      {"shape": [10**9, 10**9], "nonzero": "AAAA", "c16": ""}):
            with pytest.raises(ValueError, match="cannot hold"):
                matrix_from_json(entry)

    def test_count_mismatch_refused_before_the_matrix_is_allocated(self):
        # a bitmap marking all 10^6 entries of a 16 MB matrix, and no entry bytes
        entry = {"shape": [1000, 1000], "nonzero": b64(b"\xff" * 125_000), "c16": ""}
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="'c16' of 0 characters cannot hold the 16000000 bytes"):
                matrix_from_json(entry)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda e, bits, raw: e.update(nonzero=b64(bits[:1])), "'nonzero' holds 1 bytes, not the 2"),
            (lambda e, bits, raw: e.update(nonzero=b64(bits + bytes(2))), "'nonzero' of 8 characters"),
            (lambda e, bits, raw: e.update(shape=[3, 6]), "'nonzero' holds 2 bytes, not the 3"),
            (lambda e, bits, raw: e.update(shape=[5, 5]), "'nonzero' of 4 characters"),
            (lambda e, bits, raw: e.update(nonzero=e["nonzero"].rstrip("=")), "'nonzero' of 3 characters"),
            (lambda e, bits, raw: e.update(nonzero=b64(bits[:1] + bytes([bits[1] | 1]))), "padding bits"),
            (lambda e, bits, raw: e.update(nonzero=b64(bits[:1] + bytes([bits[1] | 64]))), "padding bits"),
            (lambda e, bits, raw: e.update(c16=b64(raw[:-16])), "'c16' of 44 characters"),
            (lambda e, bits, raw: e.update(c16=b64(raw + bytes(16))), "'c16' of 88 characters"),
            (lambda e, bits, raw: e.update(c16=b64(raw[:-1])), "'c16' holds 47 bytes"),
            (lambda e, bits, raw: e.update(c16=""), "'c16' of 0 characters"),
            (lambda e, bits, raw: e.update(nonzero="!" + e["nonzero"][1:]), "'nonzero' is not strict base64"),
            (lambda e, bits, raw: e.update(c16=e["c16"][:-1] + "!"), "'c16' is not strict base64"),
            (lambda e, bits, raw: e.update(nonzero=list(bits)), "'nonzero' must be a base64 string"),
            (lambda e, bits, raw: e.update(nonzero=None), "'nonzero' must be a base64 string"),
            (lambda e, bits, raw: e.pop("c16"), "'c16' must be a base64 string"),
        ],
        ids=["bitmap-short", "bitmap-long", "bitmap-of-3x3-for-3x6", "bitmap-of-3x3-for-5x5", "bitmap-unpadded",
             "padding-bit-last", "padding-bit-first", "c16-entry-short", "c16-entry-long", "c16-byte-short",
             "c16-empty", "bitmap-bad-char", "c16-bad-char", "bitmap-list", "bitmap-null", "no-c16"],
    )
    def test_malformed_sparse_rejected(self, edit, match):
        # diag(1, 2, 3): bitmap 1000 1000 | 1000 0000 with 7 padding bits, and 48 bytes of entries
        entry = matrix_to_json(np.diag([1.0, 2.0, 3.0]))
        bits, raw = stored(entry)
        assert bits == bytes([0b1000_1000, 0b1000_0000]) and len(raw) == 48
        edit(entry, bits, raw)
        with pytest.raises(ValueError, match=match):
            matrix_from_json(entry)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json([[1.0, 2.0]])

    @pytest.mark.parametrize(
        "data",
        [[[[1.0, 2.0], [3.0]]], [[[None, 1.0]]], [[["1.5", "2"]]], [[[1.0, 2.0, 3.0]]], {}],
        ids=["ragged", "null", "strings", "triple", "object"],
    )
    def test_non_numeric_or_misshapen_rejected(self, data):
        with pytest.raises(ValueError):
            matrix_from_json(data)


class TestSuperop:
    def test_kraus_preferred(self, rng):
        ce = measured_quantum_walk(3, seed=2)
        doc = superop_to_json(ce.instrument.maps["0"])
        assert "kraus" in doc and "matrix" not in doc
        back = superop_from_json(doc)
        assert np.allclose(back.matrix, ce.instrument.maps["0"].matrix)

    def test_matrix_fallback(self, rng):
        from cereduce.operators import Superoperator

        M = Superoperator(kraus=[random_complex(rng, (2, 2))]).matrix
        S = superop_from_json({"matrix": matrix_to_json(M)})
        assert len(S.kraus) == 1
        assert np.linalg.norm(S.matrix - M) <= 1e-12 * np.linalg.norm(M)
        doc = superop_to_json(S)
        assert "kraus" in doc and "matrix" not in doc
        assert np.array_equal(superop_from_json(doc).matrix, S.matrix)

    def test_empty_entry_rejected(self):
        with pytest.raises(ValueError):
            superop_from_json({})


class TestModelDocuments:
    def test_ce_roundtrip_with_split(self):
        ce = ising_chain(4, 0.5, 0.3)
        back = ce_from_json(ce_to_json(ce))
        assert back.outcomes == ce.outcomes
        assert back.output.names == ce.output.names
        for k in ce.outcomes:
            assert np.allclose(back.instrument.maps[k].matrix, ce.instrument.maps[k].matrix)
        assert back.has_split
        assert np.allclose(back.evolution.matrix, ce.evolution.matrix)
        for O_a, O_b in zip(back.output.observables, ce.output.observables):
            assert np.array_equal(O_a, O_b)

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            ce_from_json({"outcomes": ["0"]})

    def test_each_map_written_once(self):
        # a split model writes its split, any other model its instrument, in the same place
        ce = ising_chain(4, 0.5, 0.3)
        bare = ConditionalEvolution(instrument=ce.instrument, output=ce.output)
        assert list(ce_to_json(ce)) == ["dim", "outcomes", "split", "observables"]
        assert list(ce_to_json(bare)) == ["dim", "outcomes", "instrument", "observables"]
        assert not ce_from_json(ce_to_json(bare)).has_split

    @pytest.fixture()
    def no_decoding(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a payload was decoded")

        monkeypatch.setattr(base64, "b64decode", refuse)

    def test_both_forms_refused_before_any_payload(self, no_decoding):
        ce = ising_chain(4, 0.5, 0.3)
        doc = ce_to_json(ce)
        doc["instrument"] = {k: superop_to_json(ce.instrument.maps[k]) for k in ce.outcomes}
        with pytest.raises(ValueError, match="^model document gives both 'instrument' and 'split': "):
            ce_from_json(doc)

    @pytest.mark.parametrize("form", ["split", "instrument"])
    def test_repeated_outcome_refused_before_any_payload(self, form, no_decoding):
        ce = measured_quantum_walk(3, seed=1)
        if form == "instrument":
            ce = ConditionalEvolution(instrument=ce.instrument, output=ce.output)
        doc = ce_to_json(ce)
        doc["outcomes"] = ["0", "1", "0", "2"]
        with pytest.raises(ValueError, match=r"^duplicate outcome labels in \['0', '1', '0', '2'\]$"):
            ce_from_json(doc)

    @pytest.mark.parametrize("label, entry", [
        ("observable 'identity'", lambda doc: doc["observables"][0]["matrix"]),
        ("instrument map '0'", lambda doc: doc["instrument"]["0"]["kraus"][0]),
        ("split evolution", lambda doc: doc["split"]["evolution"]["kraus"][0]),
        ("split effect '2'", lambda doc: doc["split"]["effects"]["2"]["kraus"][0]),
    ], ids=["observable", "instrument", "split_evolution", "split_effect"])
    def test_entry_of_other_shape_named(self, label, entry):
        # a 3x3 entry declared 4x3: its 2-byte bitmap and its entries fit the declared shape;
        # the instrument's entry is that of the walk given without its split
        walk = measured_quantum_walk(3, seed=1)
        if label.startswith("instrument"):
            walk = ConditionalEvolution(instrument=walk.instrument, output=walk.output)
        doc = ce_to_json(walk)
        entry(doc)["shape"] = [4, 3]
        with pytest.raises(ValueError, match=f"^{label}: shape \\[4, 3\\] is not the \\[3, 3\\] of the model's 'dim'"):
            ce_from_json(doc)

    @pytest.mark.parametrize("form, got, want", [("matrix", [1024, 1024], 256), ("kraus", [32, 32], 16)])
    def test_map_of_other_dim_refused_before_any_payload(self, form, got, want, no_decoding, monkeypatch):
        # Ising N=5's evolution in the dim-16 document of N=4: as a "matrix" it would form and
        # factor a 1024x1024 Choi matrix before its Kraus operators could be found 32x32
        def refuse(*args, **kwargs):
            raise AssertionError("a map was factored")

        monkeypatch.setattr(operators, "_kraus_from_matrix", refuse)
        doc = ce_to_json(ising_chain(4, 0.5, 0.3))
        E = ising_chain(5, 0.5, 0.3).evolution
        doc["split"]["evolution"] = {"matrix": matrix_to_json(E.matrix)} if form == "matrix" else superop_to_json(E)
        with pytest.raises(ValueError, match=re.escape(f"split evolution: shape {got} is not the [{want}, {want}] "
                                                       "of the model's 'dim'")):
            ce_from_json(doc)

    @pytest.mark.parametrize("dim", [0, 3.0, "3", None])
    def test_dim_must_be_positive_int(self, dim):
        doc = ce_to_json(measured_quantum_walk(3, seed=1))
        doc["dim"] = dim
        with pytest.raises(ValueError, match="'dim' must be a positive int"):
            ce_from_json(doc)

    def test_reduced_document_is_valid_model(self):
        ce = measured_quantum_walk(3, seed=1)
        red = reduce_ce(ce, seed=0)
        doc = reduced_ce_to_json(red)
        assert set(doc["reduction"]) >= {"R", "blocks", "seed", "tol"} and "U" not in doc["reduction"]
        back = ce_from_json(doc)
        assert back.dim == red.model.dim
        R = matrix_from_json(doc["reduction"]["R"])
        assert np.array_equal(R, red.reduction_map.matrix)

    @pytest.mark.parametrize("name", list(SPLIT_MODELS))
    def test_r_is_written_as_u_and_its_blocks(self, name):
        red = reduce_ce(SPLIT_MODELS[name](), seed=0)
        text = json.dumps(reduced_ce_to_json(red))
        R = json.loads(text)["reduction"]["R"]
        assert set(R) == {"shape", "blocks", "U"}
        assert R["blocks"] == [list(b) for b in red.blocks]
        assert text.count(R["U"]["c16"]) == 1
        # rebuilt as the same Kraus list, in order, and as the same matrix, bit for bit
        S = reduction_map_from_json(R, tuple(R["shape"]))
        assert len(S.kraus) == len(red.reduction_map.kraus)
        assert all(np.array_equal(A, B) for A, B in zip(S.kraus, red.reduction_map.kraus))
        M = matrix_from_json(R)
        assert M.flags.writeable
        assert np.array_equal(M, red.reduction_map.matrix)

    @pytest.mark.parametrize("shape", [[16, 256], [256, 64], [64, 256, 1], [64.0, 256], None],
                             ids=["rows", "transposed", "3-D", "float", "none"])
    def test_kraus_entry_shape_must_be_the_lists(self, monkeypatch, shape):
        red = reduce_ce(ising_chain(4, 0.5, 0.3), seed=0)
        # R as its Kraus list, the form files held before R was written as U and its blocks:
        # refused whatever its shape, and before any of its operators is decoded
        R = {"shape": shape, **superop_to_json(red.reduction_map)}

        def refuse(*args, **kwargs):
            raise AssertionError("a Kraus operator of R was decoded")

        monkeypatch.setattr(base64, "b64decode", refuse)
        for pair in ((64, 256), (16, 256), (256, 64)):
            with pytest.raises(ValueError, match="R written as its Kraus list.*re-run `cereduce reduce`"):
                reduction_map_from_json(R, pair)


def _blocks_entry():
    """The {"shape", "blocks", "U"} R of Ising N=4 p=0.5: blocks [[4, 2], [4, 2]], U 16x16."""
    R = reduced_ce_to_json(reduce_ce(ising_chain(4, 0.5, 0.3), seed=0))["reduction"]["R"]
    assert R["shape"] == [64, 256] and R["blocks"] == [[4, 2], [4, 2]] and R["U"]["shape"] == [16, 16]
    return R


def _set(key, value):
    def edit(R):
        R[key] = value
    return edit


def _set_u_shape(shape):
    def edit(R):
        R["U"]["shape"] = shape
    return edit


class TestBlocksEntry:
    """R given as U and its blocks is checked before U's payload is decoded."""

    @pytest.mark.parametrize(
        "edit, match",
        [
            (_set("blocks", None), "blocks"),
            (_set("blocks", []), "blocks"),
            (_set("blocks", [[4, 2], [4]]), "blocks"),
            (_set("blocks", [[4, 2], [4, 2, 1]]), "blocks"),
            (_set("blocks", [[4, 2], [4, 0]]), "blocks"),
            (_set("blocks", [[4, 2], [-4, 2]]), "blocks"),
            (_set("blocks", [[4, 2], [4, 2.0]]), "blocks"),
            (_set("blocks", [[4, 2], [True, 2]]), "blocks"),
            (_set("blocks", [[4, 2], "42"]), "blocks"),
            (_set("blocks", [[4, 2], [2, 4]]), "shape"),
            (_set("blocks", [[4, 2], [4, 1]]), "shape"),
            (_set("blocks", [[2, 4], [6, 1]]), "shape"),
            (_set_u_shape([16, 8]), "'U' shape"),
            (_set_u_shape([8, 32]), "'U' shape"),
            (_set_u_shape(None), "shape"),
            (lambda R: R.pop("U"), "'U'"),
        ],
        ids=["none", "empty", "single", "triple", "zero", "negative", "float", "bool", "string",
             "sum-d_S", "sum-d_S-d_F", "same-D-other-n", "u-rows", "u-square-size", "u-no-shape", "no-u"],
    )
    def test_refused_before_any_payload(self, monkeypatch, edit, match):
        R = _blocks_entry()
        edit(R)

        def refuse(*args, **kwargs):
            raise AssertionError("U was decoded")

        monkeypatch.setattr(base64, "b64decode", refuse)
        for read in (matrix_from_json, lambda data: reduction_map_from_json(data, (64, 256))):
            with pytest.raises(ValueError, match=match):
                read(R)

    def test_u_as_lists_loads_and_its_shape_is_checked(self):
        R = _blocks_entry()
        want = matrix_from_json(R)
        U = matrix_from_json(R["U"])
        R["U"] = np.stack([U.real, U.imag], -1).tolist()
        assert np.array_equal(matrix_from_json(R), want)
        S = reduction_map_from_json(R, (64, 256))
        assert np.array_equal(S.matrix, want)
        R["U"] = R["U"][:8]
        for read in (matrix_from_json, lambda data: reduction_map_from_json(data, (64, 256))):
            with pytest.raises(ValueError, match="'U' shape"):
                read(R)


def matrix_form(ce) -> dict:
    """The split model's document with every split map as a dense "matrix" entry."""
    def dense(S):
        return {"matrix": matrix_to_json(S.matrix)}

    doc = ce_to_json(ce)
    doc["split"] = {"evolution": dense(ce.evolution), "effects": {k: dense(ce.effects[k]) for k in ce.outcomes}}
    return doc


class TestMatrixFormModel:
    """Ising N=4 read from dense "matrix" entries reduces as it does from Kraus lists."""

    @pytest.mark.parametrize(
        "p, dims, blocks",
        [(0.0, (12, 16, 16), ((2, 2),) * 4), (0.5, (18, 32, 32), ((4, 2),) * 2)],
        ids=["p0", "p0.5"],
    )
    def test_reduces_like_the_kraus_file(self, p, dims, blocks):
        ising = ising_chain(4, p, 0.3)
        ce = ce_from_json(matrix_form(ising))
        maps = [*ce.instrument.maps.values(), ce.evolution, *ce.effects.values()]
        assert all(len(S.kraus) == 1 for S in maps)  # every Ising map has Choi rank 1
        assert validate_ce(ce).ok
        red = reduce_ce(ce, seed=0)
        assert (red.nperp.dim, red.output_algebra.dim, red.reduced_dim) == dims
        assert red.blocks == blocks
        rep = equivalence_check(ce_from_json(ce_to_json(ising)), red, max_len=3, n_states=5, seed=0)
        assert rep.passed


ZOO_MODELS = {
    **{f"ising{N}_p{p}": (lambda N=N, p=p: ising_chain(N, p, 0.3)) for N in (4, 5, 6) for p in (0.0, 0.5)},
    **{f"walk{n}": (lambda n=n: measured_quantum_walk(n)) for n in range(3, 7)},
}


def _assert_only_nonzero_entries_stored(doc):
    entries = list(_entries(json.loads(json.dumps(doc))))
    assert entries
    for entry in entries:
        assert set(entry) == {"shape", "nonzero", "c16"}
        M = matrix_from_json(entry)
        assert stored(entry) == _reference_entry(M)
    return entries


class TestStoredEntries:
    """Every matrix a model or reduced file holds is stored as 16 bytes per nonzero entry."""

    @pytest.mark.parametrize("name", list(ZOO_MODELS))
    def test_zoo_model(self, name):
        entries = _assert_only_nonzero_entries_stored(ce_to_json(ZOO_MODELS[name]()))
        if name.startswith("ising"):
            # U P_k, the effects and the Pauli observables are at least half zeros
            written = sum(len(stored(e)[1]) for e in entries)
            assert written <= 0.5 * sum(16 * r * c for r, c in (e["shape"] for e in entries))

    @pytest.mark.parametrize("name", list(SPLIT_MODELS))
    def test_reduced_model(self, name):
        red = reduce_ce(SPLIT_MODELS[name](), seed=0)
        doc = reduced_ce_to_json(red)
        _assert_only_nonzero_entries_stored(doc)
        assert set(doc["reduction"]["R"]["U"]) == {"shape", "nonzero", "c16"}


class TestDenseFiles:
    """Ising N=4 p=0.5 and its reduction in tests/data, written by ``cereduce zoo ising --n 4
    --p 0.5 --delta 0.3`` and ``cereduce reduce`` when every entry was written in the dense
    {"shape", "c16"} form."""

    @pytest.fixture(scope="class")
    def docs(self):
        return load_json(str(DATA / "dense_ising4.json")), load_json(str(DATA / "dense_ising4.red.json"))

    def test_model_gives_both_forms_and_is_refused(self, docs):
        model, _ = docs
        assert "instrument" in model and "split" in model
        with pytest.raises(ValueError, match="gives both 'instrument' and 'split'"):
            ce_from_json(model)

    def test_every_entry_is_dense_and_loads_to_its_bytes(self, docs):
        entries = [e for doc in docs for e in _entries(doc)]
        # the model's 3 instrument maps, its split and 4 observables; the reduced
        # model's 2 Kraus operators per outcome, 4 observables and U
        assert len(entries) == (3 + 1 + 3 + 4) + (3 * 2 + 4 + 1)
        for entry in entries:
            assert set(entry) == {"shape", "c16"}
            M = matrix_from_json(entry)
            assert M.astype("<c16").tobytes() == base64.b64decode(entry["c16"])
            assert matrix_from_json(matrix_to_json(M)).astype("<c16").tobytes() == base64.b64decode(entry["c16"])

    def test_rewritten_sparse_loads_to_the_same_model(self, docs):
        # the model read without its instrument, which its split gives
        model, reduced = docs
        model = {k: v for k, v in model.items() if k != "instrument"}
        for doc, new in ((d, json.loads(json.dumps(ce_to_json(ce_from_json(d))))) for d in (model, reduced)):
            a, b = ce_from_json(doc), ce_from_json(new)
            assert a.outcomes == b.outcomes and a.output.names == b.output.names
            if a.has_split:
                maps = [(a.evolution, b.evolution), *zip(a.effects.values(), b.effects.values())]
            else:
                maps = [*zip(a.instrument.maps.values(), b.instrument.maps.values())]
            pairs = [*zip(a.output.observables, b.output.observables)]
            for S, T in maps:
                pairs += zip(S.kraus, T.kraus)
            assert len(pairs) == len(list(_entries(doc))) - ("reduction" in doc)
            assert all(A.tobytes() == B.tobytes() for A, B in pairs)

    def test_r_rebuilt_as_from_the_sparse_u(self, docs):
        _, reduced = docs
        R = reduced["reduction"]["R"]
        sparse = {**R, "U": matrix_to_json(matrix_from_json(R["U"]))}
        kraus = [reduction_map_from_json(entry, (64, 256)).kraus for entry in (R, sparse)]
        assert len(kraus[0]) == len(kraus[1]) == 4
        assert all(A.tobytes() == B.tobytes() for A, B in zip(*kraus))


class TestFiles:
    def test_save_load_roundtrip(self, tmp_path):
        ce = measured_quantum_walk(3, seed=1)
        path = tmp_path / "model.json"
        save_json(ce_to_json(ce), str(path))
        back = ce_from_json(load_json(str(path)))
        for k in ce.outcomes:
            assert np.array_equal(back.instrument.maps[k].matrix, ce.instrument.maps[k].matrix)

    def test_no_temp_residue(self, tmp_path):
        save_json({"a": 1}, str(tmp_path / "x.json"))
        assert [p.name for p in tmp_path.iterdir()] == ["x.json"]

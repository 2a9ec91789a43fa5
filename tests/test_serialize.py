import base64
import json

import numpy as np
import pytest

from cereduce.model import validate_ce
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
from conftest import SPLIT_MODELS, random_complex


class TestMatrix:
    def test_roundtrip_exact(self, rng):
        M = random_complex(rng, (3, 4))
        assert np.array_equal(matrix_from_json(matrix_to_json(M)), M)

    def test_json_native_types(self):
        doc = matrix_to_json(np.eye(2, dtype=complex))
        assert set(doc) == {"shape", "c16"}
        assert doc["shape"] == [2, 2] and all(type(d) is int for d in doc["shape"])
        assert type(doc["c16"]) is str
        assert json.loads(json.dumps(doc)) == doc
        one = np.array([1.0, 0.0], "<f8").tobytes()  # 1 + 0j
        assert base64.b64decode(doc["c16"]) == one + bytes(32) + one

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
        with pytest.raises(ValueError, match="cannot hold"):
            matrix_from_json({"shape": [10**9, 10**9], "c16": "AAAA"})

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
    def test_kraus_entry_shape_must_be_the_lists(self, shape):
        red = reduce_ce(ising_chain(4, 0.5, 0.3), seed=0)
        # R as its Kraus list, the form files held before R was written as U and its blocks
        R = {"shape": [64, 256], **superop_to_json(red.reduction_map)}
        assert np.array_equal(matrix_from_json(R), red.reduction_map.matrix)
        R["shape"] = shape
        for read in (matrix_from_json, lambda data: reduction_map_from_json(data, (64, 256))):
            with pytest.raises(ValueError, match="shape"):
                read(R)
        if shape in ([16, 256], [256, 64]):
            # a model pair of that shape: the list itself refuses the shape
            with pytest.raises(ValueError, match="Kraus operators"):
                reduction_map_from_json(R, tuple(shape))


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
    """The split model's document with every instrument and split map as a dense "matrix" entry."""
    def dense(S):
        return {"matrix": matrix_to_json(S.matrix)}

    doc = ce_to_json(ce)
    doc["instrument"] = {k: dense(ce.instrument.maps[k]) for k in ce.outcomes}
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

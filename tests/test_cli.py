import base64
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from cereduce import algebra, cli, observability, operators
from cereduce.algebra import DegenerateAlgebraError
from cereduce.cli import build_parser, cmd_zoo, main
from cereduce.model import ConditionalEvolution, Instrument, OutputMap
from cereduce.operators import Superoperator
from cereduce.reduction import STEP_DEFECT_CUT, reduce_ce
from cereduce.serialize import (
    ce_from_json,
    ce_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    reduced_ce_to_json,
    save_json,
    superop_to_json,
)
from cereduce.trajectories import WORD_CAP, StateEscapedError, sample_trajectory
from cereduce.zoo import ising_chain, measured_quantum_walk
from conftest import b64, dense_entry, list_entry, stored, swap3_ce, vec

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def walk_files(tmp_path):
    model = tmp_path / "walk.json"
    reduced = tmp_path / "walk.red.json"
    assert main(["zoo", "walk", "--n", "3", "--seed", "1", "-o", str(model)]) == 0
    assert main(["reduce", str(model), "-o", str(reduced)]) == 0
    return model, reduced


class TestZoo:
    def test_walk_emits_model(self, tmp_path):
        out = tmp_path / "m.json"
        assert main(["zoo", "walk", "--n", "4", "-o", str(out)]) == 0
        doc = load_json(str(out))
        assert doc["dim"] == 4 and len(doc["outcomes"]) == 4
        assert "split" in doc and "instrument" not in doc

    def test_ising_emits_split_model(self, tmp_path):
        out = tmp_path / "i.json"
        assert main(["zoo", "ising", "--n", "4", "--p", "0.5", "--delta", "0.3", "-o", str(out)]) == 0
        doc = load_json(str(out))
        assert doc["dim"] == 16 and "split" in doc
        # each map once: the instrument is composed from the split on loading
        assert "instrument" not in doc
        assert list(doc) == ["dim", "outcomes", "split", "observables"]
        assert doc["outcomes"] == ["-1", "0", "1"] == list(doc["split"]["effects"])

    def test_ising_too_short_exit2(self, tmp_path):
        code = main(["zoo", "ising", "--n", "3", "--p", "0.0", "--delta", "0.3", "-o", str(tmp_path / "x.json")])
        assert code == 2

    def test_ising_too_large_to_allocate_exit2(self, tmp_path, capsys):
        # numpy refuses the 16 PiB Hamiltonian of N=25 without allocating it
        out = tmp_path / "x.json"
        assert main(["zoo", "ising", "--n", "25", "--p", "0", "--delta", "0.3", "-o", str(out)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: Unable to allocate")
        assert not out.exists()

    def test_ising_rejects_seed(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["zoo", "ising", "--n", "4", "--p", "0.0", "--delta", "0.3",
                  "-o", str(tmp_path / "x.json"), "--seed", "1"])
        assert exc.value.code == 2

    def test_walk_tol_reaches_genericity_check(self, tmp_path, monkeypatch):
        tols = []
        real = cli.measured_quantum_walk

        def spy(*args, **kwargs):
            tols.append(kwargs["tol"])
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "measured_quantum_walk", spy)
        assert main(["zoo", "walk", "--n", "3", "--tol", "1e-7", "-o", str(tmp_path / "w.json")]) == 0
        assert tols == [1e-7]

    def test_hadamard_requires_n2(self, tmp_path):
        code = main(["zoo", "walk", "--n", "3", "--hadamard", "-o", str(tmp_path / "x.json")])
        assert code == 2


class TestReduce:
    def test_reduced_file_has_provenance(self, walk_files):
        _, reduced = walk_files
        doc = load_json(str(reduced))
        assert doc["reduction"]["reduced_operator_dim"] == 3
        assert set(doc["reduction"]["R"]) == {"shape", "blocks", "U"} and "U" not in doc["reduction"]

    def test_json_report(self, tmp_path, capsys):
        model = tmp_path / "m.json"
        main(["zoo", "walk", "--n", "3", "-o", str(model)])
        capsys.readouterr()
        assert main(["reduce", str(model), "--report", "json", "-o", str(tmp_path / "r.json")]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        assert report["reduced_operator_dim"] == 3
        assert report["assumptions"]["a3"]["holds"]

    def test_rank_cuts_in_report_and_file(self, tmp_path, capsys):
        model, reduced = tmp_path / "ising.json", tmp_path / "ising.red.json"
        assert main(["zoo", "ising", "--n", "4", "--p", "0.5", "--delta", "0.3", "-o", str(model)]) == 0
        capsys.readouterr()
        assert main(["reduce", str(model), "--report", "json", "-o", str(reduced)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        cuts = report["rank_cuts"]
        doc = load_json(str(reduced))
        assert doc["reduction"]["rank_cuts"] == cuts
        assert list(cuts) == doc["outcomes"]
        for k, cut in cuts.items():
            assert cut["kraus_ops"] == len(doc["instrument"][k]["kraus"]) == 2
            assert 0 <= cut["dropped_over_kept"] < 1e-10
        # the decomposition's certificate, in the report, the file and the text report
        bound = report["structure_bound"]
        assert doc["reduction"]["structure_bound"] == bound
        assert 0 < bound <= 1e-10
        assert main(["reduce", str(model), "-o", str(tmp_path / "again.red.json")]) == 0
        assert f"structure bound {bound:.3e}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("split", [True, False], ids=["ising4", "swap3"])
    def test_nperp_margin_in_report_not_in_file(self, split, tmp_path, capsys):
        model, reduced = tmp_path / "m.json", tmp_path / "m.red.json"
        if split:
            assert main(["zoo", "ising", "--n", "4", "--p", "0.5", "--delta", "0.3", "-o", str(model)]) == 0
        else:
            save_json(ce_to_json(swap3_ce()), str(model))
        capsys.readouterr()
        assert main(["reduce", str(model), "--report", "json", "-o", str(reduced)]) == 0
        out = capsys.readouterr().out
        report = json.loads(out[: out.rindex("}") + 1])
        margin = report["nperp_margin"]
        assert list(margin) == ["kept", "dropped"] and 0 <= margin["dropped"] < margin["kept"]
        assert ("assumptions" in report) == split
        assert "nperp_margin" not in reduced.read_text()
        assert main(["reduce", str(model), "-o", str(reduced)]) == 0
        assert (f"observable subspace margin: smallest kept residual {margin['kept']:.3e}, "
                f"largest dropped {margin['dropped']:.3e}") in capsys.readouterr().out.splitlines()

    def test_ising5_file_holds_no_dense_map(self, tmp_path):
        # R as U (32x32) and its blocks; its dense (64, 1024) matrix alone took 1.4 MB, and its
        # 8 Kraus operators of 8x32 with U beside them 0.08 MB
        model, reduced = tmp_path / "ising.json", tmp_path / "ising.red.json"
        assert main(["zoo", "ising", "--n", "5", "--p", "0.5", "--delta", "0.3", "-o", str(model)]) == 0
        assert main(["reduce", str(model), "-o", str(reduced)]) == 0
        R = load_json(str(reduced))["reduction"]["R"]
        assert R["shape"] == [64, 1024] and R["blocks"] == [[4, 4], [4, 4]] and R["U"]["shape"] == [32, 32]
        assert reduced.stat().st_size < 0.05e6
        # zero entries are not written: every entry's bytes took 241 KB
        assert model.stat().st_size < 0.1e6

    def test_degenerate_algebra_exit3(self, walk_files, tmp_path, monkeypatch, capsys):
        def degenerate(*args):
            raise DegenerateAlgebraError("eigenspaces not separated")

        monkeypatch.setattr(algebra, "_wedderburn_attempt", degenerate)
        model, _ = walk_files
        capsys.readouterr()
        assert main(["reduce", str(model), "-o", str(tmp_path / "r.json")]) == 3
        err = capsys.readouterr().err
        assert "error:" in err and "eigenspaces not separated" in err
        assert not (tmp_path / "r.json").exists()

    def test_missing_file_exit2(self, tmp_path):
        assert main(["reduce", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("command", ["reduce", "verify", "simulate"])
    @pytest.mark.parametrize(
        "payload",
        [b"{not json", b"\xff\xfe\x00bad", b"[" * 100000 + b"]" * 100000],
        ids=["syntax", "not_utf8", "nested_past_recursion_limit"],
    )
    def test_malformed_json_exit2(self, command, payload, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(payload)
        args = [command, str(bad)] + ([str(bad)] if command == "verify" else [])
        capsys.readouterr()
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err

    def test_invalid_model_exit2(self, tmp_path, walk_files):
        model, _ = walk_files
        doc = load_json(str(model))
        # break normalization by dropping an outcome's map
        doc["outcomes"] = doc["outcomes"][:-1]
        bad = tmp_path / "unnormalized.json"
        save_json(doc, str(bad))
        assert main(["reduce", str(bad)]) == 2

    def test_split_failure_named_exit2(self, tmp_path, capsys):
        # a split file that gives an instrument too, as files did before the instrument
        # was composed on loading
        ce = ising_chain(4, 0.0, 0.3)
        doc = ce_to_json(ce)
        doc["instrument"] = {k: superop_to_json(ce.instrument.maps[k]) for k in ce.outcomes}
        bad = _write(tmp_path / "both.json", doc)
        capsys.readouterr()
        assert main(["reduce", bad]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: invalid model document: model document gives both "
                              "'instrument' and 'split'")
        assert "re-run `cereduce zoo` or drop the 'instrument'" in err
        assert not (tmp_path / "both.red.json").exists()


class TestVerify:
    def test_pass(self, walk_files, capsys):
        model, reduced = walk_files
        capsys.readouterr()
        assert main(["verify", str(model), str(reduced)]) == 0
        out = capsys.readouterr().out
        dropped = float(out.split("reduced realization: largest dropped residual ")[1].split()[0])
        assert dropped <= 1e-12

    def test_pass_with_tv(self, walk_files):
        model, reduced = walk_files
        assert main(["verify", str(model), str(reduced), "--tv", "3"]) == 0

    def test_file_with_composed_maps_passes(self, tmp_path):
        # reduced files written before the maps were cut to their Choi rank carry
        # every composed product A K B, (sum d_F)^2 = 64 per outcome here, and no rank cuts
        ce = ising_chain(4, 0.0, 0.3)
        red = reduce_ce(ce)
        fact = red.factorization
        maps = {k: fact.R @ ce.instrument.maps[k] @ fact.J for k in ce.outcomes}
        old = dataclasses.replace(red.model, instrument=Instrument(outcomes=ce.outcomes, maps=maps))
        doc = reduced_ce_to_json(dataclasses.replace(red, model=old))
        del doc["reduction"]["rank_cuts"]
        assert {len(doc["instrument"][k]["kraus"]) for k in ce.outcomes} == {64}
        model, reduced = tmp_path / "ising.json", tmp_path / "ising.red.json"
        save_json(ce_to_json(ce), str(model))
        save_json(doc, str(reduced))
        assert main(["verify", str(model), str(reduced), "--tv", "3"]) == 0
        assert main(["simulate", str(reduced), "--samples", "5", "-o", str(tmp_path / "t.jsonl")]) == 0

    def test_tampered_reduced_exit1(self, tmp_path, walk_files):
        model, reduced = walk_files
        doc = load_json(str(reduced))
        k = doc["outcomes"][0]
        entry = doc["instrument"][k]
        tampered = [matrix_from_json(K) for K in entry["kraus"]]
        for K in tampered:
            K[0, 0] += 0.05
        entry["kraus"] = [matrix_to_json(K) for K in tampered]
        bad = tmp_path / "tampered.json"
        save_json(doc, str(bad))
        assert main(["verify", str(model), str(bad)]) == 1

    def test_mismatched_pair_refused_before_factoring(self, tmp_path, monkeypatch, capsys):
        model, reduced = tmp_path / "ising4.json", tmp_path / "ising5.red.json"
        save_json(ce_to_json(ising_chain(4, 0.5, 0.3)), str(model))
        save_json(reduced_ce_to_json(reduce_ce(ising_chain(5, 0.5, 0.3))), str(reduced))

        def refuse(*args, **kwargs):
            raise AssertionError("R was factored before its shape was checked")

        monkeypatch.setattr(operators, "_kraus_from_matrix", refuse)
        capsys.readouterr()
        assert main(["verify", str(model), str(reduced)]) == 2
        assert "do not match" in capsys.readouterr().err

    def test_declared_shape_checked_before_any_payload_of_r(self, tmp_path, walk_files, monkeypatch, capsys):
        model, reduced = walk_files
        doc = load_json(str(reduced))
        R = doc["reduction"]["R"]
        assert R["shape"] == [9, 9]
        R["shape"] = [9, 16]
        bad = _write(tmp_path / "reshaped.json", doc)
        payload_of_u = R["U"]["c16"]
        decode = base64.b64decode

        def spy(payload, *args, **kwargs):
            assert payload != payload_of_u, "U was decoded"
            return decode(payload, *args, **kwargs)

        monkeypatch.setattr(base64, "b64decode", spy)
        capsys.readouterr()
        assert main(["verify", str(model), bad]) == 2
        err = capsys.readouterr().err
        assert "invalid reduction map" in err and "[9, 16]" in err

    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("blocks", [[1, 1], [1, 1], [0, 1]], "'blocks' must be a list of positive int pairs"),
            ("blocks", [[1, 1], [1, 1], [1, 2]], "is not the (D^2, n^2) = [9, 16] of its blocks"),
            ("U", [4, 4], "'U' shape [4, 4] is not the (3, 3) of its blocks"),
        ],
        ids=["zero-d_S", "sums", "u-shape"],
    )
    def test_blocks_and_u_checked_before_u_is_decoded(self, tmp_path, walk_files, monkeypatch, capsys,
                                                        key, value, match):
        model, reduced = walk_files
        doc = load_json(str(reduced))
        R = doc["reduction"]["R"]
        assert R["shape"] == [9, 9] and R["blocks"] == [[1, 1]] * 3 and R["U"]["shape"] == [3, 3]
        if key == "U":
            R["U"]["shape"] = value
        else:
            R[key] = value
        bad = _write(tmp_path / "bad_blocks.json", doc)
        payload_of_u = R["U"]["c16"]
        decode = base64.b64decode

        def spy(payload, *args, **kwargs):
            assert payload != payload_of_u, "U was decoded"
            return decode(payload, *args, **kwargs)

        monkeypatch.setattr(base64, "b64decode", spy)
        capsys.readouterr()
        assert main(["verify", str(model), bad]) == 2
        err = capsys.readouterr().err
        assert "invalid reduction map" in err and match in err

    @pytest.mark.parametrize("form, name", [("kraus", "its Kraus list"), ("dense", "a dense matrix"),
                                            ("lists", "a dense matrix")], ids=["kraus_list", "dense", "lists"])
    def test_older_forms_of_r_refused_before_any_payload(self, tmp_path, monkeypatch, capsys, form, name):
        # R as its Kraus list, with U beside it, or as its dense matrix in the base64 or the
        # [re, im] form: the forms files held before R was written as U and its blocks
        model = tmp_path / "ising.json"
        ce = ising_chain(4, 0.5, 0.3)
        red = reduce_ce(ce)
        save_json(ce_to_json(ce), str(model))
        doc = reduced_ce_to_json(red)
        R = doc["reduction"]["R"]
        if form == "kraus":
            doc["reduction"]["R"] = {"shape": R["shape"], **superop_to_json(red.reduction_map)}
            doc["reduction"]["U"] = R["U"]
        else:
            doc["reduction"]["R"] = (dense_entry if form == "dense" else list_entry)(red.reduction_map.matrix)
        old = _write(tmp_path / "old.red.json", doc)
        payloads = _c16_payloads(doc["reduction"])
        decode = base64.b64decode

        def spy(payload, *args, **kwargs):
            assert payload not in payloads, "an entry of R was decoded"
            return decode(payload, *args, **kwargs)

        monkeypatch.setattr(base64, "b64decode", spy)
        capsys.readouterr()
        assert main(["verify", str(model), old, "--tv", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {old}: invalid reduction map: ")
        assert f"R written as {name}" in err and "re-run `cereduce reduce` on the full model" in err

    def test_mismatched_split_exit2(self, tmp_path, monkeypatch, capsys):
        # the instrument beside a split whose effects of outcomes "0" and "1" are swapped:
        # refused for giving both, before any payload is decoded
        ce = ising_chain(4, 0.5, 0.3)
        model, reduced = tmp_path / "m.json", tmp_path / "m.red.json"
        save_json(ce_to_json(ce), str(model))
        assert main(["reduce", str(model), "-o", str(reduced)]) == 0
        doc = ce_to_json(ce)
        effects = doc["split"]["effects"]
        effects["0"], effects["1"] = effects["1"], effects["0"]
        doc["instrument"] = {k: superop_to_json(ce.instrument.maps[k]) for k in ce.outcomes}
        swapped = _write(tmp_path / "bad.json", doc)
        decoded = []
        decode = base64.b64decode
        monkeypatch.setattr(base64, "b64decode", lambda *a, **kw: (decoded.append(1), decode(*a, **kw))[1])
        for argv in (["reduce", swapped, "-o", str(tmp_path / "bad.red.json")],
                     ["verify", swapped, str(reduced)]):
            capsys.readouterr()
            assert main(argv) == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1
            assert err[0].startswith(f"error: {swapped}: invalid model document: model document gives both "
                                     "'instrument' and 'split'")
        assert not decoded
        assert not (tmp_path / "bad.red.json").exists()

    def test_reduced_outcomes_in_another_order(self, tmp_path):
        model, reduced = tmp_path / "m.json", tmp_path / "m.red.json"
        assert main(["zoo", "ising", "--n", "4", "--p", "0.5", "--delta", "0.3", "-o", str(model)]) == 0
        assert main(["reduce", str(model), "-o", str(reduced)]) == 0
        doc = load_json(str(reduced))
        doc["outcomes"] = doc["outcomes"][::-1]
        permuted = _write(tmp_path / "permuted.red.json", doc)
        assert main(["verify", str(model), permuted, "--tv", "3"]) == 0

    def test_full_model_without_reduction_exit2(self, walk_files):
        model, _ = walk_files
        assert main(["verify", str(model), str(model)]) == 2

    def test_one_outcome_tv_past_word_cap_exit2(self, tmp_path, monkeypatch, capsys):
        # one outcome: the --tv table's tree to length T has T + 1 nodes, each a level product
        model, reduced = tmp_path / "walk1.json", tmp_path / "walk1.red.json"
        assert main(["zoo", "walk", "--n", "1", "-o", str(model)]) == 0
        assert main(["reduce", str(model), "-o", str(reduced)]) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("a closure ran before the node count was checked")

        # the cap is checked before either model's realization is closed
        monkeypatch.setattr(observability, "hermitian_closure", refuse)
        capsys.readouterr()
        assert main(["verify", str(model), str(reduced), "--tv", "3000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --tv 3000000: ")
        assert f"more than WORD_CAP = {WORD_CAP} nodes" in err
        monkeypatch.undo()
        assert main(["verify", str(model), str(reduced), "--tv", "3"]) == 0

    def test_prints_root_step_and_dropped_residual(self, walk_files, capsys):
        model, reduced = walk_files
        capsys.readouterr()
        assert main(["verify", str(model), str(reduced)]) == 0
        root, step, dropped, verdict = capsys.readouterr().out.splitlines()
        assert root.startswith("root: max deviation ") and root.endswith(", at every state before any step")
        # the walk n=3 realization has 3 elements, each compared under each of the 3 outcomes
        assert step.startswith("step: defect ") and step.endswith(", cut 1e-11, over 9 pairs of basis element and outcome")
        assert float(step.split()[2].rstrip(",")) <= STEP_DEFECT_CUT / 10
        assert dropped.startswith("reduced realization: largest dropped residual ")
        assert verdict == "verification passed"

    def test_examined_words_within_tol_can_fail(self, tmp_path, capsys):
        # a reduced map that leaks 3e-9 a step: exact at the root, and every word --tv 3
        # examines is within --tol, but far down the chain the deviation nears 1
        ce = ConditionalEvolution(
            instrument=Instrument(outcomes=("0",), maps={"0": Superoperator(kraus=[np.eye(2)])}),
            output=OutputMap(names=("identity",), observables=(np.eye(2, dtype=complex),)),
        )
        model, reduced = tmp_path / "m.json", tmp_path / "m.red.json"
        save_json(ce_to_json(ce), model)
        assert main(["reduce", str(model)]) == 0
        doc = load_json(reduced)
        doc["instrument"]["0"] = superop_to_json(Superoperator(kraus=[np.sqrt([[1 - 3e-9]])]))
        save_json(doc, reduced)
        capsys.readouterr()
        assert main(["verify", str(model), str(reduced), "--tv", "3"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert float(out[0].split()[3].rstrip(",")) <= 1e-15
        assert float(out[1].split()[2].rstrip(",")) == pytest.approx(3e-9, rel=1e-6)
        assert float(out[3].split()[-1]) <= 1e-8
        assert out[-1] == "verification FAILED"


def _c16_payloads(doc):
    """The "c16" strings of every matrix entry in a JSON document; a bitmap may be shared
    with another matrix, but the entries' bytes are not."""
    if isinstance(doc, dict):
        return {doc["c16"]} if "c16" in doc else _c16_payloads(list(doc.values()))
    if isinstance(doc, list):
        return {s for v in doc for s in _c16_payloads(v)}
    return set()


def _list_form(doc):
    """The document with every base64 matrix entry, sparse or dense, rewritten as rows of [re, im] pairs."""
    if isinstance(doc, dict):
        if "c16" in doc:
            return list_entry(matrix_from_json(doc))
        return {k: _list_form(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_list_form(v) for v in doc]
    return doc


class TestListForm:
    """Files whose matrices are nested [re, im] lists, as written before the base64 form."""

    @pytest.fixture()
    def ising_files(self, tmp_path):
        model, reduced = tmp_path / "ising.json", tmp_path / "ising.red.json"
        assert main(["zoo", "ising", "--n", "4", "--p", "0.5", "--delta", "0.3", "-o", str(model)]) == 0
        assert main(["reduce", str(model), "-o", str(reduced)]) == 0
        old = [_write(tmp_path / f"old.{model.name}", _list_form(load_json(str(model)))),
               _write(tmp_path / f"old.{reduced.name}", _list_form(load_json(str(reduced))))]
        # every matrix was rewritten, R's U as rows of [re, im] pairs too
        assert all('"c16"' in open(new).read() and '"c16"' not in open(path).read()
                   for new, path in zip((model, reduced), old))
        return (str(model), str(reduced)), old

    def test_reduce_writes_the_same_file(self, tmp_path, ising_files):
        (_, reduced), (old_model, _) = ising_files
        out = tmp_path / "again.red.json"
        assert main(["reduce", old_model, "-o", str(out)]) == 0
        assert out.read_text() == open(reduced).read()

    def test_verify_passes(self, ising_files):
        (model, _), (old_model, old_reduced) = ising_files
        assert main(["verify", model, old_reduced, "--tv", "3"]) == 0
        assert main(["verify", old_model, old_reduced]) == 0

    def test_simulate_writes_the_same_records(self, tmp_path, ising_files):
        (_, reduced), (_, old_reduced) = ising_files
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        assert main(["simulate", reduced, "--samples", "50", "--seed", "4", "-o", str(new)]) == 0
        assert main(["simulate", old_reduced, "--samples", "50", "--seed", "4", "-o", str(old)]) == 0
        assert new.read_text() == old.read_text()


def _sparse_form(doc):
    """The document with every dense {"shape", "c16"} entry rewritten by the writer."""
    if isinstance(doc, dict):
        if set(doc) == {"shape", "c16"}:
            return matrix_to_json(matrix_from_json(doc))
        return {k: _sparse_form(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_sparse_form(v) for v in doc]
    return doc


def _without_instrument(path, folder):
    """A copy of the split model file ``path`` in the new directory ``folder`` with its
    "instrument" deleted, every other entry as written."""
    doc = load_json(path)
    assert "split" in doc
    del doc["instrument"]
    folder.mkdir()
    return _write(folder / Path(path).name, doc)


class TestDenseFiles:
    """The Ising N=4 p=0.5 pair in tests/data, written with every entry's bytes, and the same
    pair rewritten with its nonzero entries only, read alike by every command.  The model file
    gives its instrument beside its split, as split files did before the instrument was
    composed on loading, so the commands read a copy without it."""

    @pytest.fixture()
    def pairs(self, tmp_path):
        dense = [_without_instrument(str(DATA / "dense_ising4.json"), tmp_path / "dense"),
                 str(DATA / "dense_ising4.red.json")]
        sparse = [_write(tmp_path / Path(path).name, _sparse_form(load_json(path))) for path in dense]
        for old, new in zip(dense, sparse):
            assert '"nonzero"' not in open(old).read()
            assert Path(new).stat().st_size < 0.6 * Path(old).stat().st_size
        return dense, sparse

    def test_model_as_stored_refused(self, tmp_path, capsys):
        model = str(DATA / "dense_ising4.json")
        assert main(["reduce", model, "-o", str(tmp_path / "unused.red.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: invalid model document: model document gives both ")

    def test_verify_passes_with_the_same_report(self, pairs, capsys):
        reports = []
        for model, reduced in pairs:
            capsys.readouterr()
            assert main(["verify", model, reduced, "--tv", "3"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1] and reports[0].splitlines()[-1] == "verification passed"

    def test_simulate_writes_the_same_records(self, tmp_path, pairs):
        for i in range(2):
            records = []
            for pair in pairs:
                out = tmp_path / f"{len(records)}.jsonl"
                assert main(["simulate", pair[i], "--samples", "20", "--seed", "11", "-o", str(out)]) == 0
                records.append(out.read_text())
            assert records[0] == records[1]

    def test_reduce_writes_the_same_file(self, tmp_path, pairs):
        written = []
        for model, _ in pairs:
            out = tmp_path / f"again{len(written)}.red.json"
            assert main(["reduce", model, "-o", str(out)]) == 0
            written.append(out.read_text())
        assert written[0] == written[1]


class TestSimulate:
    def test_jsonl_records(self, tmp_path, walk_files):
        model, _ = walk_files
        out = tmp_path / "traj.jsonl"
        code = main(["simulate", str(model), "--steps", "4", "--samples", "20", "-o", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 20
        rec = json.loads(lines[0])
        assert len(rec["outcomes"]) == 4 and len(rec["probabilities"]) == 4

    def test_reduced_model_is_simulatable(self, tmp_path, walk_files):
        _, reduced = walk_files
        out = tmp_path / "rt.jsonl"
        assert main(["simulate", str(reduced), "--steps", "3", "--samples", "5", "-o", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 5

    def test_seed_reproducible(self, tmp_path, walk_files):
        model, _ = walk_files
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["simulate", str(model), "--steps", "3", "--samples", "10", "--seed", "5", "-o", str(a)])
        main(["simulate", str(model), "--steps", "3", "--samples", "10", "--seed", "5", "-o", str(b)])
        assert a.read_text() == b.read_text()

    def test_records_are_those_of_the_children_spawned_at_once(self, tmp_path, walk_files):
        # simulate spawns one child seed per record; spawn(samples) gives the same children
        model, _ = walk_files
        out = tmp_path / "t.jsonl"
        assert main(["simulate", str(model), "--steps", "3", "--samples", "7", "--seed", "5", "-o", str(out)]) == 0
        ce = ce_from_json(load_json(str(model)))
        rho0 = np.eye(ce.dim, dtype=complex) / ce.dim
        children = np.random.SeedSequence(5).spawn(7)
        lines = out.read_text().splitlines()
        assert len(lines) == 7
        for child, line in zip(children, lines):
            want = sample_trajectory(ce, rho0, 3, np.random.default_rng(child))
            # each output value written as [re, im], byte for byte
            assert line == json.dumps({"outcomes": list(want.outcomes),
                                       "probabilities": list(want.probabilities),
                                       "outputs": [[[v.real, v.imag] for v in y] for y in want.outputs]})


    @pytest.mark.parametrize("factor", [0.0, 0.5])
    def test_unnormalized_model_exit2(self, tmp_path, walk_files, factor, capsys):
        model, _ = walk_files
        doc = load_json(str(model))
        # scale every effect by factor, and so every map of the instrument composed from them
        for entry in doc["split"]["effects"].values():
            entry["kraus"] = [matrix_to_json(np.sqrt(factor) * matrix_from_json(K)) for K in entry["kraus"]]
        bad = _write(tmp_path / "scaled.json", doc)
        capsys.readouterr()
        assert main(["simulate", bad, "--steps", "3", "--samples", "5", "-o", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error: model validation failed: normalization residual" in err
        assert main(["reduce", bad]) == 2
        assert capsys.readouterr().err == err

    def test_reduced_file_starts_at_r_of_the_mixed_state(self, tmp_path):
        # blocks ((1, 2), (1, 1)): the reduced start is diag(2/3, 1/3), not 1_2/2
        model, reduced = tmp_path / "swap3.json", tmp_path / "swap3.red.json"
        save_json(ce_to_json(swap3_ce()), str(model))
        assert main(["reduce", str(model), "-o", str(reduced)]) == 0
        records = []
        for path in (model, reduced):
            out = tmp_path / f"{path.name}.jsonl"
            assert main(["simulate", str(path), "--seed", "3", "--samples", "50", "-o", str(out)]) == 0
            records.append([json.loads(line) for line in out.read_text().splitlines()])
        full, red = records
        assert [r["outcomes"] for r in full] == [r["outcomes"] for r in red]
        dev = max(np.max(np.abs(np.array(a["outputs"]) - np.array(b["outputs"]))) for a, b in zip(full, red))
        assert dev <= 1e-8
        assert abs(full[0]["outputs"][0][1][0] - 1 / 3) <= 1e-12

    def test_blocks_that_differ_from_those_of_r_refused(self, tmp_path, capsys):
        # verify rebuilds R from R's own blocks, so reversed reduction blocks would pass it
        # and start simulate at diag(1/3, 2/3)
        model, reduced = tmp_path / "swap3.json", tmp_path / "swap3.red.json"
        save_json(ce_to_json(swap3_ce()), str(model))
        assert main(["reduce", str(model), "-o", str(reduced)]) == 0
        doc = load_json(str(reduced))
        assert doc["reduction"]["blocks"] == doc["reduction"]["R"]["blocks"] == [[1, 2], [1, 1]]
        doc["reduction"]["blocks"].reverse()
        bad = _write(tmp_path / "reversed_blocks.json", doc)
        capsys.readouterr()
        assert main(["simulate", bad, "--samples", "2", "-o", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "reduction blocks [[1, 1], [1, 2]] differ from the blocks [[1, 2], [1, 1]] of its" in err

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: ising_chain(4, 0.0, 0.3), id="ising4_p0"),
        pytest.param(lambda: ising_chain(4, 0.5, 0.3), id="ising4_p0.5"),
        pytest.param(lambda: measured_quantum_walk(5, seed=0), id="walk5"),
        pytest.param(swap3_ce, id="swap3"),
    ])
    def test_start_state_is_r_of_the_mixed_state(self, make):
        ce = make()
        red = reduce_ce(ce)
        doc = json.loads(json.dumps(reduced_ce_to_json(red)))
        want = red.reduction_map(np.eye(ce.dim) / ce.dim)
        assert np.max(np.abs(cli._start_state(red.model, doc, "red.json") - want)) <= 1e-12
        full = cli._start_state(ce, ce_to_json(ce), "full.json")
        assert np.array_equal(full, np.eye(ce.dim) / ce.dim)

    def test_escaped_state_exit2(self, tmp_path, walk_files, monkeypatch, capsys):
        model, _ = walk_files

        def escape(*args, **kwargs):
            raise StateEscapedError("outcome probabilities sum to 0.000e+00 at step 0")

        monkeypatch.setattr(cli, "sample_trajectory", escape)
        assert main(["simulate", str(model), "-o", str(tmp_path / "t.jsonl")]) == 2
        assert "outcome probabilities sum to" in capsys.readouterr().err


def _write(path, doc):
    save_json(doc, str(path))
    return str(path)


def _corrupt(entry):
    """A {"shape", "c16"} entry with one character of its payload made non-base64."""
    entry["c16"] = "!" + entry["c16"][1:]


def _corrupted_r(tmp, model, reduced):
    doc = load_json(str(reduced))
    _corrupt(doc["reduction"]["R"]["U"])
    return ["verify", str(model), _write(tmp / "corrupted_r.json", doc)]


def _corrupted_kraus(tmp, model, reduced):
    doc = load_json(str(reduced))
    _corrupt(doc["instrument"][doc["outcomes"][0]]["kraus"][0])
    return ["reduce", _write(tmp / "corrupted_kraus.json", doc)]


def _short_observable(tmp, model, reduced):
    # a dense entry one row short of its declared shape
    doc = load_json(str(reduced))
    entry = doc["observables"][0]
    entry["matrix"] = dense_entry(matrix_from_json(entry["matrix"]))
    entry["matrix"]["shape"][0] += 1
    return ["simulate", _write(tmp / "short_observable.json", doc)]


def _bitmap_of_other_shape(tmp, model, reduced):
    # the identity of C^3 declared 3x9: a 4-byte bitmap cannot be held in the 4 characters of 2 bytes
    doc = load_json(str(reduced))
    doc["observables"][0]["matrix"]["shape"] = [3, 9]
    return ["simulate", _write(tmp / "bitmap_of_other_shape.json", doc), "--samples", "2"]


def _identity_declared_4x3(tmp, model, reduced):
    # the identity of C^3 declared 4x3: its 2-byte bitmap and its 3 entries fit that shape too
    doc = load_json(str(reduced))
    doc["observables"][0]["matrix"]["shape"] = [4, 3]
    return ["simulate", _write(tmp / "identity_4x3.json", doc), "--samples", "2"]


def _padding_bits_set(tmp, model, reduced):
    # U is 3x3: 9 entries and 7 padding bits
    doc = load_json(str(reduced))
    U = doc["reduction"]["R"]["U"]
    bits, _ = stored(U)
    U["nonzero"] = b64(bits[:1] + bytes([bits[1] | 1]))
    return ["verify", str(model), _write(tmp / "padding_bits.json", doc)]


def _entry_bytes_short(tmp, model, reduced):
    doc = load_json(str(reduced))
    K = doc["instrument"][doc["outcomes"][0]]["kraus"][0]
    K["c16"] = b64(stored(K)[1][:-16])
    return ["reduce", _write(tmp / "entry_bytes_short.json", doc)]


def _bitmap_not_base64(tmp, model, reduced):
    doc = load_json(str(model))
    E = doc["split"]["evolution"]["kraus"][0]
    E["nonzero"] = "!" + E["nonzero"][1:]
    return ["reduce", _write(tmp / "bitmap_not_base64.json", doc)]


def _huge_observable(tmp, model, reduced):
    doc = load_json(str(model))
    doc["observables"][0]["matrix"]["shape"] = [10**9, 10**9]
    return ["simulate", _write(tmp / "huge_observable.json", doc), "--samples", "2"]


def _top_level_array(tmp, model, reduced):
    return ["reduce", _write(tmp / "array.json", [load_json(str(model))])]


def _reduced_without_r(tmp, model, reduced):
    doc = load_json(str(reduced))
    del doc["reduction"]["R"]
    return ["verify", str(model), _write(tmp / "no_r.json", doc)]


def _inconsistent_blocks(tmp, model, reduced):
    doc = load_json(str(reduced))
    # three (1, 1) blocks of a walk on C^3 become blocks of a 4-dim original
    doc["reduction"]["blocks"][-1] = [1, 2]
    return ["simulate", _write(tmp / "inconsistent_blocks.json", doc), "--samples", "2"]


def _fractional_blocks(tmp, model, reduced):
    doc = load_json(str(reduced))
    doc["reduction"]["blocks"][-1] = [1, 1.5]
    return ["simulate", _write(tmp / "fractional_blocks.json", doc), "--samples", "2"]


def _relabelled_outcome(tmp, model, reduced):
    doc = load_json(str(reduced))
    old = doc["outcomes"][0]
    doc["outcomes"][0] = "renamed"
    doc["instrument"]["renamed"] = doc["instrument"].pop(old)
    return ["verify", str(model), _write(tmp / "relabelled.json", doc)]


def _duplicate_outcomes(tmp, model, reduced):
    doc = load_json(str(model))
    doc["outcomes"].insert(0, doc["outcomes"][0])
    # simulate would otherwise sample the repeated outcome with double weight
    return ["simulate", _write(tmp / "duplicate.json", doc), "--samples", "2"]


def _duplicate_outcomes_of_instrument(tmp, model, reduced):
    doc = load_json(str(reduced))
    doc["outcomes"].append(doc["outcomes"][-1])
    return ["simulate", _write(tmp / "duplicate.red.json", doc), "--samples", "2"]


def _no_observables(tmp, model, reduced):
    doc = load_json(str(model))
    doc["observables"] = []
    return ["simulate", _write(tmp / "no_obs.json", doc)]


def _transpose_given_as_matrix(tmp, model, reduced):
    doc = load_json(str(reduced))
    n = doc["dim"]
    transpose = np.array([vec(E.T) for E in np.eye(n * n).reshape(n * n, n, n, order="F")]).T
    doc["instrument"][doc["outcomes"][0]] = {"matrix": matrix_to_json(transpose)}
    return ["reduce", _write(tmp / "transpose.json", doc)]


def _negated_r(tmp, model, reduced):
    # R as a dense matrix, a form of older files, is refused before it could be found not CP
    doc = load_json(str(reduced))
    doc["reduction"]["R"] = matrix_to_json(-matrix_from_json(doc["reduction"]["R"]))
    return ["verify", str(model), _write(tmp / "negated_r.json", doc)]


# what the error line must name, beyond "error:"
ERROR_NAMES = {
    _transpose_given_as_matrix: ["invalid model document", "instrument map '0'", "smallest Choi eigenvalue -1"],
    _negated_r: ["invalid reduction map", "R written as a dense matrix",
                 "re-run `cereduce reduce` on the full model"],
    _corrupted_r: ["invalid reduction map", "'c16' is not strict base64"],
    _corrupted_kraus: ["invalid model document", "instrument map '0'", "'c16' is not strict base64"],
    _short_observable: ["invalid model document", "observable 'identity'", "'c16' of", "cannot hold"],
    _bitmap_of_other_shape: ["invalid model document", "observable 'identity'", "'nonzero' of 4 characters",
                             "the bitmap of a 3x9 matrix"],
    _identity_declared_4x3: ["invalid model document", "observable 'identity'",
                             "shape [4, 3] is not the [3, 3] of the model's 'dim'"],
    _padding_bits_set: ["invalid reduction map", "'nonzero' sets padding bits past the 9 entries"],
    _entry_bytes_short: ["invalid model document", "instrument map '0'", "'c16' of", "cannot hold",
                         "marked complex128 entries"],
    _bitmap_not_base64: ["invalid model document", "split evolution", "'nonzero' is not strict base64"],
    _huge_observable: ["invalid model document", "observable 'identity'", "'nonzero' of 4 characters",
                       "cannot hold"],
    _inconsistent_blocks: ["reduction blocks [(1, 1), (1, 1), (1, 2)] do not split", "dimension 9"],
    _fractional_blocks: ["must be positive integers"],
    _duplicate_outcomes: ["invalid model document", "duplicate outcome labels in ['0', '0', '1', '2']"],
    _duplicate_outcomes_of_instrument: ["invalid model document",
                                        "duplicate outcome labels in ['0', '1', '2', '2']"],
}


NEGATIVE_SEED_ARGV = {
    "zoo_walk": lambda tmp, m, r: ["zoo", "walk", "--n", "3", "-o", str(tmp / "w.json"), "--seed", "-1"],
    "reduce": lambda tmp, m, r: ["reduce", str(m), "-o", str(tmp / "r.json"), "--seed", "-1"],
    "verify": lambda tmp, m, r: ["verify", str(m), str(r), "--seed", "-1"],
    "simulate": lambda tmp, m, r: ["simulate", str(m), "--samples", "2", "--seed", "-1"],
}
ZOO_ISING_DELTA_ARGV = {
    value: lambda tmp, m, r, value=value: [
        "zoo", "ising", "--n", "4", "--p", "0.5", "--delta", value, "-o", str(tmp / "i.json")
    ]
    for value in ("nan", "inf")
}
ERROR_NAMES.update({make: ["--seed"] for make in NEGATIVE_SEED_ARGV.values()})
ERROR_NAMES.update({make: ["delta must be a finite number"] for make in ZOO_ISING_DELTA_ARGV.values()})


@pytest.mark.parametrize(
    "make_argv",
    [
        pytest.param(_top_level_array, id="top_level_array"),
        pytest.param(_transpose_given_as_matrix, id="reduce_transpose_matrix"),
        pytest.param(_negated_r, id="verify_negated_R"),
        pytest.param(_corrupted_r, id="verify_corrupted_R"),
        pytest.param(_corrupted_kraus, id="reduce_corrupted_kraus"),
        pytest.param(_short_observable, id="simulate_short_observable"),
        pytest.param(_bitmap_of_other_shape, id="simulate_bitmap_of_other_shape"),
        pytest.param(_identity_declared_4x3, id="simulate_identity_declared_4x3"),
        pytest.param(_padding_bits_set, id="verify_padding_bits_set"),
        pytest.param(_entry_bytes_short, id="reduce_entry_bytes_short"),
        pytest.param(_bitmap_not_base64, id="reduce_bitmap_not_base64"),
        pytest.param(_huge_observable, id="simulate_huge_observable"),
        pytest.param(_duplicate_outcomes, id="duplicate_outcomes"),
        pytest.param(_duplicate_outcomes_of_instrument, id="duplicate_outcomes_of_instrument"),
        pytest.param(_no_observables, id="no_observables"),
        pytest.param(_reduced_without_r, id="reduced_without_R"),
        pytest.param(_relabelled_outcome, id="relabelled_outcome"),
        pytest.param(_inconsistent_blocks, id="simulate_inconsistent_blocks"),
        pytest.param(_fractional_blocks, id="simulate_fractional_blocks"),
        pytest.param(lambda tmp, m, r: ["simulate", str(m), "--steps", "0"], id="simulate_steps_0"),
        # an option verify no longer has: the certificate draws no states
        pytest.param(
            lambda tmp, m, r: ["verify", str(m), str(r), "--n-states", "0"], id="verify_n_states_0"
        ),
        # a 3-outcome model has 3^20 words at T=20, past the enumeration cap
        pytest.param(lambda tmp, m, r: ["verify", str(m), str(r), "--tv", "20"], id="verify_tv_past_cap"),
        pytest.param(
            lambda tmp, m, r: ["zoo", "walk", "--n", "0", "-o", str(tmp / "w.json")], id="zoo_walk_n_0"
        ),
        pytest.param(
            lambda tmp, m, r: ["reduce", str(m), "-o", str(tmp / "absent" / "r.json")],
            id="reduce_output_dir_missing",
        ),
        pytest.param(
            lambda tmp, m, r: ["simulate", str(m), "--samples", "2", "-o", str(tmp / "absent" / "t.jsonl")],
            id="simulate_output_dir_missing",
        ),
        pytest.param(
            lambda tmp, m, r: ["zoo", "walk", "--n", "3", "-o", str(tmp / "absent" / "w.json")],
            id="zoo_output_dir_missing",
        ),
        *(pytest.param(make, id=f"{cmd}_negative_seed") for cmd, make in NEGATIVE_SEED_ARGV.items()),
        *(pytest.param(make, id=f"zoo_ising_delta_{value}") for value, make in ZOO_ISING_DELTA_ARGV.items()),
    ],
)
def test_bad_input_exit2_with_error_line(make_argv, tmp_path, walk_files, capsys):
    argv = make_argv(tmp_path, *walk_files)
    capsys.readouterr()
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse rejects the argument itself
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err
    for name in ERROR_NAMES.get(make_argv, []):
        assert name in err


@pytest.mark.parametrize(
    "argv, env",
    [
        pytest.param(["reduce", "{m}", "--tol", "-1"], None, id="reduce_tol_negative"),
        pytest.param(["reduce", "{m}", "--tol", "nan"], None, id="reduce_tol_nan"),
        pytest.param(["reduce", "{m}", "--tol", "0"], None, id="reduce_tol_zero"),
        pytest.param(["verify", "{m}", "{r}", "--tol", "inf"], None, id="verify_tol_inf"),
        pytest.param(["zoo", "walk", "--n", "3", "--tol", "0", "-o", "{w}"], None, id="zoo_walk_tol_zero"),
        pytest.param(["reduce", "{m}"], "abc", id="reduce_env_abc"),
        pytest.param(["verify", "{m}", "{r}"], "-1", id="verify_env_negative"),
        pytest.param(["simulate", "{m}"], "nan", id="simulate_env_nan"),
        pytest.param(["zoo", "walk", "--n", "3", "-o", "{w}"], "abc", id="zoo_walk_env_abc"),
    ],
)
def test_bad_tolerance_exit2(argv, env, tmp_path, walk_files, monkeypatch, capsys):
    model, reduced = walk_files
    argv = [a.format(m=model, r=reduced, w=tmp_path / "w.json") for a in argv]
    if env is None:
        monkeypatch.delenv("CEREDUCE_TOL", raising=False)
    else:
        monkeypatch.setenv("CEREDUCE_TOL", env)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:  # argparse rejects the value before any work
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "positive finite number" in err


def test_tol_env_var(monkeypatch):
    monkeypatch.delenv("CEREDUCE_TOL", raising=False)
    commands = (["reduce", "m.json"], ["verify", "m.json", "m.red.json"], ["simulate", "m.json"])
    assert [build_parser().parse_args(c).tol for c in commands] == [1e-9, 1e-8, 1e-9]
    monkeypatch.setenv("CEREDUCE_TOL", "1e-5")
    assert [build_parser().parse_args(c).tol for c in commands] == [1e-5] * 3


@pytest.mark.parametrize("env", [None, "1e-5"], ids=["default", "env"])
def test_zoo_walk_namespace(env, monkeypatch):
    # --seed and --tol of the walk are the common options: the same types and defaults
    if env is None:
        monkeypatch.delenv("CEREDUCE_TOL", raising=False)
    else:
        monkeypatch.setenv("CEREDUCE_TOL", env)
    tol = 1e-9 if env is None else 1e-5
    base = dict(command="zoo", family="walk", n=3, output="w.json", func=cmd_zoo)
    parse = build_parser().parse_args
    assert vars(parse(["zoo", "walk", "--n", "3", "-o", "w.json"])) == dict(
        base, seed=0, hadamard=False, tol=tol)
    assert vars(parse(["zoo", "walk", "--n", "3", "-o", "w.json", "--seed", "4", "--tol", "1e-7",
                       "--hadamard"])) == dict(base, seed=4, hadamard=True, tol=1e-7)
    with pytest.raises(SystemExit):
        parse(["zoo", "walk", "--n", "3", "-o", "w.json", "--seed", "-1"])

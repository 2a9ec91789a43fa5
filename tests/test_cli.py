import dataclasses
import json

import numpy as np
import pytest

from cereduce import algebra, cli, operators, reduction
from cereduce.algebra import DegenerateAlgebraError
from cereduce.cli import build_parser, main
from cereduce.model import Instrument
from cereduce.operators import vec
from cereduce.reduction import reduce_ce
from cereduce.serialize import (
    ce_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    reduced_ce_to_json,
    save_json,
)
from cereduce.trajectories import WORD_CAP, StateEscapedError
from cereduce.zoo import ising_chain


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

    def test_ising_emits_split_model(self, tmp_path):
        out = tmp_path / "i.json"
        assert main(["zoo", "ising", "--n", "4", "--p", "0.5", "--delta", "0.3", "-o", str(out)]) == 0
        doc = load_json(str(out))
        assert doc["dim"] == 16 and "split" in doc
        assert doc["outcomes"] == ["-1", "0", "1"]

    def test_ising_too_short_exit2(self, tmp_path):
        code = main(["zoo", "ising", "--n", "3", "--p", "0.0", "--delta", "0.3", "-o", str(tmp_path / "x.json")])
        assert code == 2

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
        assert "R" in doc["reduction"] and "U" in doc["reduction"]

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
        cuts = json.loads(out[: out.rindex("}") + 1])["rank_cuts"]
        doc = load_json(str(reduced))
        assert doc["reduction"]["rank_cuts"] == cuts
        assert list(cuts) == doc["outcomes"]
        for k, cut in cuts.items():
            assert cut["kraus_ops"] == len(doc["instrument"][k]["kraus"]) == 2
            assert 0 <= cut["dropped_over_kept"] < 1e-10

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

    def test_malformed_json_exit2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["reduce", str(bad)]) == 2

    def test_invalid_model_exit2(self, tmp_path, walk_files):
        model, _ = walk_files
        doc = load_json(str(model))
        # break normalization by dropping an outcome's map
        doc["outcomes"] = doc["outcomes"][:-1]
        bad = tmp_path / "unnormalized.json"
        save_json(doc, str(bad))
        assert main(["reduce", str(bad)]) == 2

    def test_split_failure_named_exit2(self, tmp_path, capsys):
        model = tmp_path / "ising.json"
        assert main(["zoo", "ising", "--n", "4", "--p", "0.0", "--delta", "0.3", "-o", str(model)]) == 0
        doc = load_json(str(model))
        effects = doc["split"]["effects"]
        a, b = doc["outcomes"][:2]
        effects[a], effects[b] = effects[b], effects[a]
        bad = tmp_path / "swapped.json"
        save_json(doc, str(bad))
        capsys.readouterr()
        assert main(["reduce", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "split residual" in err and "split residual none" not in err


class TestVerify:
    def test_pass(self, walk_files):
        model, reduced = walk_files
        assert main(["verify", str(model), str(reduced), "--max-len", "3", "--n-states", "5"]) == 0

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
        assert main(["verify", str(model), str(bad), "--max-len", "2", "--n-states", "3"]) == 1

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

    def test_full_model_without_reduction_exit2(self, walk_files):
        model, _ = walk_files
        assert main(["verify", str(model), str(model)]) == 2

    def test_tree_past_word_cap_exit2(self, walk_files, monkeypatch, capsys):
        model, reduced = walk_files

        def refuse(*args, **kwargs):
            raise AssertionError("the walk ran")

        monkeypatch.setattr(reduction, "_dual_walk", refuse)
        capsys.readouterr()
        # 3 outcomes to length 13: 2,391,484 nodes; length 12 (797,161) fits
        assert main(["verify", str(model), str(reduced), "--max-len", "13"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --max-len 13: ")
        assert "2391484 nodes" in err and f"WORD_CAP = {WORD_CAP}" in err
        assert "length 12 is the largest that fits" in err


def _list_form(doc):
    """The document with every {"shape", "c16"} entry rewritten as rows of [re, im] pairs."""
    if isinstance(doc, dict):
        if set(doc) == {"shape", "c16"}:
            M = matrix_from_json(doc)
            return np.stack([M.real, M.imag], -1).tolist()
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
        old = [_write(tmp_path / f"old.{path.name}", _list_form(load_json(str(path))))
               for path in (model, reduced)]
        return (str(model), str(reduced)), old

    def test_reduce_writes_the_same_file(self, tmp_path, ising_files):
        (_, reduced), (old_model, _) = ising_files
        out = tmp_path / "again.red.json"
        assert main(["reduce", old_model, "-o", str(out)]) == 0
        assert out.read_text() == open(reduced).read()

    def test_verify_passes(self, ising_files):
        (model, _), (old_model, old_reduced) = ising_files
        assert main(["verify", model, old_reduced, "--tv", "3"]) == 0
        assert main(["verify", old_model, old_reduced, "--max-len", "3"]) == 0

    def test_simulate_writes_the_same_records(self, tmp_path, ising_files):
        (_, reduced), (_, old_reduced) = ising_files
        new, old = tmp_path / "new.jsonl", tmp_path / "old.jsonl"
        assert main(["simulate", reduced, "--samples", "50", "--seed", "4", "-o", str(new)]) == 0
        assert main(["simulate", old_reduced, "--samples", "50", "--seed", "4", "-o", str(old)]) == 0
        assert new.read_text() == old.read_text()


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


    @pytest.mark.parametrize("factor", [0.0, 0.5])
    def test_unnormalized_model_exit2(self, tmp_path, walk_files, factor, capsys):
        model, _ = walk_files
        doc = load_json(str(model))
        # scale every instrument map and effect by factor, so the split form still holds
        for entry in [*doc["instrument"].values(), *doc["split"]["effects"].values()]:
            entry["kraus"] = [matrix_to_json(np.sqrt(factor) * matrix_from_json(K)) for K in entry["kraus"]]
        bad = _write(tmp_path / "scaled.json", doc)
        capsys.readouterr()
        assert main(["simulate", bad, "--steps", "3", "--samples", "5", "-o", str(tmp_path / "t.jsonl")]) == 2
        err = capsys.readouterr().err
        assert "error: model validation failed: normalization residual" in err
        assert main(["reduce", bad]) == 2
        assert capsys.readouterr().err == err

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
    _corrupt(doc["reduction"]["R"])
    return ["verify", str(model), _write(tmp / "corrupted_r.json", doc)]


def _corrupted_kraus(tmp, model, reduced):
    doc = load_json(str(model))
    _corrupt(doc["instrument"][doc["outcomes"][0]]["kraus"][0])
    return ["reduce", _write(tmp / "corrupted_kraus.json", doc)]


def _short_observable(tmp, model, reduced):
    doc = load_json(str(reduced))
    doc["observables"][0]["matrix"]["shape"][0] += 1
    return ["simulate", _write(tmp / "short_observable.json", doc)]


def _top_level_array(tmp, model, reduced):
    return ["reduce", _write(tmp / "array.json", [load_json(str(model))])]


def _reduced_without_r(tmp, model, reduced):
    doc = load_json(str(reduced))
    del doc["reduction"]["R"]
    return ["verify", str(model), _write(tmp / "no_r.json", doc)]


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


def _no_observables(tmp, model, reduced):
    doc = load_json(str(model))
    doc["observables"] = []
    return ["simulate", _write(tmp / "no_obs.json", doc)]


def _transpose_given_as_matrix(tmp, model, reduced):
    doc = load_json(str(model))
    n = doc["dim"]
    transpose = np.array([vec(E.T) for E in np.eye(n * n).reshape(n * n, n, n, order="F")]).T
    doc["instrument"][doc["outcomes"][0]] = {"matrix": matrix_to_json(transpose)}
    return ["reduce", _write(tmp / "transpose.json", doc)]


def _negated_r(tmp, model, reduced):
    doc = load_json(str(reduced))
    doc["reduction"]["R"] = matrix_to_json(-matrix_from_json(doc["reduction"]["R"]))
    return ["verify", str(model), _write(tmp / "negated_r.json", doc)]


# what the error line must name, beyond "error:"
ERROR_NAMES = {
    _transpose_given_as_matrix: ["invalid model document", "instrument map '0'", "smallest Choi eigenvalue -1"],
    _negated_r: ["invalid reduction map", "not completely positive"],
    _corrupted_r: ["invalid reduction map", "'c16' is not strict base64"],
    _corrupted_kraus: ["invalid model document", "instrument map '0'", "'c16' is not strict base64"],
    _short_observable: ["invalid model document", "observable 'identity'", "cannot hold"],
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
        pytest.param(_duplicate_outcomes, id="duplicate_outcomes"),
        pytest.param(_no_observables, id="no_observables"),
        pytest.param(_reduced_without_r, id="reduced_without_R"),
        pytest.param(_relabelled_outcome, id="relabelled_outcome"),
        pytest.param(lambda tmp, m, r: ["simulate", str(m), "--steps", "0"], id="simulate_steps_0"),
        # with no initial states the equivalence check would pass vacuously
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

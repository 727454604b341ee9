import json
import warnings

import numpy as np
import pytest

from kreinpair import KreinSpace, OperatorWithDomain, cli, sturm_liouville
from kreinpair.cli import SpecError, dump_instance, load_instance, main
from kreinpair.instances import random_dissipative, scaled_defect_instance

from conftest import contains, e, span


@pytest.fixture
def mixed_file(tmp_path):
    op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1.0, 1j]))
    path = tmp_path / "mixed.json"
    dump_instance(op, path)
    return path


class TestInstanceIO:
    def test_round_trip(self, tmp_path):
        op = OperatorWithDomain(
            KreinSpace(np.diag([1.0, -1.0])), np.diag([1j, -1j])
        )
        path = tmp_path / "op.json"
        dump_instance(op, path)
        loaded = load_instance(path)
        assert np.allclose(loaded.matrix, op.matrix)
        assert np.allclose(loaded.space.J, op.space.J)
        assert loaded.domain.is_full

    def test_round_trip_with_domain(self, tmp_path):
        op = OperatorWithDomain(
            KreinSpace(np.eye(2)), np.diag([1.0, 1j]),
            span(e(2, 0)),
        )
        path = tmp_path / "op.json"
        dump_instance(op, path)
        loaded = load_instance(path)
        assert loaded.domain.dim == 1
        assert contains(loaded.domain, e(2, 0))

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["analyze", str(path)]) == 1

    def test_missing_matrix(self, tmp_path):
        path = tmp_path / "missing.json"
        path.write_text(json.dumps({"dim": 1, "J": [[[1, 0]]]}), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1

    def test_non_hermitian_symmetry(self, tmp_path):
        path = tmp_path / "bad_j.json"
        payload = {
            "dim": 1,
            "J": [[[0.0, 1.0]]],
            "T": [[[0.0, 1.0]]],
        }
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1

    @pytest.mark.parametrize("scale", [0.0, 1e200], ids=["zero", "huge"])
    def test_metric_of_norm_far_from_one(self, tmp_path, capfd, scale):
        # J = scale * I is no canonical symmetry; it is rejected before J^2
        # is formed, so no RuntimeWarning (an error here) and no LAPACK
        # message on the file descriptor
        path = tmp_path / "scaled_j.json"
        payload = {"dim": 3, "J": [[[scale if i == k else 0.0, 0.0]
                                    for k in range(3)] for i in range(3)],
                   "T": [[[0.0, 1.0 if i == k else 0.0] for k in range(3)]
                         for i in range(3)]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        err = capfd.readouterr().err
        assert err.startswith("error: ") and "square to the identity" in err
        assert "DLASCL" not in err and "Warning" not in err

    def test_bad_complex_entry(self, tmp_path):
        path = tmp_path / "bad_entry.json"
        payload = {"dim": 1, "J": [[[1.0]]], "T": [[[0.0, 1.0]]]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1

    @pytest.mark.parametrize("key, value", [("T", float("nan")),
                                            ("J", float("inf"))])
    def test_non_finite_entry(self, tmp_path, capsys, key, value):
        # Python's json reads NaN and Infinity
        path = tmp_path / "non_finite.json"
        payload = {"dim": 2, "J": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                   "T": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]]}
        payload[key][1][1] = [value, 0.0]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "criterion"])
    @pytest.mark.parametrize("key, value", [
        ("J", 10**400), ("T", 10**400), ("domain", 10**400),
        ("domain", float("inf")),
    ], ids=["J-huge", "T-huge", "domain-huge", "domain-inf"])
    def test_entry_out_of_float_range(self, tmp_path, capsys, command, key, value):
        # a JSON integer beyond the float range, or Infinity, in any entry
        path = tmp_path / "out_of_range.json"
        payload = {"dim": 2, "J": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                   "T": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
                   "domain": [[[1, 0], [0, 0]]]}
        row = payload["domain"][0] if key == "domain" else payload[key][1]
        row[1] = [value, 0]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("dim, j_entry, t_entry", [
        (1.7, [1, 0], [0, 1]),
        ("1", [1, 0], [0, 1]),
        (True, [1, 0], [0, 1]),
        (1, [True, False], [0, 1]),
        (1, [1, 0], [False, True]),
    ], ids=["float_dim", "string_dim", "bool_dim", "bool_in_J", "bool_in_T"])
    def test_non_integer_dim_or_bool_entry(self, tmp_path, capsys, dim,
                                           j_entry, t_entry):
        path = tmp_path / "bad_number.json"
        payload = {"dim": dim, "J": [[j_entry]], "T": [[t_entry]]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SpecError):
            load_instance(path)
        assert main(["analyze", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


class TestAnalyze:
    def test_report_contents_and_exit(self, mixed_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["analyze", str(mixed_file), "-o", str(out)]) == 0
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["classification"] == "dissipative"
        assert report["dims"] == {
            "space": 2,
            "domain": 2,
            "symmetric_part": 1,
            "defect_part": 1,
            "deficiency_space": 1,
            "boundary_space": 1,
        }
        assert report["green_residual_pair"] <= 1e-8
        assert report["boundary_map_gap"] <= 1e-8
        assert report["criterion"]["agree"] is True
        assert report["real_spectrum"]["passed"] is True
        assert report["checks"]["classification_routes_agree"] is True
        assert report["seed"] == 0

    def test_deterministic_output(self, mixed_file, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["analyze", str(mixed_file), "-o", str(out1)])
        main(["analyze", str(mixed_file), "-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_not_dissipative_exits_two(self, tmp_path):
        op = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1j, -1j]))
        path = tmp_path / "neither.json"
        dump_instance(op, path)
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "-o", str(out)]) == 2
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["classification"] == "neither"
        assert report["finding"] == "not dissipative"

    def test_corrupted_dissipation_gram_trips_only_the_riesz_bounds(
            self, tmp_path, monkeypatch):
        # 0 <= F <= I for every dissipative T; three times F's spectrum, the
        # graph spectrum, is still nonnegative and keeps the graph route's
        # verdict, so only the upper bound on F can see it
        path = tmp_path / "op.json"
        dump_instance(random_dissipative(6, np.random.default_rng(4)), path)
        exact = OperatorWithDomain.graph_spectrum.func
        monkeypatch.setattr(OperatorWithDomain, "graph_spectrum",
                            property(lambda op: 3.0 * exact(op)))
        out = tmp_path / "report.json"
        assert main(["analyze", str(path), "-o", str(out)]) == 2
        checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
        assert [name for name, ok in checks.items() if not ok] == [
            "riesz_form_bounds"]

    def test_overflowing_graph_gram_is_a_typed_error(self, tmp_path, capsys):
        # |T|_F is about 1e156, so (T B)*(T B) overflows; the criteria never
        # form it and still pass.  A RuntimeWarning would fail the test.
        op = random_dissipative(4, np.random.default_rng(0))
        path = tmp_path / "huge.json"
        dump_instance(OperatorWithDomain(op.space, 1e155 * op.matrix), path)
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows" in err
        assert main(["criterion", str(path)]) == 0

    def test_overflowing_dissipation_form_is_a_typed_error(self, tmp_path, capsys):
        # h = -i T is finite and h + h* is not: refused before it is formed
        path = tmp_path / "huge_form.json"
        dump_instance(OperatorWithDomain(KreinSpace(np.eye(2)),
                                         np.diag([1.7e308 + 1.7e308j, 1j])), path)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", str(path)]) == 2
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "overflows" in err


class TestCriterion:
    def test_single_file(self, mixed_file, tmp_path):
        out = tmp_path / "crit.json"
        assert main(["criterion", str(mixed_file), "-o", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["agree"] is True
        assert payload["contraction"]["ok"] is True

    def test_directory_batch_with_trend(self, tmp_path):
        batch = tmp_path / "batch"
        batch.mkdir()
        for idx, eps in enumerate([1.0, 1e-2, 1e-4, 1e-6]):
            dump_instance(
                scaled_defect_instance(eps), batch / f"eps_{idx}.json"
            )
        out = tmp_path / "crit.json"
        assert main(["criterion", str(batch), "-o", str(out)]) == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["summary"]["count"] == 4
        assert payload["summary"]["all_agree"] is True
        assert payload["summary"]["contraction_norm_nondecreasing"] is True
        assert payload["summary"]["smallest_eigenvalue_nonincreasing"] is True
        assert payload["summary"]["range_margin_nonincreasing"] is True
        margins = payload["summary"]["range_splitting_margins"]
        assert margins == [row["range_splitting"]["margin"] for row in payload["rows"]]
        assert margins[-1] < margins[0]
        assert [row["file"] for row in payload["rows"]] == [
            f"eps_{i}.json" for i in range(4)
        ]

    @pytest.mark.parametrize("key", ["J", "T", "domain"])
    def test_bad_entry_in_batch_names_its_file(self, tmp_path, capsys, key):
        batch = tmp_path / "batch"
        batch.mkdir()
        payload = {"dim": 2, "J": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                   "T": [[[0, 1], [0, 0]], [[0, 0], [1, 0]]],
                   "domain": [[[1, 0], [0, 0]]]}
        (batch / "a_good.json").write_text(json.dumps(payload), encoding="utf-8")
        row = payload["domain"][0] if key == "domain" else payload[key][0]
        row[0] = [1.0]
        (batch / "b_bad.json").write_text(json.dumps(payload), encoding="utf-8")
        assert main(["criterion", str(batch)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert "b_bad.json" in err and "a_good.json" not in err
        assert "complex entries must be [re, im] pairs" in err

    def test_failing_analysis_in_batch_names_its_file(self, tmp_path, capsys):
        batch = tmp_path / "batch"
        batch.mkdir()
        dump_instance(scaled_defect_instance(1.0), batch / "a_good.json")
        bad = OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([-1j, 1j]))
        dump_instance(bad, batch / "b_bad.json")
        assert main(["criterion", str(batch)]) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {batch / 'b_bad.json'}: completeness criteria "
                       "need a dissipative operator\n")

    def test_empty_directory(self, tmp_path):
        batch = tmp_path / "empty"
        batch.mkdir()
        assert main(["criterion", str(batch)]) == 1


class TestStudyCommand:
    def test_default_flags_small_run(self, tmp_path):
        out = tmp_path / "study.csv"
        code = main(
            ["sl-study", "--n", "16", "--xmax", "10", "--levels", "3",
             "-o", str(out)]
        )
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert lines[0] == "level,n_points,x_max,cayley_norm,gamma_residual"
        norms = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(n <= 1.0 + 1e-10 for n in norms)
        assert all(b >= a - 1e-6 for a, b in zip(norms, norms[1:]))

    def test_zero_imaginary_part_rejected(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(["sl-study", "--imq", "0", "-o", str(out)]) == 1

    @pytest.mark.parametrize("flag", ["--xmax=inf", "--xmax=nan", "--imq=nan",
                                      "--imq=inf", "--h=nan", "--h=-inf"])
    def test_non_finite_flag_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "study.csv"
        assert main(["sl-study", "--n", "16", "--levels", "3", flag,
                     "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--xmax", "1e-300"],  # step^2 underflows to 0
        ["--xmax", "1e308"],  # step^2 overflows
        ["--omega", "0.5:0.52"],  # the mask is empty on the level-0 grid
        ["--h", "-0.8"],  # Robin resonance at step 2.5
        ["--xmax", "1e-76"],  # the graph Gram of the stencil overflows
        ["--xmax", "1e-140"],
    ])
    def test_grid_input_rejected(self, tmp_path, capsys, flags):
        out = tmp_path / "study.csv"
        assert main(["sl-study", "--n", "8", "--levels", "3", *flags,
                     "-o", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_form_below_the_rank_cut_rejected(self, tmp_path, capsys):
        """At x_max = 5e-4 the finest of three levels has |T|_2 > 1.6e10, so
        Im q = 1 is below the rank tolerance and the form would be judged
        zero; at 1e-3 every level keeps it."""
        out = tmp_path / "study.csv"
        argv = ["sl-study", "--n", "8", "--levels", "3", "-o", str(out)]
        assert main([*argv, "--xmax", "5e-4"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: level 2") and "judged zero" in err
        assert not out.exists()
        assert main([*argv, "--xmax", "1e-3"]) == 0
        assert out.exists()

    def test_bad_interval_rejected(self, tmp_path):
        out = tmp_path / "study.csv"
        assert main(
            ["sl-study", "--omega", "0.5", "-o", str(out)]
        ) == 1
        assert main(
            ["sl-study", "--omega", "0.9:0.1", "-o", str(out)]
        ) == 1

    def test_union_of_intervals(self, tmp_path):
        out = tmp_path / "study.csv"
        code = main(
            ["sl-study", "--n", "16", "--xmax", "10", "--levels", "3",
             "--omega", "0:0.25,0.5:0.75", "-o", str(out)]
        )
        assert code == 0

    @pytest.mark.parametrize("flags,code", [
        ([], 0), (["--imq", "0"], 1), (["--omega", "0.5:0.52"], 1),
        (["--xmax", "5e-4"], 1),
    ])
    def test_input_validated_once(self, tmp_path, monkeypatch, flags, code):
        """Every level is validated once per run, by the study itself."""
        calls = []
        real = sturm_liouville.study_levels

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(sturm_liouville, "study_levels", spy)
        monkeypatch.setattr(cli, "study_levels", spy, raising=False)
        out = tmp_path / "study.csv"
        assert main(["sl-study", "--n", "8", "--levels", "3", *flags,
                     "-o", str(out)]) == code
        assert len(calls) == 1

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        # the study draws no random numbers, so there is nothing to seed
        with pytest.raises(SystemExit) as exc:
            main(["sl-study", "--seed", "0", "-o", str(tmp_path / "study.csv")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err

    def test_csv_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sl-study", "--n", "16", "--xmax", "10", "--levels", "3"]
        main(args + ["-o", str(out1)])
        main(args + ["-o", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


class TestSeedFlag:
    @pytest.mark.parametrize("command", [
        ["analyze", "{instance}"],
    ])
    def test_negative_seed_rejected(self, tmp_path, capsys, command):
        instance = tmp_path / "instance.json"
        dump_instance(scaled_defect_instance(1.0), instance)
        out = tmp_path / "out"
        argv = [str(instance) if a == "{instance}" else a for a in command]
        assert main([*argv, "--seed", "-1", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "error: --seed must be non-negative\n"
        assert not out.exists()


@pytest.mark.parametrize("command", [
    ["analyze", "{instance}"],
    ["criterion", "{instance}"],
    ["sl-study", "--n", "8", "--levels", "3"],
])
def test_unwritable_output_path_is_an_input_error(tmp_path, capsys, command):
    instance = tmp_path / "instance.json"
    dump_instance(scaled_defect_instance(1.0), instance)
    argv = [str(instance) if a == "{instance}" else a for a in command]
    out = tmp_path / "missing_dir" / "out"
    assert main([*argv, "-o", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err

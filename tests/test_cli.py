import json
import warnings

import numpy as np
import pytest

from kreinpair import KreinSpace, OperatorWithDomain, analysis, cli, sturm_liouville
from kreinpair.cli import SpecError, dump_instance, load_instance, main
from kreinpair.instances import (random_dissipative, real_spectrum_instance,
                                 scaled_defect_instance)

from conftest import (contains, e, per_entry_decode, per_entry_dump_text,
                      planted_cluster_operator, span)


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

    def test_subnormal_metric_defect(self, tmp_path, capsys):
        # J - J* has subnormal entries: its Frobenius norm is taken with no
        # complex division by them, so no RuntimeWarning before the error
        path = tmp_path / "subnormal_j.json"
        payload = {"dim": 2, "J": [[[1, 0], [0, 0]], [[0, 0], [5e-324, 5e-324]]],
                   "T": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]]}
        path.write_text(json.dumps(payload), encoding="utf-8")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["analyze", str(path)]) == 1
        assert caught == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {path}: J is not a canonical symmetry "
                                "(canonical symmetry must square to the identity)\n")

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


def _two_by_two(domain=True) -> dict:
    """A well-formed instance payload: J = diag(1, -1), two domain vectors."""
    payload = {"dim": 2, "J": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]],
               "T": [[[0, 1], [0, 0]], [[0, 0], [0, 1]]], "domain": None}
    if domain:
        payload["domain"] = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]
    return payload


def _batch_small_operators(seed):
    """The 16 operators of the benchmark's batch_small workload for ``seed``,
    drawn in its order: full, restricted, real spectrum and clusters at
    n = 4, 8, 16, 32."""
    rng = np.random.default_rng(seed)
    for n in (4, 8, 16, 32):
        yield random_dissipative(n, rng, defect=n // 2)
        yield random_dissipative(n, rng, defect=n // 2, domain_dim=3 * n // 4)
        yield real_spectrum_instance(n, rng, n // 4)[0]
        mults = []
        while sum(mults) < n // 2:
            mults.append(min(len(mults) % 4 + 1, n // 2 - sum(mults)))
        yield planted_cluster_operator(n, mults, rng)[0]


@pytest.fixture
def decoded(monkeypatch):
    """The arrays ``load_instance`` decodes (J, T, then the domain vectors
    as rows), in call order."""
    arrays = []
    real = cli._complex_rows

    def spy(*args):
        arrays.append(real(*args))
        return arrays[-1]

    monkeypatch.setattr(cli, "_complex_rows", spy)
    return arrays


def _assert_decoded_as_oracle(path, decoded):
    j, t, cols = per_entry_decode(json.loads(path.read_text(encoding="utf-8")), path)
    expected = [j, t] if cols is None else [j, t, cols.T]
    assert len(decoded) == len(expected)
    for got, want in zip(decoded, expected):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


class TestDecoderOracle:
    """One numpy conversion per matrix against the per-entry decoder it
    replaced: the same bits on valid files, the same message on bad ones."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batch_small_files(self, tmp_path, decoded, seed):
        for k, op in enumerate(_batch_small_operators(seed)):
            path = tmp_path / f"op_{k}.json"
            dump_instance(op, path)
            decoded.clear()
            load_instance(path)
            _assert_decoded_as_oracle(path, decoded)

    def test_edge_numbers(self, tmp_path, decoded):
        # ints past 2**53 round like float(); -0.0 and subnormals keep their bits
        payload = {
            "dim": 2,
            "J": [[[1, -0.0], [5e-324, -0.0]], [[5e-324, 0.0], [-1, 0]]],
            "T": [[[2**53 + 1, 2**63 - 1], [2**63 + 1, 2**64]],
                  [[1.7e308, -0.0], [5e-324, -5e-324]]],
            "domain": [[[2**64, -0.0], [5e-324, 2**53 + 1]],
                       [[2**63 - 1, 0], [-2**63 - 1, 1.7e308]]],
        }
        path = tmp_path / "edges.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        load_instance(path)
        _assert_decoded_as_oracle(path, decoded)
        assert np.signbit(decoded[1][1, 0].imag) and decoded[1][1, 0].imag == 0

    @pytest.mark.parametrize("key, message", [
        ("J", "J is not a canonical symmetry (entries must be finite)"),
        ("T", "entries must be finite"),
        ("domain", "domain vectors: entries must be finite"),
    ])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_decoded_then_rejected(self, tmp_path, decoded, key,
                                              message, value):
        # a bad J stops the load before the domain is read
        payload = _two_by_two(domain=key != "J")
        payload[key][1][1] = [value, value]
        path = tmp_path / "non_finite.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SpecError) as exc:
            load_instance(path)
        assert str(exc.value) == f"{path}: {message}"
        _assert_decoded_as_oracle(path, decoded)

    @pytest.mark.parametrize("entry", [
        [True, 0], [0, False], [None, 0], ["1.5", 0], [1.0], [1, 0, 0],
        [[1, 0], 0], {"re": 1, "im": 0}, 1.0, "ab", [], None, [10**400, 0],
        [0, -10**400],
    ], ids=["true", "false-im", "null", "string", "short", "long", "nested",
            "dict", "bare-number", "string-entry", "empty", "null-entry",
            "huge", "huge-im"])
    @pytest.mark.parametrize("key", ["J", "T", "domain"])
    def test_bad_entry_message(self, tmp_path, key, entry):
        payload = _two_by_two()
        payload[key][1][0] = entry
        self._assert_same_error(tmp_path, payload)

    @pytest.mark.parametrize("key", ["J", "T", "domain"])
    @pytest.mark.parametrize("row", [[[1, 0]], [[1, 0], [0, 0], [0, 0]], None,
                                     {"0": [1, 0]}], ids=["short", "long",
                                                          "null", "dict"])
    def test_bad_row_message(self, tmp_path, key, row):
        payload = _two_by_two()
        payload[key][1] = row
        self._assert_same_error(tmp_path, payload)

    @pytest.mark.parametrize("key", ["J", "T", "domain"])
    def test_bad_entry_named_before_a_later_bad_row(self, tmp_path, key):
        payload = _two_by_two()
        payload[key][0][1] = [True, 0]
        payload[key][1] = [[1, 0]]
        self._assert_same_error(tmp_path, payload)

    @pytest.mark.parametrize("key", ["J", "T"])
    def test_wrong_row_count_message(self, tmp_path, key):
        payload = _two_by_two(domain=False)
        payload[key] = payload[key][:1]
        self._assert_same_error(tmp_path, payload)

    @staticmethod
    def _assert_same_error(tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SpecError) as want:
            per_entry_decode(payload, path)
        with pytest.raises(SpecError) as got:
            load_instance(path)
        assert str(got.value) == str(want.value)


class TestCodecGuards:
    """The per-call costs this front end shed must not creep back."""

    def test_valid_file_decodes_without_per_entry_calls(self, tmp_path,
                                                        monkeypatch):
        op = random_dissipative(64, np.random.default_rng(0), defect=32,
                                domain_dim=48)
        path = tmp_path / "restricted_64.json"
        dump_instance(op, path)
        calls = []
        real = cli._entry_fault

        def spy(entry):
            calls.append(entry)
            return real(entry)

        monkeypatch.setattr(cli, "_entry_fault", spy)
        assert load_instance(path).domain.dim == 48
        assert calls == []
        # the spy sees the per-entry walk that names a bad entry
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["domain"][47][63] = [None, 0]
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(SpecError, match=r"domain\[47\]\[63\]: non-numeric"):
            load_instance(path)
        assert len(calls) == 48 * 64  # J and T passed the scans

    def test_one_parser_per_process(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "op.json"
        dump_instance(scaled_defect_instance(1.0), path)
        built = []
        real = cli.build_parser

        def spy():
            built.append(real())
            return built[-1]

        monkeypatch.setattr(cli, "build_parser", spy)
        cli._parser.cache_clear()
        try:
            out = str(tmp_path / "out.json")
            assert main(["analyze", str(path), "-o", out]) == 0
            # a usage error is bad input
            assert main(["analyze", str(path), "--no-such-flag"]) == 1
            assert main(["criterion", str(path), "-o", out]) == 0
            assert main(["analyze", str(path), "--seed", "-1", "-o", out]) == 1
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1
        assert "--no-such-flag" in capsys.readouterr().err


class TestDumpInstance:
    @pytest.mark.parametrize("case", ["full", "restricted", "signed_zeros"])
    def test_bytes_match_the_per_entry_encoder(self, tmp_path, case):
        rng = np.random.default_rng(9)
        if case == "full":
            op = random_dissipative(12, rng, defect=5)
        elif case == "restricted":
            op = random_dissipative(12, rng, defect=5, domain_dim=7)
        else:
            op = OperatorWithDomain(
                KreinSpace(np.array([[1.0, -0.0], [-0.0, -1.0]])),
                np.array([[complex(-0.0, 1.0), complex(0.0, -0.0)],
                          [complex(-0.0, -0.0), 5e-324j]]))
        path = tmp_path / "op.json"
        dump_instance(op, path)
        assert path.read_bytes() == per_entry_dump_text(op).encode("utf-8")
        if case == "signed_zeros":
            assert b"-0.0" in path.read_bytes()


class TestUnreadableFile:
    """A file that is not UTF-8, or JSON nested past the recursion limit,
    is an input error (exit 1, one line naming the file), not a traceback."""

    CONTENTS = {
        "not_utf8": b'\xff\xfe{"dim":1}',
        "too_deep": b"[" * 5000 + b"]" * 5000,
    }

    @pytest.mark.parametrize("kind", sorted(CONTENTS))
    def test_analyze(self, tmp_path, capsys, kind):
        path = tmp_path / "bad.json"
        path.write_bytes(self.CONTENTS[kind])
        with pytest.raises(SpecError):
            load_instance(path)
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("kind", sorted(CONTENTS))
    def test_criterion_batch_names_the_bad_file(self, tmp_path, capsys, kind):
        batch = tmp_path / "batch"
        batch.mkdir()
        dump_instance(scaled_defect_instance(1.0), batch / "a_good.json")
        (batch / "b_bad.json").write_bytes(self.CONTENTS[kind])
        assert main(["criterion", str(batch)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {batch / 'b_bad.json'}: ")
        assert "a_good.json" not in err and "Traceback" not in err
        assert err.count("\n") == 1


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

    def test_eight_levels(self, tmp_path):
        """n = 8 192 at the finest level, whose masked block is never built
        dense."""
        out = tmp_path / "study.csv"
        assert main(["sl-study", "--levels", "8", "-o", str(out)]) == 0
        lines = out.read_text(encoding="utf-8").strip().split("\n")
        assert [int(line.split(",")[1]) for line in lines[1:]] == \
            [64 * 2**level for level in range(8)]

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
        assert main(["sl-study", "--seed", "0", "-o", str(tmp_path / "study.csv")]) == 1
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
    assert capsys.readouterr().err == (
        f"error: [Errno 2] No such file or directory: '{out}'\n")


@pytest.fixture
def cli_files(tmp_path):
    """``{name: path}`` of the inputs of the exit-code table."""
    files = {name: tmp_path / f"{name}.json"
             for name in ("good", "neither", "no_t", "huge", "missing")}
    dump_instance(scaled_defect_instance(1.0), files["good"])
    dump_instance(OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1j, -1j])),
                  files["neither"])
    files["no_t"].write_text('{"dim": 1, "J": [[[1, 0]]]}', encoding="utf-8")
    dump_instance(OperatorWithDomain(KreinSpace(np.eye(2)),
                                     np.diag([1e160j, 1j])), files["huge"])
    files["empty"] = tmp_path / "empty"
    files["empty"].mkdir()
    files["csv"] = tmp_path / "study.csv"
    return files


MISSING = "{missing}: [Errno 2] No such file or directory: '{missing}'"


@pytest.mark.parametrize("argv, code, message", [
    (["analyze", "{good}"], 0, None),
    (["analyze", "{good}", "--seed", "abc"], 1,
     "argument --seed: invalid int value: 'abc'"),
    (["analyze", "{missing}"], 1, MISSING),
    (["analyze", "{no_t}"], 1, "{no_t}: both 'J' and 'T' are required"),
    (["analyze", "{neither}"], 2, None),
    # the scale family of ROADMAP items 13 and 18, pinned as it stands
    (["analyze", "{huge}"], 2, "restriction to the form kernel is not symmetric"),
    (["criterion", "{empty}"], 1, "{empty}: no .json files in directory"),
    (["criterion", "{missing}"], 1, MISSING),
    (["criterion", "{neither}"], 2,
     "{neither}: completeness criteria need a dissipative operator"),
    (["sl-study", "--omega", "a:b", "-o", "{csv}"], 1, "bad interval 'a:b'"),
    (["sl-study", "--imq", "1e-12", "-o", "{csv}"], 1,
     "level 0, grid step 0.3125: Im q = 1e-12 is at most the rank tolerance "
     "times |T|_2 >= 40.6387, so the dissipation form would be judged zero"),
], ids=["analyze_ok", "analyze_usage", "analyze_missing", "analyze_no_t",
        "analyze_neither", "analyze_1e160", "criterion_empty_dir", "criterion_missing",
        "criterion_neither", "study_bad_omega", "study_tiny_imq"])
def test_exit_code_table(cli_files, capsys, argv, code, message):
    """The exit code and the exact stderr of each branch :func:`main` maps:
    1 for bad input, 2 for a failed check, the message after ``error: ``.
    ``--seed -1``, an unwritable ``-o`` and a batch with a failing file are
    pinned by their own tests."""
    assert main([a.format(**cli_files) for a in argv]) == code
    err = capsys.readouterr().err
    assert err == ("" if message is None else f"error: {message.format(**cli_files)}\n")


@pytest.mark.parametrize("argv", [["sl-study", "--n", "abc"], [], ["bogus"]],
                         ids=["study_bad_n", "no_command", "unknown_command"])
def test_usage_errors_are_bad_input(argv, capsys):
    # argparse itself would exit 2, the code of a failed check
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["-h"], ["analyze", "-h"], ["sl-study", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: kreinpair")


#: the types a report's leaves may have: what ``json.loads`` gives back
PLAIN_TYPES = {bool, int, float, str, type(None)}


def _non_plain_leaves(value, where="payload"):
    """Where ``value`` holds a leaf (anything but a dict or a list) whose
    type is not plain Python, with that type."""
    if isinstance(value, dict):
        return [p for k, v in value.items()
                for p in _non_plain_leaves(v, f"{where}[{k!r}]")]
    if isinstance(value, list):
        return [p for i, v in enumerate(value)
                for p in _non_plain_leaves(v, f"{where}[{i}]")]
    return [] if type(value) in PLAIN_TYPES else [f"{where}: {type(value)!r}"]


def _key_tree(value):
    """The nested keys of ``value``: each dict as a dict of its keys'
    trees, anything else as None."""
    if isinstance(value, dict):
        return {k: _key_tree(v) for k, v in value.items()}
    return None


def _leaves(*keys):
    return dict.fromkeys(keys)


#: the key tree of a ``criterion FILE`` payload, which is also the
#: ``"criterion"`` block of an analysis report
CRITERION_KEYS = {
    "uniform_positivity": _leaves("ok", "smallest_eigenvalue", "largest_eigenvalue"),
    "contraction": _leaves("ok", "norm"),
    "range_splitting": _leaves("ok", "margin"),
    "agree": None,
}

#: the key tree of an analysis report of a dissipative operator; a field
#: added to or renamed in ``CriterionReport`` or ``RealSpectrumReport``
#: changes it
REPORT_KEYS = {
    "classification": None,
    "dims": _leaves("space", "domain", "symmetric_part", "defect_part",
                    "deficiency_space", "boundary_space"),
    **_leaves("green_residual_pair", "green_residual_triple", "boundary_map_gap",
              "splitting_gap", "kernel_gap", "seed"),
    "criterion": CRITERION_KEYS,
    "real_spectrum": _leaves("passed", "real_eigenvalues_op", "real_eigenvalues_sym",
                             "value_mismatch", "subspace_gap", "identity_residual",
                             "kernel_gap", "notes"),
    "riesz": _leaves("min_eigenvalue", "graph_norm"),
    "checks": _leaves("dissipative", "green_identity_pair", "green_identity_triple",
                      "boundary_map_agreement", "splitting_crosscheck",
                      "kernel_is_symmetric_domain", "criterion_agreement",
                      "real_spectrum", "classification_routes_agree",
                      "riesz_form_bounds"),
}

NOT_DISSIPATIVE_KEYS = {**_leaves("classification", "finding", "seed"),
                        "checks": _leaves("dissipative")}

#: the key tree of a ``criterion DIR`` payload's summary
SUMMARY_KEYS = _leaves(
    "count", "all_agree", "contraction_norms", "smallest_gram_eigenvalues",
    "range_splitting_margins", "contraction_norm_nondecreasing",
    "smallest_eigenvalue_nonincreasing", "range_margin_nonincreasing")


def _plain_report_operator(kind):
    rng = np.random.default_rng(29)
    if kind == "worker_n80":
        return random_dissipative(80, rng, defect=16)
    if kind == "restricted":
        return random_dissipative(6, rng, defect=3, domain_dim=4)
    if kind == "real_spectrum":
        return real_spectrum_instance(8, rng, 2)[0]
    if kind == "clusters":
        return planted_cluster_operator(8, [1, 2], rng)[0]
    if kind == "symmetric":
        return OperatorWithDomain(KreinSpace(np.diag([1.0, -1.0])), np.diag([1.0, 2.0]))
    return OperatorWithDomain(KreinSpace(np.eye(2)), np.diag([1j, -1j]))


PLAIN_REPORT_KINDS = ["worker_n80", "restricted", "real_spectrum", "clusters",
                      "symmetric", "not_dissipative"]


class TestPlainReports:
    """The reports reach ``json.dumps`` holding plain Python leaves only, so
    :func:`cli._emit_json` dumps them as they are built, with no walk that
    converts numpy scalars.  Their key trees are pinned too: two blocks are
    built from dataclasses, so a field rename renames a report key."""

    @pytest.fixture
    def emitted(self, monkeypatch):
        payloads = []
        monkeypatch.setattr(cli, "_emit_json",
                            lambda payload, out: payloads.append(payload))
        return payloads

    @pytest.mark.parametrize("kind", PLAIN_REPORT_KINDS)
    def test_analyze_report(self, tmp_path, monkeypatch, emitted, pools, kind):
        monkeypatch.setattr(analysis, "_usable_cpus", lambda: 2)
        path = tmp_path / f"{kind}.json"
        dump_instance(_plain_report_operator(kind), path)
        main(["analyze", str(path)])
        assert _non_plain_leaves(emitted[0]) == []
        assert _key_tree(emitted[0]) == (
            NOT_DISSIPATIVE_KEYS if kind == "not_dissipative" else REPORT_KEYS)
        assert (kind == "worker_n80") == bool(pools)

    def test_criterion_batch(self, tmp_path, emitted):
        batch = tmp_path / "batch"
        batch.mkdir()
        kinds = PLAIN_REPORT_KINDS[:-1]  # the criteria need a dissipative T
        for kind in kinds:
            dump_instance(_plain_report_operator(kind), batch / f"{kind}.json")
        main(["criterion", str(batch)])
        assert emitted[0]["summary"]["count"] == len(kinds)
        assert _non_plain_leaves(emitted[0]) == []
        rows = emitted[0]["rows"]
        assert sorted(emitted[0]) == ["rows", "summary"] and len(rows) == len(kinds)
        assert [_key_tree(row) for row in rows] == [
            {**CRITERION_KEYS, "file": None}] * len(kinds)
        assert _key_tree(emitted[0]["summary"]) == SUMMARY_KEYS
        main(["criterion", str(batch / "restricted.json")])
        assert _non_plain_leaves(emitted[1]) == []
        assert _key_tree(emitted[1]) == CRITERION_KEYS

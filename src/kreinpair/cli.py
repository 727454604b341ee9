"""Batch command-line front end.

Three subcommands: ``analyze`` runs the full pipeline on one operator file
and writes a JSON report, ``criterion`` evaluates the completeness
criteria on a file or a directory batch, ``sl-study`` runs the refinement
study of the discretized Schroedinger operator, in O(n) per level on the
bands of its stencil unless a weak ``--imq`` leaves them unable to decide
the scale of the dissipation form (see
:func:`~kreinpair.sturm_liouville.convergence_study`), and writes a CSV.  None
draws random numbers: the ``--seed`` of ``analyze`` is echoed, nothing more.

Operator files are JSON with complex entries encoded as [re, im] pairs:

    {"dim": 2, "J": [[[1,0],[0,0]],[[0,0],[-1,0]]],
     "T": [[[0,1],[0,0]],[[0,0],[0,-1]]], "domain": null, "tol": 1e-10}

``tol`` (default 1e-10) is the operator's rank tolerance: a singular value or
form eigenvalue at most ``tol`` times the scale of its matrix is zero.  The
gates of the checks are fixed (:mod:`kreinpair.tolerances`).

Cost of a call before the analysis: past ``json.loads``, each matrix (J, T,
the domain vectors) is checked by a few C-level scans and read in one numpy
conversion, so the Python calls are O(1) per matrix and O(dim) for its row
checks, none per entry; :func:`dump_instance` encodes each matrix in one
numpy call too.  The argument parser is built once per process and reused
by every :func:`main` call, which saves time only where one process calls
:func:`main` repeatedly; a ``kreinpair`` or ``python -m kreinpair.cli`` run
builds it once either way.

Exit codes, mapped once in :func:`main`: 0 on success and for ``-h``, 1 on
usage, parse or validation errors (non-finite entries, JSON's ``NaN`` and
``Infinity``, included) and when the output file cannot be written, 2 when
a numerical check fails.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from itertools import chain
from pathlib import Path

import numpy as np

from .analysis import analyze_operator
from .completeness import criterion_report
from .errors import DimensionMismatch, KreinPairError
from .krein import KreinSpace, OperatorWithDomain
from .subspaces import orthonormal_span
from .sturm_liouville import convergence_study, write_study_csv
from .tolerances import CHECK_GATE, DEFAULT_TOL, LOOSE_GATE


class SpecError(ValueError):
    """Malformed instance file or command line."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise :class:`SpecError`, bad
    input like any other; ``add_subparsers`` makes the subcommands' parsers
    of the same class."""

    def error(self, message):
        raise SpecError(message)


#: what ``json.loads`` makes of a JSON number; ``bool`` is not one of them
_NUMBER_TYPES = frozenset((int, float))


def _entry_fault(entry) -> str | None:
    """What is wrong with one [re, im] pair, or None for a valid one."""
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        return "complex entries must be [re, im] pairs"
    if not set(map(type, entry)) <= _NUMBER_TYPES:
        return "non-numeric complex entry"
    try:
        list(map(float, entry))
    except OverflowError as exc:
        # an integer beyond the floating-point range
        return f"complex entry out of range ({exc})"
    return None


def _first_fault(rows, where: str) -> str | None:
    """The message for the first malformed entry of ``rows``, in row-major
    order, or None when every entry is a valid pair."""
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            fault = _entry_fault(entry)
            if fault is not None:
                return f"{where}[{i}][{j}]: {fault}"
    return None


def _complex_rows(rows: list, dim: int, where: str, row_label: str) -> np.ndarray:
    """``rows``, a list of rows of ``dim`` [re, im] pairs, as a complex array.

    The rows are checked one by one; the entries are not.  Two C-level
    scans, a set of pair lengths and a set of number types, check them all,
    and one numpy conversion reads every number as float64, viewed as
    complex128 pairs bit for bit (``re + 1j * im`` would turn an infinite
    imaginary part into a NaN real part).  The type scan keeps what numpy
    would accept silently, ``null``, ``"1.5"`` and ``true``, an error.  Only
    when a check fails are the entries walked, to name the first bad one.
    """
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and len(row) == dim):
            # a bad entry in an earlier row is named first
            raise SpecError(_first_fault(rows[:i], where)
                            or f"{row_label} {i} must have {dim} entries")
    entries = list(chain.from_iterable(rows))
    try:
        if set(map(len, entries)) == {2}:
            numbers = list(chain.from_iterable(entries))
            if set(map(type, numbers)) <= _NUMBER_TYPES:
                pairs = np.array(numbers, dtype=np.float64)
                return pairs.view(np.complex128).reshape(len(rows), dim)
    except (TypeError, OverflowError):
        pass  # an entry without a length, or an integer beyond the float range
    raise SpecError(_first_fault(rows, where))


def _decode_matrix(data, dim: int, where: str) -> np.ndarray:
    if not (isinstance(data, list) and len(data) == dim):
        raise SpecError(f"{where}: expected {dim} rows")
    return _complex_rows(data, dim, where, f"{where}: row")


def load_instance(path) -> OperatorWithDomain:
    """Parse an operator specification file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SpecError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise SpecError(f"{path}: JSON nested too deeply ({exc})") from exc
    if not isinstance(raw, dict):
        raise SpecError(f"{path}: top level must be an object")
    dim = raw.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise SpecError(f"{path}: 'dim' must be an integer")
    if dim < 1:
        raise SpecError(f"{path}: 'dim' must be positive")
    tol = raw.get("tol", DEFAULT_TOL)
    if not (isinstance(tol, (int, float)) and 0 < tol < 1):
        raise SpecError(f"{path}: 'tol' must be in (0, 1)")
    if "J" not in raw or "T" not in raw:
        raise SpecError(f"{path}: both 'J' and 'T' are required")
    j = _decode_matrix(raw["J"], dim, f"{path}: J")
    t = _decode_matrix(raw["T"], dim, f"{path}: T")
    try:
        space = KreinSpace(j, tol=float(tol))
    except KreinPairError as exc:
        raise SpecError(f"{path}: J is not a canonical symmetry ({exc})") from exc
    domain = None
    if raw.get("domain") is not None:
        vectors = raw["domain"]
        if not isinstance(vectors, list) or not vectors:
            raise SpecError(f"{path}: 'domain' must be a nonempty list of vectors")
        cols = _complex_rows(vectors, dim, f"{path}: domain",
                             f"{path}: domain vector").T
        try:
            domain = orthonormal_span(cols, float(tol))
        except KreinPairError as exc:
            raise SpecError(f"{path}: domain vectors: {exc}") from exc
        if domain.dim == 0:
            raise SpecError(f"{path}: domain vectors span the zero subspace")
    try:
        return OperatorWithDomain(space, t, domain)
    except KreinPairError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _encode_rows(m: np.ndarray) -> list:
    """The rows of ``m`` as lists of [re, im] pairs of Python floats."""
    return np.stack([m.real, m.imag], -1).tolist()


def dump_instance(op: OperatorWithDomain, path) -> None:
    """Write an operator in the instance file format (test helper)."""
    payload = {
        "dim": op.space.dim,
        "J": _encode_rows(op.space.J),
        "T": _encode_rows(op.matrix),
        "domain": None if op.domain.is_full else _encode_rows(op.domain.basis.T),
        "tol": op.tol,
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _emit_json(payload: dict, out_path) -> None:
    """Write ``payload``, built of plain Python values only, to ``out_path``,
    or to stdout when it is None."""
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise SpecError("--seed must be non-negative")


def _cmd_analyze(args) -> int:
    _check_seed(args.seed)
    report = analyze_operator(load_instance(args.input), seed=args.seed)
    _emit_json(report, args.output)
    return 0 if all(report["checks"].values()) else 2


def _never_drops(values) -> bool:
    """The trend rule of the summary flags (of the negated values for a
    non-increasing one) and of the study's verdict."""
    return all(b >= a - LOOSE_GATE for a, b in zip(values, values[1:]))


def _criterion_payload(path) -> dict:
    op = load_instance(path)
    try:
        return dataclasses.asdict(criterion_report(op))
    except KreinPairError as exc:
        # named by its file, as the load errors are
        raise KreinPairError(f"{path}: {exc}") from exc


def _cmd_criterion(args) -> int:
    target = Path(args.input)
    if target.is_dir():
        files = sorted(p for p in target.iterdir() if p.suffix == ".json")
        if not files:
            raise SpecError(f"{target}: no .json files in directory")
        rows = []
        for path in files:
            row = _criterion_payload(path)
            row["file"] = path.name
            rows.append(row)
        norms = [r["contraction"]["norm"] for r in rows]
        smallest = [r["uniform_positivity"]["smallest_eigenvalue"] for r in rows]
        margins = [r["range_splitting"]["margin"] for r in rows]
        payload = {
            "rows": rows,
            "summary": {
                "count": len(rows),
                "all_agree": all(r["agree"] for r in rows),
                "contraction_norms": norms,
                "smallest_gram_eigenvalues": smallest,
                "range_splitting_margins": margins,
                "contraction_norm_nondecreasing": _never_drops(norms),
                "smallest_eigenvalue_nonincreasing":
                    _never_drops([-s for s in smallest if s is not None]),
                "range_margin_nonincreasing": _never_drops([-m for m in margins]),
            },
        }
        agree = payload["summary"]["all_agree"]
    else:
        payload = _criterion_payload(target)
        agree = payload["agree"]
    _emit_json(payload, args.output)
    return 0 if agree else 2


def _parse_intervals(text: str) -> list:
    intervals = []
    for chunk in text.split(","):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise SpecError(f"bad interval '{chunk}', expected 'a:b'")
        try:
            a, b = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise SpecError(f"bad interval '{chunk}'") from exc
        intervals.append((a, b))
    return intervals


def _cmd_sl_study(args) -> int:
    intervals = _parse_intervals(args.omega)
    try:
        rows = convergence_study(
            x_max=args.xmax,
            base_n=args.n,
            intervals=intervals,
            imq=args.imq,
            h=args.h,
            levels=args.levels,
        )
    except DimensionMismatch as exc:
        # raised only by its checks of every flag on every level: bad input
        raise SpecError(str(exc)) from exc
    write_study_csv(rows, args.output)
    monotone = _never_drops([r.cayley_norm for r in rows])
    residuals_ok = all(r.form_residual <= CHECK_GATE for r in rows)
    return 0 if (monotone and residuals_ok) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kreinpair",
        description="boundary pairs of dissipative operators, batch pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full pipeline report for one file")
    p_analyze.add_argument("input", help="operator JSON file")
    p_analyze.add_argument("-o", "--output", default=None, help="report path")
    p_analyze.add_argument("--seed", type=int, default=0,
                           help="echoed in the report; the analysis draws "
                                "no random numbers")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_crit = sub.add_parser("criterion", help="completeness criteria report")
    p_crit.add_argument("input", help="operator JSON file or directory")
    p_crit.add_argument("-o", "--output", default=None, help="report path")
    p_crit.set_defaults(func=_cmd_criterion)

    p_study = sub.add_parser("sl-study", help="Cayley-norm refinement study")
    p_study.add_argument("--n", type=int, default=64, help="base grid size")
    p_study.add_argument("--xmax", type=float, default=20.0, help="domain cutoff")
    p_study.add_argument("--levels", type=int, default=4,
                         help="number of doubling levels")
    p_study.add_argument("--omega", default="0:0.5",
                         help="mask intervals as fractions, e.g. 0:0.5,0.7:0.8")
    p_study.add_argument("--h", type=float, default=1.0, help="Robin parameter")
    p_study.add_argument("--imq", type=float, default=1.0,
                         help="imaginary part of the potential on the mask")
    p_study.add_argument("-o", "--output", default="sl_study.csv",
                         help="CSV output path")
    p_study.set_defaults(func=_cmd_sl_study)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: ``parse_args`` leaves a parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (SpecError, OSError) as exc:
        # bad input, an unwritable output path or an unlistable directory
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KreinPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

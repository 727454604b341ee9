"""Batch command-line front end.

Three subcommands: ``analyze`` runs the full pipeline on one operator file
and writes a JSON report, ``criterion`` evaluates the completeness
criteria on a file or a directory batch, ``sl-study`` runs the refinement
study of the discretized Schroedinger operator and writes a CSV.

Operator files are JSON with complex entries encoded as [re, im] pairs:

    {"dim": 2, "J": [[[1,0],[0,0]],[[0,0],[-1,0]]],
     "T": [[[0,1],[0,0]],[[0,0],[0,-1]]], "domain": null, "tol": 1e-10}

``tol`` (default 1e-10) is the operator's rank tolerance: a singular value or
form eigenvalue at most ``tol`` times the scale of its matrix is zero.  The
gates of the checks are fixed (:mod:`kreinpair.tolerances`).

Exit codes: 0 on success, 1 on parse or validation errors (non-finite
entries, JSON's ``NaN`` and ``Infinity``, included), 2 when a numerical
check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import _criterion_dict, analyze_operator
from .completeness import criterion_report
from .errors import DimensionMismatch, KreinPairError
from .krein import KreinSpace, OperatorWithDomain
from .subspaces import orthonormal_span
from .sturm_liouville import convergence_study, study_levels, write_study_csv
from .tolerances import CHECK_GATE, DEFAULT_TOL, LOOSE_GATE


class SpecError(ValueError):
    """Malformed instance file."""


def _decode_complex(entry, where: str) -> complex:
    if not (isinstance(entry, (list, tuple)) and len(entry) == 2):
        raise SpecError(f"{where}: complex entries must be [re, im] pairs")
    re, im = entry
    if any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in (re, im)):
        raise SpecError(f"{where}: non-numeric complex entry")
    try:
        return complex(re, im)
    except OverflowError as exc:
        # an integer beyond the floating-point range
        raise SpecError(f"{where}: complex entry out of range ({exc})") from exc


def _decode_matrix(data, dim: int, where: str) -> np.ndarray:
    if not (isinstance(data, list) and len(data) == dim):
        raise SpecError(f"{where}: expected {dim} rows")
    out = np.zeros((dim, dim), dtype=np.complex128)
    for i, row in enumerate(data):
        if not (isinstance(row, list) and len(row) == dim):
            raise SpecError(f"{where}: row {i} must have {dim} entries")
        for j, entry in enumerate(row):
            out[i, j] = _decode_complex(entry, f"{where}[{i}][{j}]")
    return out


def load_instance(path) -> OperatorWithDomain:
    """Parse an operator specification file."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise SpecError(f"{path}: {exc}") from exc
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
    j = _decode_matrix(raw["J"], dim, "J")
    t = _decode_matrix(raw["T"], dim, "T")
    try:
        space = KreinSpace(j, tol=float(tol))
    except KreinPairError as exc:
        raise SpecError(f"{path}: J is not a canonical symmetry ({exc})") from exc
    domain = None
    if raw.get("domain") is not None:
        vectors = raw["domain"]
        if not isinstance(vectors, list) or not vectors:
            raise SpecError(f"{path}: 'domain' must be a nonempty list of vectors")
        cols = []
        for i, vec in enumerate(vectors):
            if not (isinstance(vec, list) and len(vec) == dim):
                raise SpecError(f"{path}: domain vector {i} must have {dim} entries")
            cols.append(
                [_decode_complex(e, f"domain[{i}][{k}]") for k, e in enumerate(vec)]
            )
        try:
            domain = orthonormal_span(np.array(cols, dtype=np.complex128).T, float(tol))
        except KreinPairError as exc:
            raise SpecError(f"{path}: domain vectors: {exc}") from exc
        if domain.dim == 0:
            raise SpecError(f"{path}: domain vectors span the zero subspace")
    try:
        return OperatorWithDomain(space, t, domain)
    except KreinPairError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def dump_instance(op: OperatorWithDomain, path) -> None:
    """Write an operator in the instance file format (test helper)."""
    payload = {
        "dim": op.space.dim,
        "J": _encode_matrix(op.space.J),
        "T": _encode_matrix(op.matrix),
        "domain": None
        if op.domain.is_full
        else [[[float(v.real), float(v.imag)] for v in col] for col in
              op.domain.basis.T],
        "tol": op.tol,
    }
    _write_json(payload, path)


def _json_ready(value):
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def _write_json(payload: dict, path) -> None:
    text = json.dumps(_json_ready(payload), sort_keys=True, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def _emit_json(payload: dict, out_path) -> None:
    if out_path is None:
        sys.stdout.write(
            json.dumps(_json_ready(payload), sort_keys=True, indent=2) + "\n"
        )
    else:
        _write_json(payload, out_path)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise SpecError("--seed must be non-negative")


def _cmd_analyze(args) -> int:
    try:
        _check_seed(args.seed)
        op = load_instance(args.input)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        report = analyze_operator(op, seed=args.seed)
    except KreinPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit_json(report, args.output)
    return 0 if all(report["checks"].values()) else 2


def _criterion_payload(path) -> dict:
    return _criterion_dict(criterion_report(load_instance(path)))


def _cmd_criterion(args) -> int:
    target = Path(args.input)
    try:
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
            smallest = [
                r["uniform_positivity"]["smallest_eigenvalue"] for r in rows
            ]
            finite = [s for s in smallest if s is not None]
            margins = [r["range_splitting"]["margin"] for r in rows]
            payload = {
                "rows": rows,
                "summary": {
                    "count": len(rows),
                    "all_agree": all(r["agree"] for r in rows),
                    "contraction_norms": norms,
                    "smallest_gram_eigenvalues": smallest,
                    "range_splitting_margins": margins,
                    "contraction_norm_nondecreasing": all(
                        b >= a - LOOSE_GATE for a, b in zip(norms, norms[1:])
                    ),
                    "smallest_eigenvalue_nonincreasing": all(
                        b <= a + LOOSE_GATE for a, b in zip(finite, finite[1:])
                    ),
                    "range_margin_nonincreasing": all(
                        b <= a + LOOSE_GATE for a, b in zip(margins, margins[1:])
                    ),
                },
            }
            agree = payload["summary"]["all_agree"]
        else:
            payload = _criterion_payload(target)
            agree = payload["agree"]
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KreinPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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
        if not (0.0 <= a < b <= 1.0):
            raise SpecError(f"interval '{chunk}' must satisfy 0 <= a < b <= 1")
        intervals.append((a, b))
    return intervals


def _cmd_sl_study(args) -> int:
    try:
        for flag, value in {"--xmax": args.xmax, "--imq": args.imq,
                            "--h": args.h}.items():
            if not math.isfinite(value):
                raise SpecError(f"{flag} must be finite")
        if args.imq <= 0:
            raise SpecError("--imq must be strictly positive")
        if args.n < 8:
            raise SpecError("--n must be at least 8")
        if args.levels < 3:
            raise SpecError("--levels must be at least 3")
        if args.xmax <= 0:
            raise SpecError("--xmax must be positive")
        _check_seed(args.seed)
        intervals = _parse_intervals(args.omega)
        # grid, mask and Robin resonance of every level, before dense work
        study_levels(args.xmax, args.n, intervals, args.imq, args.h, args.levels)
    except (SpecError, DimensionMismatch) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = convergence_study(
            x_max=args.xmax,
            base_n=args.n,
            intervals=intervals,
            imq=args.imq,
            h=args.h,
            levels=args.levels,
            seed=args.seed,
        )
    except KreinPairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    write_study_csv(rows, args.output)
    norms = [r.cayley_norm for r in rows]
    monotone = all(b >= a - LOOSE_GATE for a, b in zip(norms, norms[1:]))
    residuals_ok = all(r.form_residual <= CHECK_GATE for r in rows)
    return 0 if (monotone and residuals_ok) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kreinpair",
        description="boundary pairs of dissipative operators, batch pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="full pipeline report for one file")
    p_analyze.add_argument("input", help="operator JSON file")
    p_analyze.add_argument("-o", "--output", default=None, help="report path")
    p_analyze.add_argument("--seed", type=int, default=0,
                           help="seed for residual sampling")
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
    p_study.add_argument("--seed", type=int, default=0,
                         help="seed for residual sampling")
    p_study.add_argument("-o", "--output", default="sl_study.csv",
                         help="CSV output path")
    p_study.set_defaults(func=_cmd_sl_study)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

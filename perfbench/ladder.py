"""Size-ladder report: mean time per ``analyze_operator`` call by stage.

    python3 perfbench/ladder.py

Input is ``random_dissipative(n, default_rng(1))`` for each n in
``SIZES``, rebuilt before each call so no cached state carries over, and
analysed in-process with single-threaded BLAS and the tracer installed.
Prints a markdown table (mean ms per operator for the whole call and for
the real-spectrum check, the boundary triple, the deficiency space, the
completeness criterion and the splitting, plus SVD counts per operator)
and then the same rows as one JSON line.  Each size runs until a second of
traced time has passed, at least once.  This is a report, not a workload:
it takes about a minute and checks only that every report passes its own
checks.
"""

import os

# single-threaded BLAS; this must happen before numpy is first imported
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
# column -> span label, inclusive time per operator
COLUMNS = {
    "analyze_operator": "analysis.analyze_operator",
    "real_spectrum": "boundary.real_spectrum_report",
    "build_triple": "boundary.build_boundary_triple",
    "deficiency_space": "decomposition.deficiency_space",
    "criterion": "completeness.criterion_report",
    "split": "decomposition.split",
}
SIZES = (8, 32, 64, 128, 256)
MIN_SECONDS = 1.0  # traced time per size; at least one call is made


def main() -> int:
    src = ROOT / "src"
    if not (src / "kreinpair" / "__init__.py").is_file():
        print(f"error: no kreinpair package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy as np

    from kreinpair import analysis
    from kreinpair.instances import random_dissipative
    from tracing import LayerTotals, Tracer
    from workloads import fresh

    tracer = Tracer()
    analysis.analyze_operator(random_dissipative(8, np.random.default_rng(0)))
    rows = []
    for n in SIZES:
        op = random_dissipative(n, np.random.default_rng(1))
        totals = LayerTotals()
        reps = 0
        while reps == 0 or totals.incl["analysis.analyze_operator"] < MIN_SECONDS:
            with tracer:
                report = analysis.analyze_operator(fresh(op))
            totals.add(tracer.drain())
            reps += 1
            if not all(report["checks"].values()):
                print(f"error: n={n}: a check failed: {report['checks']}",
                      file=sys.stderr)
                return 1
        row = {"n": n, "calls": reps}
        for column, label in COLUMNS.items():
            row[f"{column}_ms"] = 1e3 * totals.incl.get(label, 0.0) / reps
        row["svd_calls"] = totals.calls.get("linalg.svd", 0) / reps
        row["norm2_calls"] = totals.calls.get("linalg.norm2", 0) / reps
        rows.append(row)

    header = ["n", *COLUMNS, "svd_calls", "norm2_calls"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        cells = [str(row["n"])]
        cells += [f"{row[f'{c}_ms']:.1f}" for c in COLUMNS]
        cells += [f"{row['svd_calls']:.0f}", f"{row['norm2_calls']:.0f}"]
        print("| " + " | ".join(cells) + " |")
    print(json.dumps({"unit": "ms per operator", "rows": rows}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

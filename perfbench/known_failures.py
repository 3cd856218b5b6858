"""Re-run the first-order-hessian catalog row at every (mu, L) the benchmark knows.

    python3 perfbench/known_failures.py

Known failure KF1 (NOTES.md): at 16 of the 30 points of MUS x LS the row
returns k=0 instead of mu/(1 - mu/L).  The catalog workload draws its (mu, L)
only from the points where every row passes (workloads.CATALOG_POINTS), so
KF1 is reported here and not in the benchmark's fail_frac.  Prints one line
per point and exits with code 1 while any point fails, or if a point of
CATALOG_POINTS fails.  Takes about 15 s.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from lyapsearch.analysis import enumerate_pairs, verify_catalog  # noqa: E402
from lyapsearch.systems import CATALOG  # noqa: E402

ROW = "first-order-hessian"


def main() -> int:
    groups = {ROW: enumerate_pairs(CATALOG[ROW])}
    failing = []
    for mu in workloads.MUS:
        for L in workloads.LS:
            row = verify_catalog(mu, L, jobs=1, rows=[ROW], enumerations=groups).rows[0]
            drawn = (mu, L) in workloads.CATALOG_POINTS
            print(f"mu={mu:g} L={L:g}: observed {row.observed}, expected {row.expected}, "
                  f"{'pass' if row.passed else 'FAIL'}"
                  f"{' (catalog workload draws this point)' if drawn else ''}")
            if not row.passed:
                failing.append((mu, L, drawn))
    print(f"{len(failing)} of {len(workloads.MUS) * len(workloads.LS)} points fail")
    if any(drawn for *_, drawn in failing):
        print("error: a point the catalog workload draws fails", file=sys.stderr)
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())

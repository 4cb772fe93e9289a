"""Write tests/data/rate_matrix_c400.npz: samples of a 40-digit R at c = 400.

    python tests/make_rate_matrix_reference.py

A 40-digit R at c = 400 (``reference_rate_matrix`` in test_qbd.py) takes
about half a minute per point in mpmath, too slow for the suite, so it is
formed here once and a fixed sample of each, rounded to float64, is
stored; test_qbd.py checks ``qbd.rate_matrix`` against it.  Per point the
sample is rows 0 and 200, columns 200 and 400, the diagonal, the first two
superdiagonals, and the 200 entries where ``qbd.rate_matrix`` at the time
of writing is furthest from the reference, relatively; only entries whose
reference exceeds 1e-290 are kept.  The file records this command, the
digits and the mpmath version.  pytest does not collect this script.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

from mmcsetup import qbd  # noqa: E402
from test_qbd import reference_rate_matrix, rq  # noqa: E402

OUT = HERE / "data" / "rate_matrix_c400.npz"
DPS = 40
C = 400
# (rho, alpha): moderate, fast setup and two slow-setup points
POINTS = [(0.5, 0.7), (0.3, 1e3), (0.95, 1e-4), (0.3, 1e-8)]
FLOOR = 1e-290  # smaller references are not stored
N_WORST = 200


def sample(p):
    """(i, k, reference) of the stored entries of R at p, sorted by (i, k)."""
    ref = reference_rate_matrix(p, dps=DPS)
    want = np.array([[float(v) for v in row] for row in ref])  # nearest float64
    i, k = np.triu_indices(p.c + 1)
    keep = want[i, k] > FLOOR
    i, k = i[keep], k[keep]
    got = qbd.rate_matrix(p)
    err = np.abs(got[i, k] - want[i, k]) / want[i, k]
    picked = (i == 0) | (i == 200) | (k == 200) | (k == p.c) | (k - i <= 2)
    picked[np.argsort(err, kind="stable")[-N_WORST:]] = True
    return i[picked], k[picked], want[i[picked], k[picked]]


def main() -> None:
    arrays = {
        "points": np.array([(rho, alpha, C) for rho, alpha in POINTS]),
        "command": np.array("python tests/make_rate_matrix_reference.py"),
        "dps": np.array(DPS),
        "mpmath_version": np.array(mpmath.__version__),
        "floor": np.array(FLOOR),
    }
    for n, (rho, alpha) in enumerate(POINTS):
        i, k, r = sample(rq(rho, alpha, C))
        arrays[f"i{n}"], arrays[f"k{n}"], arrays[f"r{n}"] = i.astype(np.int16), k.astype(np.int16), r
        print(f"(rho, alpha, c) = ({rho}, {alpha}, {C}): {len(r)} entries", flush=True)
    OUT.parent.mkdir(exist_ok=True)
    np.savez_compressed(OUT, **arrays)


if __name__ == "__main__":
    main()

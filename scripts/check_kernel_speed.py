"""Gates on the speed of two kernels against the loops they replaced.

Each check runs a kernel against the loop kept as its test reference; the
runs alternate and each side keeps its best of ROUNDS. A ratio of the two
stands up to a shared runner where a time in seconds would not; 1.0 would
mean the gain is gone. Each prints one line ("ok: ..." or the problems
found) and exits 1 when a gate fails:

    ar
        ``fitting.roll_ar`` against the per-step reversed-zip loop
        (``tests/test_fitting.py``) on a 2-path, 1200-step AR(3) stack with
        1198 controls: the same bits in at most AR_BOUND of the loop's time
        (0.45-0.55 measured);
    powers
        ``oracle.build_problem``'s doubling table against the
        one-product-per-step loop (``tests/test_oracle.py``) on a 1200-step
        AR(3): the two multiply in different orders, so they must agree to
        rtol 1e-12, in at most POWERS_BOUND of the loop's time (0.06
        measured).

Usage: PYTHONPATH=src python scripts/check_kernel_speed.py ar|powers
"""

from __future__ import annotations

import pathlib
import random
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
AR_BOUND = 0.8
POWERS_BOUND = 0.25
ROUNDS = 20


def _best(sides: dict) -> dict:
    """Each side's best time of ROUNDS, the sides alternating."""
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(ROUNDS):
        for name, side in sides.items():
            start = time.perf_counter()
            side()
            best[name] = min(best[name], time.perf_counter() - start)
    return best


def ar() -> tuple[list, str]:
    from test_fitting import roll_ar_by_reversed_zip

    from gapfill.fitting import roll_ar

    rng = random.Random(19)
    args = ([(0.6, -0.25, 0.3), (1.1, -0.5, 0.2)], [0.4, -1.3],
            [[rng.uniform(-3, 3) for _ in range(3)] for _ in range(2)], 1200,
            [[rng.gauss(0, 1) for _ in range(1198)] for _ in range(2)])
    best = _best({"kernel": lambda: roll_ar(*args), "loop": lambda: roll_ar_by_reversed_zip(*args)})
    ratio = best["kernel"] / best["loop"]
    problems = []
    if roll_ar(*args).tobytes() != roll_ar_by_reversed_zip(*args).tobytes():
        problems.append("roll_ar's bits differ from the reference loop")
    if ratio > AR_BOUND:
        problems.append(f"roll_ar takes {ratio:.2f} of the reference loop's time, "
                        f"expected at most {AR_BOUND}")
    return problems, f"ok: same bits, {ratio:.2f} of the reference loop's time"


def powers() -> tuple[list, str]:
    from test_oracle import assert_powers_close, descending_powers_by_product

    from gapfill.fitting import ArModel
    from gapfill.oracle import _transition_matrix, build_problem

    model = ArModel(a=(0.6, -0.25, 0.3), b=0.0)
    sides = {
        "doubling": lambda: build_problem(model, 1200, 1.0).steps,
        "by_product": lambda: descending_powers_by_product(_transition_matrix(model), 1200)[:, :1, :1],
    }
    best = _best(sides)
    ratio = best["doubling"] / best["by_product"]
    problems = []
    try:
        assert_powers_close(sides["doubling"](), sides["by_product"](), rtol=1e-12)
    except AssertionError:
        problems.append("build_problem's steps differ from the reference loop beyond rtol 1e-12")
    if ratio > POWERS_BOUND:
        problems.append(f"build_problem takes {ratio:.2f} of the reference loop's time, "
                        f"expected at most {POWERS_BOUND}")
    return problems, f"ok: agree to rtol 1e-12, {ratio:.2f} of the reference loop's time"


CHECKS = {"ar": ar, "powers": powers}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1 or argv[0] not in CHECKS:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "tests"))
    problems, ok = CHECKS[argv[0]]()
    print("; ".join(problems) or ok)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

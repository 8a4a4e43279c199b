"""Run the full invariant suite plus the dimension-concentration check.

The suite re-derives every structural property on fresh random instances:
schedule ranges, interval nesting and separation, continuity, convexity and
slope bounds of the 1D tables, agreement of the two evaluators, and the
Lipschitz, nonnegativity, stationarity-floor, and directional-derivative
properties of the embedded objective.  The second half shows the suite
catching an injected slope fault (each table the suite builds gets one slope
raised by 1e-3, through a patch of the ``build_r`` it calls), then measures
how rarely a random direction aligns with a trajectory in growing dimension,
up to d = 10^6, where pgd runs as three numbers per run (see
``concentration_check``).
"""

import os
from unittest import mock

from nshard import build_r, concentration_check, invariant_suite
from nshard.hard1d import PiecewiseAffine1D

OUT = os.path.join(os.path.dirname(__file__), "out")


def main():
    os.makedirs(OUT, exist_ok=True)
    report = invariant_suite(seed=0)
    print(report.summary())
    report.write_csv(os.path.join(OUT, "report.csv"))
    print(f"\nwrote {os.path.join(OUT, 'report.csv')}")

    print("\n== injected fault (a slope of each table bumped by 1e-3) ==")
    with mock.patch("nshard.verify.build_r", bumped_build_r):
        bad = invariant_suite(seed=0)
    for check in bad.failed():
        print(f"  caught: {check.name} measured={check.measured:.3e}")

    print("\n== alignment concentration over dimension ==")
    for d in (20, 80, 320, 10**4, 10**6):
        row, max_alignment = concentration_check(d=d, T=25, n_runs=120, seed=2)
        flag = " [vacuous]" if row["vacuous"] else ""
        print(f"  d={d:7d}: exceed freq={row['estimate']:.4f} "
              f"max alignment={max_alignment:.4f} bound={row['bound']:.3g}{flag}")


def bumped_build_r(bits, sched):
    """build_r with the first slope of its first equal-slope adjacent pair raised by 1e-3, which inverts the
    slope order there: the table is no longer convex."""
    table = build_r(bits, sched)
    slopes = list(table.slopes)
    j = next((j for j in range(len(slopes) - 1) if slopes[j] == slopes[j + 1]), 0)
    slopes[j] += 1e-3
    return PiecewiseAffine1D(list(table.breakpoints), list(table.values), slopes)


if __name__ == "__main__":
    main()

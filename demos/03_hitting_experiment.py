"""Monte-Carlo hitting and progress experiments against the analytic bounds.

Draws a fresh bit string per run, lets an algorithm work on the shifted 1D
hard function, and compares three empirical quantities to their bounds: the
probability of any iterate landing within rho of the hidden minimizer, the
probability of the progress process reaching depth k, and the distribution
of per-step depth jumps (bounded by 2^-(m-1)).  Bounds that exceed 1 are
reported as vacuous rather than checked.

The second part tests the deep bound P(depth >= k within T steps) <= 4T/k
where it is not vacuous: k = 21 at depth N = 24, the binary64 cap, with
T = 1, 3 and 5, so 4T/k < 1.  The hit bound 16T / sqrt(log2(1/rho)) stays
vacuous there.  Near the minimizer binary64 resolves distances down to about
2^-53, so a rho that a float can tell apart from 0 has log2(1/rho) <= 53 and
a bound of at least 16 / sqrt(53) > 2 per step; the rho that the
construction pairs with depth k, 2^-(4k)^2 = 2^-7056, is not a float at all.
"""

import time

from nshard import RandomSearch, PerturbedGD, mc_hitting

T, K, N, RUNS = 40, 5, 6, 600
DEEP_K, DEEP_N, DEEP_RUNS, DEEP_TS = 21, 24, 20_000, (1, 3, 5)
FINEST_LOG2_INV_RHO = 53.0  # the finest rho binary64 resolves near the minimizer


def _print_row(row):
    flag = "  [vacuous bound]" if row["vacuous"] else ""
    print(f"  {row['check']:>14s}: estimate={row['estimate']:.5f} "
          f"wilson=({row['wilson_lo']:.5f}, {row['wilson_hi']:.5f}) "
          f"bound={row['bound']:.4g}{flag}")


def main():
    for algo in (RandomSearch(radius=1.0), PerturbedGD()):
        rows = mc_hitting(algo, T=T, k=K, N=N, n_runs=RUNS, seed=1, log2_inv_rho=float((4 * K) ** 2))
        print(f"== {algo.name}: T={T}, k={K}, N={N}, {RUNS} runs ==")
        for row in rows:
            _print_row(row)
        print()

    print(f"== the deep bound 4T/k at k={DEEP_K}, N={DEEP_N}, {DEEP_RUNS} runs per row; "
          f"hit rows at rho=2^-{FINEST_LOG2_INV_RHO:g} ==")
    start = time.perf_counter()
    for algo in (RandomSearch(radius=1.0), PerturbedGD()):
        for steps in DEEP_TS:
            rows = mc_hitting(algo, T=steps, k=DEEP_K, N=DEEP_N, n_runs=DEEP_RUNS, seed=2,
                              log2_inv_rho=FINEST_LOG2_INV_RHO)
            print(f"-- {algo.name}, T={steps}")
            for row in rows[:2]:
                _print_row(row)
    print(f"({time.perf_counter() - start:.1f} s)")


if __name__ == "__main__":
    main()

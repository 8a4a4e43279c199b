"""Query the local oracle and run the algorithm zoo on a capped instance.

Every algorithm sees only (value, minimal-norm subgradient) pairs; the bit
string, the cap vector, and the minimizer stay hidden.  The closing section
certifies, for each iterate with value at least 1, that a nearby point is
substantially lower, which is exactly what makes these objectives hard: the
algorithm sits next to large decrease it cannot see.
"""

import numpy as np

from nshard import (
    build_instance,
    local_decrease_certificate,
    make_algorithm,
    progress_process,
    query,
    run,
)

D, T, RHO, SEED = 10, 25, 1e-3, 7


def main():
    inst = build_instance(D, "01011", rho=RHO, seed=SEED)
    print(f"instance: d={D} bits=01011 ||w||={np.linalg.norm(inst.w):.3e} mu={inst.mu:.3e}")
    r = query(inst, np.zeros(D))
    print(f"oracle at the origin: f={r.value:.6f}, ||g||={np.linalg.norm(r.subgrad):.6f}")
    print(f"value floor 1 is invisible: f(x*)={inst.eval_f(inst.x_star):.9f} hides at x*={inst.x_star[-1]:.6f}")

    print(f"\n== running the zoo (T={T}) ==")
    for name in ("sgd", "pgd", "random", "grid"):
        traj = run(make_algorithm(name), inst, np.zeros(D), T, seed=SEED)
        depth = progress_process(traj.points[:, -1], inst.bits)[-1]
        print(f"  {name:6s}: min f={traj.values.min():.6f}  final depth={depth}  "
              f"min ||g||={traj.subgrad_norms.min():.4f}")

    print("\n== local decrease certificates (pgd iterates, delta=0.5) ==")
    traj = run(make_algorithm("pgd"), inst, np.zeros(D), 8, seed=SEED)
    for t in range(traj.T):
        cert = local_decrease_certificate(inst, traj.points[t], 0.5)
        print(f"  t={t + 1}: f={traj.values[t]:.6f} -> witness {cert.witness_value:.6f} "
              f"(target {cert.target:.6f}) certified={cert.ok}")


if __name__ == "__main__":
    main()

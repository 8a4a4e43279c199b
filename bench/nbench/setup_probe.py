"""Set-up probe, run in a fresh interpreter: import nshard and build one instance.

    python3 setup_probe.py <src-dir> '<instance spec as JSON>'

Prints the seconds from before ``import nshard`` to the built instance.  The
process starts with empty schedule caches, so this is what a user pays before
a workload's first query.
"""

import time

t0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])
spec = json.loads(sys.argv[2])

import numpy as np  # noqa: E402

import nshard  # noqa: E402

bits = nshard.random_bits(spec["N"], np.random.default_rng(spec["seed"]))
build = {
    "capped": lambda: nshard.build_instance(spec["d"], bits, spec["rho"], seed=spec["seed"]),
    "1d": lambda: nshard.build_1d_instance(bits),
    "table": lambda: nshard.build_r(bits),
}[spec["kind"]]
build()
print(repr(time.perf_counter() - t0))

"""Hard piecewise-affine instances for nonsmooth optimization.

Builds randomized convex 1D functions with nested-interval structure, embeds
them in R^d behind a smooth directional cap, exposes the result through a
local first-order oracle (value + minimal-norm Clarke subgradient), and ships
the experiment and certification machinery for every checkable property of
the construction.  The package exports what the command line, the demos and
the README use; everything else is reached through its module.
"""

from .schedule import AngleSchedule, DEFAULT_SCHEDULE
from .intervals import interval, locate, random_bits
from .hard1d import build_1d_instance, build_hbar, build_r, eval_r, write_profile_csv
from .embed import build_instance
from .oracles import PerturbedGD, RandomSearch, make_algorithm, query, run
from .verify import (
    concentration_check,
    invariant_suite,
    local_decrease_certificate,
    mc_hitting,
    progress_process,
)

__version__ = "0.1.0"

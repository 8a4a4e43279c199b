"""Hard piecewise-affine instances for nonsmooth optimization.

Builds randomized convex 1D functions with nested-interval structure, embeds
them in R^d behind a smooth directional cap, exposes the result through a
local first-order oracle (value + minimal-norm Clarke subgradient), and ships
the experiment and certification machinery for every checkable property of
the construction.
"""

from .schedule import AngleSchedule, DEFAULT_SCHEDULE
from .intervals import (
    AffineMap,
    Interval,
    as_bits,
    bits_to_str,
    interval,
    locate,
    phi,
    random_bits,
    separation_depth,
    separation_margins,
)
from .hard1d import (
    OneDimInstance,
    PiecewiseAffine1D,
    ScheduleParams,
    build_1d_instance,
    build_hbar,
    build_r,
    eval_r,
    schedule_params,
    write_profile_csv,
)
from .embed import (
    HardInstance,
    SubgradientSet,
    build_h,
    build_instance,
    cap_slope,
    cap_value,
    choose_w_mu,
    load_instance,
    save_instance,
)
from .oracles import (
    ALGORITHMS,
    GridSearch,
    OracleResponse,
    PerturbedGD,
    RandomSearch,
    SubgradientDescent,
    Trajectory,
    make_algorithm,
    pgd_step,
    query,
    run,
)
from .verify import (
    CertificateReport,
    CertResult,
    ConcentrationReport,
    FlowResult,
    HittingReport,
    ProgressProcess,
    SuiteParams,
    concentration_check,
    invariant_suite,
    local_decrease_certificate,
    mc_hitting,
    progress_process,
    subgradient_flow,
    wilson_interval,
)

__version__ = "0.1.0"

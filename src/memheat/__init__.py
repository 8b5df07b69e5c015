"""memheat: a desk-scale laboratory for heat flow with fading memory.

Simulates a reaction-diffusion equation whose heat flux remembers the past
through a singularly scaled convolution kernel, coupled to dynamic
(Wentzell) boundary conditions, together with its instantaneous limit, and
measures the quantitative stability statements that connect the two.
"""

from .domain import (
    DiscreteDomain,
    StateField,
    apply_wentzell,
    build_domain,
    inner_v1,
    inner_x2,
    norm_v1_sq,
    norm_v2_sq,
    norm_x2_sq,
    solve_wentzell_shifted,
)
from .memory import (
    DissipationReport,
    HistoryField,
    HistoryGrid,
    KernelSpec,
    advance_history,
    build_history_grid,
    convolve_wentzell,
    dissipation_check,
    exponential_kernel,
    history_from_profile,
    history_oracle,
    memory_norm_sq,
    tail_function,
    zero_history,
)
from .physics import (
    NonlinearitySpec,
    SmallnessReport,
    check_smallness,
    eval_F,
    make_nonlinearity,
)
from .solver import (
    ProblemConfig,
    SystemState,
    TrajectoryRecord,
    evolve,
    evolve_compact_split,
    evolve_contraction_pair,
    lift,
    step_p0,
    step_peps,
)

from .experiments import (
    DecayFit,
    EnergyDecayReport,
    GateError,
    HolderReport,
    PhiDecayReport,
    SweepResult,
    TransitivityReport,
    energy_decay_experiment,
    fit_decay,
    gronwall_check,
    gronwall_instance,
    gronwall_random_suite,
    holder_pair_gap,
    holder_sweep,
    phi_decay_experiment,
    robustness_sweep,
    smooth_profile,
    transitivity_chain_check,
    transitivity_combine,
)

__version__ = "0.1.0"

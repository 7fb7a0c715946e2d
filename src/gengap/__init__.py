"""Hard convex instances where gradient methods memorize their training set.

The package builds piecewise-linear convex losses whose gradient dynamics
write the training set into the iterate, decode it, and steer toward a
direction the data never covered — so the training risk stays small while
the population risk does not.  Three families are provided (full-batch,
one-pass stochastic, and a deterministic small-stepsize construction),
together with closed-form trajectory predictions, risk estimators,
randomized smoothing, and pinned acceptance suites.
"""

from .codebook import (
    Codebook,
    coherence,
    default_dim,
    generate_codebook,
    load_codebook,
    save_codebook,
)
from .encoding import (
    EncodingLayout,
    alpha_gd,
    alpha_sgd,
    decode_blocks,
    margin_eps,
    subset_count,
)
from .errors import (
    AmbiguousBlock,
    AttemptsExhausted,
    DegenerateDraw,
    EventViolated,
    GengapError,
    InfeasibleForcing,
    InvalidClosedForm,
    OracleDomain,
    OutOfRange,
    ReferenceTooLarge,
)
from .instance_gd import (
    GdDataset,
    GdParams,
    expected_gd_iterate,
    good_event_gd,
    grad_gd,
    grad_gd_batch,
    loss_gd,
    loss_gd_samples,
    population_risk_closed_gd,
)
from .instance_sgd import (
    SgdDataset,
    SgdParams,
    event_state_sgd,
    expected_sgd_iterate,
    force_good_event_sgd,
    good_event_sgd,
    grad_sgd,
    loss_sgd,
    loss_sgd_samples,
    sample_sgd_dataset,
)
from .instance_smallstep import (
    SmallstepParams,
    expected_smallstep_iterate,
    grad_smallstep,
    loss_smallstep,
)
from .optim import (
    Trajectory,
    gradient_descent,
    load_trajectory,
    project_ball,
    run_gd,
    run_sgd,
    run_smallstep,
    save_trajectory,
    suffix_average,
)
from .risk import (
    RiskReport,
    empirical_risk,
    gap_report,
    population_risk_mc,
)
from .smoothing import (
    SmoothingConfig,
    ball_sample,
    smoothed_grad,
    smoothed_grads,
    smoothed_value,
    smoothed_values,
    sphere_sample,
    verify_trajectory_preservation,
)
from .verify import (
    check_event_probability_gd,
    check_loss_properties,
    check_margins,
    check_norm_bound,
    check_trajectory,
    expected_suffix,
    wilson_interval,
)
from .acceptance import run_suite

__version__ = "0.1.0"

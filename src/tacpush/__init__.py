"""tacpush: deterministic planar-pushing simulator, tactile dual-loop push
controller and experiment harness."""

from .push_controller import ControllerConfig, ControllerState, Status, control_step
from .push_dynamics import (
    ContactMatrix,
    ContactMode,
    ContactState,
    PhysicsFault,
    motion_cone,
    resolve_substep,
    simulate_tap,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .scene import (
    TIP_RADIUS_MM,
    ObjectShape,
    PlanarPose,
    WorldState,
    builtin_shapes,
)
from .tactile_sense import NoiseModel, PosePrediction, apply_noise, sense_contact
from .exp_harness import (
    Metrics,
    TrialRecord,
    compute_y_targ,
    run_experiment_1,
    run_experiment_2,
    run_experiment_3,
    run_trial,
)

__version__ = "0.1.0"

"""gemproj: gradient-projection continual learning toolkit.

Projects each training step's adapter gradient onto the cone of
directions that do not increase any remembered past task's loss — by an
exact active-set QP, the A-GEM single-constraint rule, or a fixed-budget
dual projected-gradient approximation with warm starts — and ships the
desk-scale harness (tiny LoRA classifier, replay buffers, drifted
synthetic benchmark, CL metric suite) to exercise them end to end.
"""

__version__ = "0.1.0"

from .adapter_model import (
    LoraLayer,
    ModelConfig,
    TinyMlp,
    adapter_dim,
    backward,
    build_model,
    forward,
    get_adapter_params,
    jacobian_apply,
    jacobian_transpose_apply,
    set_adapter_params,
    weight_space_gradient,
)
from .datagen import ExperienceSplit, StreamSpec, dump_csv, generate_stream, ingest_csv
from .metrics import (
    AccuracyMatrix,
    aggregate,
    avg_acc,
    bwt,
    compute_all,
    forgetting,
    fwt,
    mpo,
)
from .projector import (
    ActiveSetCapacityError,
    ConstraintMatrix,
    DualState,
    ProjectionResult,
    agem_project,
    dual_objective,
    exact_qp_project,
    pgd_project,
    violation_check,
)
from .replay import ReplayBuffer, build_constraint_matrix
from .spectral import power_iteration, stepsize
from .trainer import (
    NonFiniteLossError,
    RunLog,
    TrainConfig,
    TrainerState,
    evaluate,
    make_state,
    optimizer_step,
    prepare_model,
    run_experiences,
    start_task,
    train_step,
)

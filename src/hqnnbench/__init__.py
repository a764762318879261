"""Benchmark framework for hybrid quantum-classical binary classifiers.

A pure-numpy stack: statevector circuit simulation with adjoint-mode
gradients, four variational circuit families, a small reverse-mode
classical NN library, dataset/fold utilities, rank-based metrics,
nonparametric tests, and an experiment harness with a CLI
(``hqnnbench run|report``).
"""

from .statevec import (
    Angle,
    EncodingError,
    Gate,
    Observable,
)
from .qnn import (
    Circuit,
    build_amp_gen,
    build_ang_arb,
    build_ang_ry,
    build_qcnn,
    init_params,
    qnn_backward,
    qnn_backward_batch,
    qnn_forward,
    qnn_forward_batch,
)
from .classical import (
    AdamState,
    LayerStack,
    Param,
    adam_init,
    adam_step,
    bce_with_logits,
    build_head,
    build_preprocessor,
    stack_backward,
    stack_forward,
    stack_params,
)
from .data import (
    DataFormatError,
    Dataset,
    FoldPlan,
    load_beats_csv,
    load_npz,
    make_folds,
    synth_beats,
    synth_blobs,
)
from .metrics import MetricReport, average_precision, balanced_accuracy, roc_auc
from .stats import StatTestResult, bonferroni, mann_whitney_u, wilcoxon_signed_rank
from .harness import (
    ExperimentResult,
    ModelConfig,
    QnnArch,
    aggregate_tables,
    expand_grid,
    parse_run_config,
    run_experiment,
    run_grid,
)

__version__ = "0.1.0"

__all__ = [
    "Angle",
    "EncodingError",
    "Gate",
    "Observable",
    "Circuit",
    "build_amp_gen",
    "build_ang_arb",
    "build_ang_ry",
    "build_qcnn",
    "init_params",
    "qnn_backward",
    "qnn_backward_batch",
    "qnn_forward",
    "qnn_forward_batch",
    "AdamState",
    "LayerStack",
    "Param",
    "adam_init",
    "adam_step",
    "bce_with_logits",
    "build_head",
    "build_preprocessor",
    "stack_backward",
    "stack_forward",
    "stack_params",
    "DataFormatError",
    "Dataset",
    "FoldPlan",
    "load_beats_csv",
    "load_npz",
    "make_folds",
    "synth_beats",
    "synth_blobs",
    "MetricReport",
    "average_precision",
    "balanced_accuracy",
    "roc_auc",
    "StatTestResult",
    "bonferroni",
    "mann_whitney_u",
    "wilcoxon_signed_rank",
    "ExperimentResult",
    "ModelConfig",
    "QnnArch",
    "aggregate_tables",
    "expand_grid",
    "parse_run_config",
    "run_experiment",
    "run_grid",
]

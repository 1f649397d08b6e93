"""Minimum-power allocation for two-hop relayed OFDM with index modulation.

The package covers the full pipeline: exact block outage probability for a
fixed-gain amplify-and-forward link (built on a purpose-written modified
Bessel function of the second kind), a refining grid search for the
minimum-total-power allocation under an outage ceiling, dataset generation
with those search results as labels, and a small sigmoid network trained
with Adam to reproduce the allocations at a fraction of the cost.
"""

__version__ = "0.1.0"

from .bessel import k1, k1e, xk1e
from .data import (
    DATASET_FORMAT,
    Dataset,
    DatasetRecord,
    GenerationSpec,
    build_dataset,
    draw_feasible_samples,
    generate_grid_samples,
    label_dataset,
    load_dataset,
    save_dataset,
    split,
    stats_from_sample,
)
from .errors import (
    BudgetExceededError,
    InfeasibleProblemError,
    InvalidArgumentError,
    InvariantViolationError,
    NonFiniteLossError,
    NumericConsistencyError,
    RelayAllocError,
    SchemaError,
)
from .gridsearch import (
    FeasibilityResult,
    OracleResult,
    PowerAllocation,
    SystemConfig,
    brute_force_reference,
    evaluation_budget,
    feasibility_check,
    power_axis_grid,
    solve,
)
from .mlp import (
    MODEL_FORMAT,
    AdamState,
    Batch,
    Gradients,
    MlpParams,
    NormalizationSpec,
    adam_step,
    decode_output,
    encode_input,
    flop_count,
    forward,
    gradients,
    init_adam,
    init_mlp,
    load_model,
    mse_loss,
    save_model,
    sigmoid,
)
from .outage import (
    MonteCarloEstimate,
    OutageQuery,
    SubcarrierPower,
    SubcarrierStats,
    all_active_outage,
    average_outage,
    combine_active_outages,
    end_to_end_snr,
    monte_carlo_outage,
    outage_grid,
    subcarrier_outage,
)
from .saps import (
    MAX_SUBCARRIERS,
    Sap,
    SapSet,
    bitstream_length,
    enumerate_saps,
    legitimate_sap_count,
)
from .training import (
    ComparisonReport,
    ComparisonRow,
    HistoryPoint,
    SweepRun,
    SweepSpec,
    TrainingConfig,
    TrainingHistory,
    average_histories,
    compare_against_labels,
    dataset_arrays,
    normalization_for,
    relative_error,
    sweep,
    train,
    write_comparison_csv,
    write_history_csv,
)

__all__ = [
    "__version__",
    # outage math
    "k1", "k1e", "xk1e",
    "SubcarrierStats", "SubcarrierPower", "OutageQuery", "MonteCarloEstimate",
    "end_to_end_snr", "subcarrier_outage", "outage_grid",
    "all_active_outage", "average_outage", "combine_active_outages",
    "monte_carlo_outage",
    # subcarrier activation patterns
    "Sap", "SapSet", "MAX_SUBCARRIERS",
    "enumerate_saps", "legitimate_sap_count", "bitstream_length",
    # grid search
    "SystemConfig", "PowerAllocation", "FeasibilityResult", "OracleResult",
    "solve", "brute_force_reference", "feasibility_check",
    "power_axis_grid", "evaluation_budget",
    # datasets
    "DATASET_FORMAT", "Dataset", "DatasetRecord", "GenerationSpec",
    "generate_grid_samples", "draw_feasible_samples",
    "label_dataset", "build_dataset", "split", "stats_from_sample",
    "save_dataset", "load_dataset",
    # network
    "MODEL_FORMAT", "MlpParams", "AdamState", "Gradients", "Batch",
    "NormalizationSpec",
    "sigmoid", "init_mlp", "init_adam", "forward", "mse_loss", "gradients",
    "adam_step", "flop_count", "encode_input", "decode_output",
    "save_model", "load_model",
    # training and evaluation
    "TrainingConfig", "TrainingHistory", "HistoryPoint",
    "ComparisonReport", "ComparisonRow", "SweepSpec", "SweepRun",
    "train", "relative_error", "compare_against_labels",
    "sweep", "average_histories", "normalization_for", "dataset_arrays",
    "write_history_csv", "write_comparison_csv",
    # errors
    "RelayAllocError", "InvalidArgumentError", "InfeasibleProblemError",
    "SchemaError", "InvariantViolationError", "BudgetExceededError",
    "NonFiniteLossError", "NumericConsistencyError",
]

"""Local 2D self-attention layers as drop-in replacements for spatial
convolutions: attention and convolution primitives with manually verified
gradients, a ResNet transformation procedure, a symbolic cost ledger, and a
small training harness."""

from .autodiff import GradTape, gradcheck
from .cost import CONVENTION, CostEntry, CostReport, ParityReport, cost_parity, ledger
from .errors import (CheckpointError, ConfigurationError, ConsumedTapeError,
                     DegenerateGroupError, DimensionError, DivergenceError,
                     IngestionError, NonFiniteGradientError, PaddingError,
                     ResolutionError, ScheduleError, UnsupportedExtentError)
from .layers import (AttentionStem, AvgPool2x2, BatchNorm2d, Conv2d, GlobalAvgPool,
                     Linear, LocalAttention, MaxPool, ReLU, absolute_position_signal)
from .data import (DatasetSource, load_cifar10, load_data, read_cifar10_file,
                   synthetic_blocks, synthetic_separable)
from .model import (Bottleneck, Model, ModelSpec, Sequential, batchnorm_state,
                    build_model, full_state, load_checkpoint, load_state_into,
                    parse_config_text, read_config, save_checkpoint)
from .tensorops import softmax_axis, window_validity
from .train import (History, OptimizerState, Schedule, TrainConfig,
                    cross_entropy_smoothed, evaluate, lr_at, nesterov_step,
                    train_loop)
from .verify import (SuiteResult, gradcheck_suite, invariant_suite, oracle_suite,
                     run_all)

__version__ = "0.1.0"

__all__ = [
    "AttentionStem", "AvgPool2x2", "BatchNorm2d", "Bottleneck",
    "CONVENTION", "CheckpointError", "ConfigurationError",
    "ConsumedTapeError", "Conv2d", "CostEntry", "CostReport",
    "DatasetSource", "DegenerateGroupError", "DimensionError", "DivergenceError",
    "GlobalAvgPool", "GradTape", "History", "IngestionError",
    "Linear", "LocalAttention", "MaxPool", "Model",
    "ModelSpec", "NonFiniteGradientError", "OptimizerState", "PaddingError",
    "ParityReport", "ReLU", "ResolutionError", "Schedule",
    "ScheduleError", "Sequential", "SuiteResult", "TrainConfig",
    "UnsupportedExtentError", "absolute_position_signal", "batchnorm_state",
    "build_model", "cost_parity",
    "cross_entropy_smoothed", "evaluate", "full_state", "gradcheck",
    "gradcheck_suite", "invariant_suite", "ledger", "load_checkpoint",
    "load_cifar10", "load_data", "load_state_into", "lr_at",
    "nesterov_step", "oracle_suite", "parse_config_text", "read_cifar10_file",
    "read_config", "run_all", "save_checkpoint", "softmax_axis",
    "synthetic_blocks", "synthetic_separable", "train_loop", "window_validity",
]

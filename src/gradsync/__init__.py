"""Deterministic testbed for fused hierarchical all-reduce and mixed-precision LARS."""

from .collectives import (
    Topology,
    choose_algorithm,
    hierarchical_allreduce,
    ring_allreduce,
)
from .experiment import ExperimentConfig, preset_config, run_experiment
from .fusion import FusedBatch, FusionBuffer, unpack
from .halfprec import (
    LossScale,
    f16_to_f32,
    f32_to_f16,
    quantize_tensor,
    unscale_gradients,
)
from .lars import (
    LarsConfig,
    ParamGroup,
    Schedule,
    lars_step,
    load_checkpoint,
    save_checkpoint,
)
from .netsim import LinkModel, find_crossover, scaling_efficiency, simulate
from .tcp import CollectiveAbort, TcpCluster
from .toymodel import DenseNet, make_synthetic_dataset

__version__ = "0.1.0"

__all__ = [
    "CollectiveAbort",
    "DenseNet",
    "ExperimentConfig",
    "FusedBatch",
    "FusionBuffer",
    "LarsConfig",
    "LinkModel",
    "LossScale",
    "ParamGroup",
    "Schedule",
    "TcpCluster",
    "Topology",
    "choose_algorithm",
    "f16_to_f32",
    "f32_to_f16",
    "find_crossover",
    "hierarchical_allreduce",
    "lars_step",
    "load_checkpoint",
    "make_synthetic_dataset",
    "preset_config",
    "quantize_tensor",
    "ring_allreduce",
    "run_experiment",
    "save_checkpoint",
    "scaling_efficiency",
    "simulate",
    "unpack",
    "unscale_gradients",
]

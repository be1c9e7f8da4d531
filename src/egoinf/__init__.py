"""Social influence prediction on ego subgraphs with autoencoder-driven
graph augmentation at train and test time."""

from .ablation import MetricsReport, RunRecord, Study, run_ablation, run_arm
from .augment import AugmentationConfig
from .autoenc import GaeModel, VgaeModel
from .graphs import Dataset, EgoSample, UndirectedGraph, load_dataset, save_dataset
from .training import AblationConfig, JointModel, ModelConfig, TrainConfig

__version__ = "0.1.0"

__all__ = [
    "AblationConfig",
    "AugmentationConfig",
    "Dataset",
    "EgoSample",
    "GaeModel",
    "JointModel",
    "MetricsReport",
    "ModelConfig",
    "RunRecord",
    "Study",
    "TrainConfig",
    "UndirectedGraph",
    "VgaeModel",
    "load_dataset",
    "run_ablation",
    "run_arm",
    "save_dataset",
    "__version__",
]

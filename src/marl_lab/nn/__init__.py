from .tensor import Tensor, ShapeError
from .layers import Conv2d, Dense, LSTMCell
from .graph import ComputationGraph, gradients
from .optim import Optimizer, clip_by_global_norm, global_norm
from .checkpoint import save_checkpoint, load_checkpoint, read_manifest, CheckpointError

__all__ = [
    "Tensor", "ShapeError",
    "Conv2d", "Dense", "LSTMCell",
    "ComputationGraph", "gradients",
    "Optimizer", "clip_by_global_norm", "global_norm",
    "save_checkpoint", "load_checkpoint", "read_manifest", "CheckpointError",
]

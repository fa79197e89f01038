from .tensor import Tensor, ShapeError, gradients
from .layers import Conv2d, Dense, LSTMCell
from .optim import Optimizer, clip_by_global_norm, global_norm
from .checkpoint import save_checkpoint, load_checkpoint, read_manifest, CheckpointError

__all__ = [
    "Tensor", "ShapeError", "gradients",
    "Conv2d", "Dense", "LSTMCell",
    "Optimizer", "clip_by_global_norm", "global_norm",
    "save_checkpoint", "load_checkpoint", "read_manifest", "CheckpointError",
]

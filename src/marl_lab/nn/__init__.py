from .tensor import Tensor, ShapeError, gradients
from .layers import Conv2d, Dense, LSTMCell
from .optim import Optimizer
from .checkpoint import save_checkpoint, load_checkpoint, read_manifest, CheckpointError

__all__ = [
    "Tensor", "ShapeError", "gradients",
    "Conv2d", "Dense", "LSTMCell",
    "Optimizer",
    "save_checkpoint", "load_checkpoint", "read_manifest", "CheckpointError",
]

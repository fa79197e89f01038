from .module import (
    forward_loss_tape, impact_row, inverse_loss_tape, moa_loss_tape, normalize_impacts,
)

__all__ = [
    "forward_loss_tape", "impact_row", "inverse_loss_tape", "moa_loss_tape",
    "normalize_impacts",
]

from .module import (
    eliminate, forward_loss_tape, forward_predict, impact_row, inverse_loss_tape,
    moa_loss_tape, normalize_impacts,
)

__all__ = [
    "eliminate", "forward_loss_tape", "forward_predict", "impact_row",
    "inverse_loss_tape", "moa_loss_tape", "normalize_impacts",
]

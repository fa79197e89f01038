"""Shared test data and oracles. They live outside conftest.py because the
suite collects a second conftest (perfbench/tests), and `from conftest
import ...` would then pick whichever was imported first."""

import numpy as np


# cleanup_mini with a third spawn point, so impact rows have two fellows and
# their min-max normalization is not the degenerate all-ones row.
THREE_AGENT_CLEANUP = [
    "##########",
    "#~~ ABBBA#",
    "#~~ BBABB#",
    "#~~P BABB#",
    "#~~P BBAB#",
    "#~~PBABBB#",
    "#~~ ABBBA#",
    "##########",
]


def conv_linear_response(x, kernel, bias):
    """Pre-ReLU conv output, for screening instances away from ReLU kinks."""
    B, H, W, C = x.shape
    Ho, Wo = H - 2, W - 2
    win = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(1, 2))
    patches = win.transpose(0, 1, 2, 4, 5, 3).reshape(B * Ho * Wo, 9 * C)
    return (patches @ kernel.reshape(9 * C, -1) + bias).reshape(B, Ho, Wo, -1)


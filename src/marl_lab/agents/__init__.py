from .memory import AgentMemory, EpisodeMixError, RecurrentState
from .nets import (
    AgentNets, NetSizes, PolicyOutput, joint_one_hot, sample_from_probs, stable_softmax,
)

__all__ = [
    "AgentMemory", "AgentNets", "EpisodeMixError", "NetSizes", "PolicyOutput",
    "RecurrentState", "joint_one_hot", "sample_from_probs", "stable_softmax",
]

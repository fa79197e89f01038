from .nets import (
    AgentNets, NetSizes, PolicyOutput, joint_one_hot, sample_from_probs, stable_softmax,
)

__all__ = [
    "AgentNets", "NetSizes", "PolicyOutput", "joint_one_hot", "sample_from_probs",
    "stable_softmax",
]

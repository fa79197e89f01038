"""Recurrent state containers for one agent within one episode."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class EpisodeMixError(RuntimeError):
    """Raised when a memory from another episode is fed to the nets."""


@dataclass
class RecurrentState:
    hidden: np.ndarray
    cell: np.ndarray

    @classmethod
    def zeros(cls, units):
        return cls(hidden=np.zeros(units), cell=np.zeros(units))

    def copy(self):
        return RecurrentState(self.hidden.copy(), self.cell.copy())

    @classmethod
    def stack(cls, states):
        return cls(np.stack([s.hidden for s in states]), np.stack([s.cell for s in states]))


@dataclass
class AgentMemory:
    """v: actor-critic LSTM state; u: MOA LSTM state. Tagged by episode so
    states from different episodes can never be mixed silently."""
    v: RecurrentState
    u: RecurrentState
    episode_tag: int = 0

    @classmethod
    def zeros(cls, units, episode_tag=0):
        return cls(v=RecurrentState.zeros(units), u=RecurrentState.zeros(units),
                   episode_tag=episode_tag)

    def check_tag(self, expected):
        if self.episode_tag != expected:
            raise EpisodeMixError(
                f"memory belongs to episode {self.episode_tag}, expected {expected}")

    def copy(self):
        return AgentMemory(v=self.v.copy(), u=self.u.copy(), episode_tag=self.episode_tag)

    @classmethod
    def stack(cls, memories):
        """One memory whose states carry a leading worker axis, as the nets'
        batched calls take it; its episode_tag is the tuple of the rows' tags."""
        return cls(v=RecurrentState.stack([m.v for m in memories]),
                   u=RecurrentState.stack([m.u for m in memories]),
                   episode_tag=tuple(m.episode_tag for m in memories))

    def unstack(self):
        """Inverse of `stack`: one memory per row, each with its own tag."""
        return [AgentMemory(v=RecurrentState(self.v.hidden[w], self.v.cell[w]),
                            u=RecurrentState(self.u.hidden[w], self.u.cell[w]),
                            episode_tag=tag)
                for w, tag in enumerate(self.episode_tag)]

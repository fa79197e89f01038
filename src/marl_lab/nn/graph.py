"""ComputationGraph: an ordered, named collection of layers, and `gradients`,
which turns a scalar loss into one gradient array per parameter.

The graph owns the parameter tensors in declaration order (which is also the
checkpoint serialization order). A graph instance is single-writer: one
trainer mutates parameters, readers only between update barriers.
"""

from __future__ import annotations

import numpy as np


def gradients(params, loss):
    """Backprop `loss` once; {name: grad} over the (name, Tensor) pairs in
    `params`, shape-identical to each parameter, with exact zeros where the
    loss does not touch one. `.grad` is cleared before and after."""
    for _, p in params:
        p.grad = None
    loss.backward()
    grads = {}
    for name, p in params:
        grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
    return grads


class ComputationGraph:
    def __init__(self, name="graph", seed=None):
        self.name = name
        self.seed = seed
        self._layers = []       # (name, layer), declaration order

    def add(self, layer):
        self._layers.append((layer.name, layer))
        return layer

    def parameters(self):
        """Ordered (qualified_name, Tensor) pairs over all layers."""
        out = []
        for _, layer in self._layers:
            out.extend(layer.params())
        return out

    def node_manifest(self):
        """Declarative node list: kind, name and parameter shapes."""
        nodes = []
        for lname, layer in self._layers:
            nodes.append({
                "name": lname,
                "kind": type(layer).__name__,
                "params": [(pname, list(t.data.shape)) for pname, t in layer.params()],
            })
        return nodes

    def set_parameters(self, arrays):
        """Load {name: array} into the graph, shape-checked."""
        for name, p in self.parameters():
            if name not in arrays:
                raise KeyError(f"{self.name}: missing parameter {name}")
            arr = np.asarray(arrays[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"{self.name}: shape mismatch for {name}: "
                                 f"{arr.shape} != {p.data.shape}")
            p.data = arr.copy()


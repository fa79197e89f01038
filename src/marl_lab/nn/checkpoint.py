"""Checkpoint container: JSON manifest + raw float64 little-endian tensors.

Layout: 8-byte magic, 8-byte little-endian manifest length, UTF-8 JSON
manifest, then every parameter tensor's bytes in manifest order. The manifest
records sections (one per named graph), node lists, shapes and the seed, so a
load is fully shape-checked and a save/load round trip is bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

MAGIC = b"MARLCKP1"


class CheckpointError(RuntimeError):
    pass


def save_checkpoint(path, sections, meta=None):
    """sections: ordered {section_name: ComputationGraph}; meta: JSON-able extras."""
    manifest = {"meta": meta or {}, "sections": []}
    blobs = []
    for sec_name, graph in sections.items():
        entry = {"section": sec_name, "seed": graph.seed, "nodes": graph.node_manifest(),
                 "params": []}
        for pname, tensor in graph.parameters():
            arr = np.ascontiguousarray(tensor.data, dtype="<f8")
            entry["params"].append({"name": pname, "shape": list(arr.shape)})
            blobs.append(arr.tobytes())
        manifest["sections"].append(entry)
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<Q", len(mbytes)))
        f.write(mbytes)
        for b in blobs:
            f.write(b)


def _read_header(f, path):
    """Check the magic and parse the manifest, leaving f at the first tensor."""
    if f.read(8) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    (mlen,) = struct.unpack("<Q", f.read(8))
    return json.loads(f.read(mlen).decode("utf-8"))


def read_manifest(path):
    with open(path, "rb") as f:
        return _read_header(f, path)


def load_checkpoint(path, sections):
    """Load parameters into existing graphs; shapes and names must match."""
    with open(path, "rb") as f:
        manifest = _read_header(f, path)
        by_name = {e["section"]: e for e in manifest["sections"]}
        if set(by_name) != set(sections):
            raise CheckpointError(f"{path}: sections {sorted(by_name)} != "
                                  f"expected {sorted(sections)}")
        for entry in manifest["sections"]:
            graph = sections[entry["section"]]
            params = dict(graph.parameters())
            arrays = {}
            for pentry in entry["params"]:
                shape = tuple(pentry["shape"])
                n = int(np.prod(shape)) if shape else 1
                raw = f.read(8 * n)
                if len(raw) != 8 * n:
                    raise CheckpointError(f"{path}: truncated tensor {pentry['name']}")
                arrays[pentry["name"]] = np.frombuffer(raw, dtype="<f8").reshape(shape)
            if set(arrays) != set(params):
                raise CheckpointError(
                    f"{path}: section {entry['section']} parameters do not match the "
                    f"target graph")
            graph.set_parameters(arrays)
    return manifest

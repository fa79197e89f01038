"""Checkpoint container: JSON manifest + raw float64 little-endian tensors.

Layout: 8-byte magic, 8-byte little-endian manifest length, UTF-8 JSON
manifest, then every parameter tensor's bytes in manifest order. The manifest
records sections (one per named list of layers), node lists, shapes and the
seed, so a load is fully shape-checked and a save/load round trip is
bit-exact.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

MAGIC = b"MARLCKP1"


class CheckpointError(RuntimeError):
    pass


def _params(layers):
    return [pair for layer in layers for pair in layer.params()]


def save_checkpoint(path, sections, seed=None, meta=None):
    """sections: ordered {section_name: [layer, ...]}; seed: recorded in each
    section; meta: JSON-able extras. The bytes go to a temporary name beside
    `path`, which is then renamed over it, so a save that dies midway leaves
    no partial file under `path`."""
    manifest = {"meta": meta or {}, "sections": []}
    blobs = []
    for sec_name, layers in sections.items():
        nodes = [{"name": layer.name, "kind": type(layer).__name__,
                  "params": [(pname, list(t.data.shape)) for pname, t in layer.params()]}
                 for layer in layers]
        entry = {"section": sec_name, "seed": seed, "nodes": nodes, "params": []}
        for pname, tensor in _params(layers):
            arr = np.ascontiguousarray(tensor.data, dtype="<f8")
            entry["params"].append({"name": pname, "shape": list(arr.shape)})
            blobs.append(arr.tobytes())
        manifest["sections"].append(entry)
    mbytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(MAGIC)
            f.write(struct.pack("<Q", len(mbytes)))
            f.write(mbytes)
            for b in blobs:
                f.write(b)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _read_header(f, path):
    """Check the magic, parse the manifest and check its layout, leaving f at
    the first tensor."""
    if f.read(8) != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    field = f.read(8)
    if len(field) != 8:
        raise CheckpointError(f"{path}: truncated manifest length")
    (mlen,) = struct.unpack("<Q", field)
    left = os.fstat(f.fileno()).st_size - f.tell()
    if mlen > left:     # checked before reading: the length may be any 64-bit value
        raise CheckpointError(f"{path}: truncated manifest ({left} of {mlen} bytes)")
    try:
        manifest = json.loads(f.read(mlen).decode("utf-8"))
    except ValueError as exc:   # UnicodeDecodeError and JSONDecodeError both
        raise CheckpointError(f"{path}: undecodable manifest: {exc}") from exc
    try:    # the layout save_checkpoint writes, as far as its readers read it
        ok = isinstance(manifest["meta"], dict) and all(
            isinstance(entry["section"], str) and all(
                isinstance(p["name"], str) and all(type(d) is int and d >= 0 for d in p["shape"])
                for p in entry["params"])
            for entry in manifest["sections"])
    except (KeyError, TypeError):   # a missing key, or a value of the wrong kind
        ok = False
    if not ok:
        raise CheckpointError(f"{path}: malformed manifest")
    return manifest


def read_manifest(path):
    with open(path, "rb") as f:
        return _read_header(f, path)


def load_checkpoint(path, sections):
    """Load parameters into the layers of `sections` ({section_name: [layer,
    ...]}). The manifest must list each of their sections and parameters
    once, with matching shapes, and no byte may follow the last tensor. Each
    array is written into its Tensor's existing `.data` (an optimizer's
    view, say), and only once the whole file has checked out."""
    with open(path, "rb") as f:
        manifest = _read_header(f, path)
        _check_names(path, "section", [e["section"] for e in manifest["sections"]], sections)
        loaded = []
        for entry in manifest["sections"]:
            params = dict(_params(sections[entry["section"]]))
            _check_names(path, f"{entry['section']}: parameter",
                         [p["name"] for p in entry["params"]], params)
            for pentry in entry["params"]:
                name, shape = pentry["name"], tuple(pentry["shape"])
                if shape != params[name].data.shape:
                    raise CheckpointError(
                        f"{path}: {entry['section']}: shape mismatch for {name}: "
                        f"{shape} != {params[name].data.shape}")
                n = int(np.prod(shape)) if shape else 1
                raw = f.read(8 * n)
                if len(raw) != 8 * n:
                    raise CheckpointError(f"{path}: truncated tensor {name}")
                loaded.append((params[name], np.frombuffer(raw, dtype="<f8").reshape(shape)))
        if f.read(1):
            raise CheckpointError(f"{path}: unexpected bytes after the last tensor")
    for tensor, arr in loaded:
        tensor.data[...] = arr
    return manifest


def _check_names(path, what, names, expected):
    """The manifest's `names` must list each of the `expected` names once."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise CheckpointError(f"{path}: {what} {name} listed twice")
    if set(names) != set(expected):
        raise CheckpointError(f"{path}: {what}s {sorted(names)} != expected {sorted(expected)}")

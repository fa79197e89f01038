"""Map assets: glyph legend, parsing, and the built-in layout registry.

Map file format: UTF-8 text, one row per line, rectangular. Legend:
  '#'  wall
  ' '  empty floor ('.' also accepted)
  'A'  orchard cell with an apple at reset
  'B'  orchard cell, empty at reset (apples may grow here)
  '~'  river cell, clean at reset            (Cleanup only)
  'W'  river cell holding waste at reset     (Cleanup only)
  'P'  agent spawn point
"""

from __future__ import annotations

import os

from .config import ConfigError

# Grid cell codes
EMPTY, WALL, APPLE, RIVER, WASTE, SPAWN = range(6)

CELL_GLYPHS = {EMPTY: " ", WALL: "#", APPLE: "A", RIVER: "~", WASTE: "W", SPAWN: "P"}

_MAPS_DIR = os.path.join(os.path.dirname(__file__), "maps")

BUILTIN_MAPS = ("cleanup_mini", "cleanup_mini3", "cleanup_large", "harvest_mini",
                "harvest_large")

_GLYPH_TO_CELL = {"#": WALL, " ": EMPTY, ".": EMPTY, "A": APPLE, "B": EMPTY,
                  "~": RIVER, "W": WASTE, "P": SPAWN}


class ParsedMap:
    """Static map structure: initial cell codes plus the special-cell index sets."""

    def __init__(self, rows, kind):
        if not rows:
            raise ConfigError("map has no rows")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ConfigError("map is not rectangular")
        self.height = len(rows)
        self.width = width
        self.cells = []
        self.orchard = []
        self.river = []
        self.spawns = []
        forced_waste = []
        for r, row in enumerate(rows):
            line = []
            for c, ch in enumerate(row):
                if ch not in _GLYPH_TO_CELL:
                    raise ConfigError(f"map row {r}, col {c}: unknown glyph {ch!r}")
                cell = _GLYPH_TO_CELL[ch]
                if ch in ("A", "B"):
                    self.orchard.append((r, c))
                if ch in ("~", "W"):
                    if kind != "cleanup":
                        raise ConfigError(
                            f"map row {r}, col {c}: river glyph {ch!r} outside a Cleanup map")
                    self.river.append((r, c))
                    if ch == "W":
                        forced_waste.append((r, c))
                if ch == "P":
                    self.spawns.append((r, c))
                line.append(cell)
            self.cells.append(line)
        self.forced_waste = forced_waste


def load_map(spec, kind):
    """Resolve a map argument: built-in name, file path, or inline row list."""
    if isinstance(spec, (list, tuple)):
        return ParsedMap([str(r) for r in spec], kind)
    if spec in BUILTIN_MAPS:
        path = os.path.join(_MAPS_DIR, spec + ".txt")
    elif os.path.isfile(spec):
        path = spec
    else:
        raise ConfigError(f"unknown map {spec!r}: not a built-in name or readable path")
    with open(path, encoding="utf-8") as f:
        rows = [line.rstrip("\n") for line in f if line.rstrip("\n")]
    return ParsedMap(rows, kind)

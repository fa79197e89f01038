"""The Cleanup and Harvest gridworlds.

Step order: beams resolve, agents move under a per-step random permutation,
apples are picked up, resources regrow, Cleanup waste spawns, time advances.
A step counts each agent's EVENTS, and its extrinsic rewards are those counts
through EVENT_REWARDS. Every random draw comes from the state's counter-based
stream, so a fixed (config, seed, actions) triple replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import EnvConfig
from .maps import APPLE, CELL_GLYPHS, EMPTY, RIVER, SPAWN, WALL, WASTE
from .rates import cleanup_spawn_rate, harvest_regrowth_prob

# Action indices; Harvest uses the first eight (no cleaning beam).
MOVE_UP, MOVE_DOWN, MOVE_LEFT, MOVE_RIGHT, TURN_CW, TURN_CCW, NOOP, FIRE_PUNISH, FIRE_CLEAN = range(9)
CLEANUP_ACTIONS = tuple(range(9))
HARVEST_ACTIONS = tuple(range(8))
ACTION_NAMES = ("move_up", "move_down", "move_left", "move_right",
                "turn_cw", "turn_ccw", "noop", "fire_punish", "fire_clean")

# Orientations, clockwise. Row axis points down.
NORTH, EAST, SOUTH, WEST = range(4)
ORIENT_NAMES = "NESW"
_DIRS = {NORTH: (-1, 0), EAST: (0, 1), SOUTH: (1, 0), WEST: (0, -1)}

# Observation channels. In `observe`, channel i is bit i of a cell's byte.
C_EMPTY, C_WALL, C_APPLE, C_RIVER, C_WASTE, C_SELF, C_OTHER, C_BEAM = range(8)
NUM_CHANNELS = 8

# The channel of each cell code, and its bit, indexed by code.
_CELL_CHANNEL = {EMPTY: C_EMPTY, SPAWN: C_EMPTY, WALL: C_WALL, APPLE: C_APPLE,
                 RIVER: C_RIVER, WASTE: C_WASTE}
_CELL_BITS = np.array([1 << _CELL_CHANNEL[code] for code in range(len(_CELL_CHANNEL))],
                      dtype=np.uint8)

# Harvest regrowth counts apples at these offsets: the L1 radius-2 neighbourhood.
_NEIGHBOURHOOD = [(dr, dc) for dr in range(-2, 3) for dc in range(-2, 3)
                  if 0 < abs(dr) + abs(dc) <= 2]

# What a step counts for each agent; agent_hit counts the hits it takes.
EVENTS = ("apple_collected", "punish_fired", "agent_hit", "clean_fired", "waste_cleaned")
APPLE_COLLECTED, PUNISH_FIRED, AGENT_HIT, CLEAN_FIRED, WASTE_CLEANED = range(len(EVENTS))
# The extrinsic reward of one event, in EVENTS order: counts @ EVENT_REWARDS.
EVENT_REWARDS = np.array([1.0, -1.0, -50.0, 0.0, 0.0])

_WALKABLE = (EMPTY, APPLE, SPAWN)


@dataclass
class StepOutcome:
    extrinsic: np.ndarray   # (N,) float64, counts @ EVENT_REWARDS
    counts: np.ndarray      # (N, len(EVENTS)) int64


@dataclass
class EnvState:
    grid: np.ndarray                # (H, W) cell codes
    positions: np.ndarray           # (N, 2) row, col
    orientations: np.ndarray        # (N,)
    rng: np.random.Generator
    t: int = 0
    beam_cells: set = field(default_factory=set)   # cells covered by beams last step


def _rotate_cw(d):
    return (d[1], -d[0])


def _rotate_ccw(d):
    return (-d[1], d[0])


class SSDEnv:
    """One environment instance; confine to a single worker at a time."""

    def __init__(self, config: EnvConfig):
        self.config = config
        self.parsed = config.parsed_map
        self.height = self.parsed.height
        self.width = self.parsed.width
        self.num_actions = config.num_actions
        self._orchard = sorted(self.parsed.orchard)
        self._river = sorted(self.parsed.river)
        self.state = None

        # observe: cell bits on the map padded by R wall cells, and the flat
        # offsets of a window from its top-left corner, rotated so that each
        # orientation faces up.
        V = config.view_size
        R = V // 2
        self._bits = np.full((self.height + 2 * R, self.width + 2 * R), 1 << C_WALL,
                             dtype=np.uint8)
        pw = self.width + 2 * R
        window = np.arange(V)[:, None] * pw + np.arange(V)
        # np.rot90(window, k) for k = 0..3, taken as views before one copy
        self._windows = np.stack([window, window.T[::-1], window[::-1, ::-1],
                                  window.T[:, ::-1]])

        # step: orchard and river cells as flat grid indices.
        self._orchard_flat = np.array([r * self.width + c for r, c in self._orchard],
                                      dtype=np.int64)
        self._river_flat = np.array([r * self.width + c for r, c in self._river],
                                    dtype=np.int64)
        self._orchard_index = {cell: i for i, cell in enumerate(self._orchard)}
        # Harvest: each orchard cell's neighbours as flat indices into an
        # apple mask padded by 2, and the regrowth probability of each count.
        hw = self.width + 4
        self._apples = np.zeros((self.height + 4, hw), dtype=np.uint8)
        rows, cols = np.divmod(self._orchard_flat, self.width)
        offsets = np.array([dr * hw + dc for dr, dc in _NEIGHBOURHOOD])
        self._neighbours = ((rows + 2) * hw + cols + 2)[:, None] + offsets
        self._regrowth = np.array([
            harvest_regrowth_prob(count, config.harvest_low_rate,
                                  config.harvest_mid_rate, config.harvest_high_rate)
            for count in range(len(_NEIGHBOURHOOD) + 1)])

    # -- lifecycle -----------------------------------------------------------

    def reset(self, seed=None):
        cfg = self.config
        rng = np.random.Generator(np.random.Philox(
            np.random.SeedSequence(cfg.seed if seed is None else seed)))
        grid = np.array(self.parsed.cells, dtype=np.uint8)

        if cfg.kind == "cleanup" and self._river:
            forced = list(self.parsed.forced_waste)
            want = int(round(cfg.initial_waste_fraction * len(self._river)))
            pool = [cell for cell in self._river if cell not in forced]
            extra = max(0, want - len(forced))
            if extra > 0:
                idx = rng.choice(len(pool), size=min(extra, len(pool)), replace=False)
                forced += [pool[i] for i in sorted(idx)]
            for (r, c) in forced:
                grid[r, c] = WASTE

        spawn_idx = rng.choice(len(self.parsed.spawns), size=cfg.num_agents, replace=False)
        positions = np.array([self.parsed.spawns[i] for i in spawn_idx], dtype=np.int64)
        orientations = rng.integers(0, 4, size=cfg.num_agents)
        self.state = EnvState(grid=grid, positions=positions, orientations=orientations,
                              rng=rng)
        return self.state

    # -- dynamics ------------------------------------------------------------

    def waste_density(self):
        if not self._river:
            return 0.0
        return float(np.count_nonzero(self.state.grid == WASTE)) / len(self._river)

    def _beam_footprint(self, pos, orient):
        """Cells covered by a beam from the agent's facing cell: length cells
        forward, width cells across, each forward ray blocked by walls."""
        cfg = self.config
        fwd = _DIRS[orient]
        side = _rotate_cw(fwd)
        half = cfg.beam_width // 2
        cells = []
        for lateral in range(-half, half + 1):
            start = (pos[0] + lateral * side[0], pos[1] + lateral * side[1])
            for dist in range(1, cfg.beam_length + 1):
                r = start[0] + dist * fwd[0]
                c = start[1] + dist * fwd[1]
                if not (0 <= r < self.height and 0 <= c < self.width):
                    break
                if self.state.grid[r, c] == WALL:
                    break
                cells.append((r, c))
        return cells

    def step(self, actions):
        st = self.state
        cfg = self.config
        if st is None:
            raise RuntimeError("step before reset")
        if st.t >= cfg.episode_length:
            raise RuntimeError(f"episode already finished at t={st.t}")
        actions = np.asarray(actions, dtype=np.int64)
        if actions.shape != (cfg.num_agents,):
            raise ValueError(f"expected {cfg.num_agents} actions, got shape {actions.shape}")
        actions = actions.tolist()
        if min(actions) < 0 or max(actions) >= self.num_actions:
            raise ValueError(f"action index out of range for {cfg.kind} "
                             f"({self.num_actions} actions)")

        # Poses are read once as Python ints and written back after movement.
        grid = st.grid
        positions = [tuple(p) for p in st.positions.tolist()]
        orientations = st.orientations.tolist()
        counts = np.zeros((cfg.num_agents, len(EVENTS)), dtype=np.int64)
        st.beam_cells = set()

        # Phase 1: beams, simultaneous from current poses.
        for k, a in enumerate(actions):
            if a == FIRE_PUNISH:
                counts[k, PUNISH_FIRED] += 1
                cells = self._beam_footprint(positions[k], orientations[k])
                st.beam_cells.update(cells)
                cellset = set(cells)
                for j in range(cfg.num_agents):
                    if j != k and positions[j] in cellset:
                        counts[j, AGENT_HIT] += 1
            elif a == FIRE_CLEAN:
                counts[k, CLEAN_FIRED] += 1
                cells = self._beam_footprint(positions[k], orientations[k])
                st.beam_cells.update(cells)
                for cell in cells:
                    if grid[cell] == WASTE:
                        grid[cell] = RIVER
                        counts[k, WASTE_CLEANED] += 1

        # Phase 2: movement in a per-step random permutation; a move into an
        # occupied or just-claimed cell becomes a noop.
        order = st.rng.permutation(cfg.num_agents)
        occupied = set(positions)
        for k in order.tolist():
            a = actions[k]
            if a == TURN_CW:
                orientations[k] = (orientations[k] + 1) % 4
                continue
            if a == TURN_CCW:
                orientations[k] = (orientations[k] - 1) % 4
                continue
            if a not in (MOVE_UP, MOVE_DOWN, MOVE_LEFT, MOVE_RIGHT):
                continue
            fwd = _DIRS[orientations[k]]
            delta = {MOVE_UP: fwd, MOVE_DOWN: (-fwd[0], -fwd[1]),
                     MOVE_LEFT: _rotate_ccw(fwd), MOVE_RIGHT: _rotate_cw(fwd)}[a]
            tgt = (positions[k][0] + delta[0], positions[k][1] + delta[1])
            if not (0 <= tgt[0] < self.height and 0 <= tgt[1] < self.width):
                continue
            if grid[tgt] not in _WALKABLE or tgt in occupied:
                continue
            occupied.discard(positions[k])
            occupied.add(tgt)
            positions[k] = tgt
        st.positions[:] = positions
        st.orientations[:] = orientations

        # Phase 3: apple pickup.
        for k, cell in enumerate(positions):
            if grid[cell] == APPLE:
                grid[cell] = EMPTY
                counts[k, APPLE_COLLECTED] += 1

        # Phase 4: regrowth on unoccupied empty orchard cells, one draw each in
        # orchard order. Harvest counts apples as they stand before regrowth.
        free = grid.take(self._orchard_flat) == EMPTY
        for cell in positions:
            i = self._orchard_index.get(cell)
            if i is not None:
                free[i] = False
        candidates = self._orchard_flat[free]
        if len(candidates):
            draws = st.rng.random(len(candidates))
            if cfg.kind == "cleanup":
                prob = cleanup_spawn_rate(self.waste_density(),
                                          cfg.cleanup_depletion_threshold,
                                          cfg.cleanup_max_spawn_rate)
            else:
                prob = self._regrowth[self._apple_counts(grid == APPLE)[free]]
            grid.put(candidates[draws < prob], APPLE)

        # Phase 5: Cleanup waste spawning, one cell per step below saturation.
        if cfg.kind == "cleanup" and self._river:
            clean = self._river_flat[grid.take(self._river_flat) == RIVER]
            if len(clean) and st.rng.random() < cfg.waste_spawn_prob:
                grid.put(clean[int(st.rng.integers(len(clean)))], WASTE)

        st.t += 1
        return st, StepOutcome(extrinsic=counts @ EVENT_REWARDS, counts=counts)

    def _apple_counts(self, apple_mask):
        """Apples of `apple_mask` in each orchard cell's L1 radius-2
        neighbourhood, in orchard order."""
        self._apples[2:-2, 2:-2] = apple_mask
        return self._apples.take(self._neighbours).sum(axis=1)

    @property
    def done(self):
        return self.state is not None and self.state.t >= self.config.episode_length

    # -- observation ---------------------------------------------------------

    def observe(self):
        """Egocentric uint8 one-hot windows of all agents, (N, V, V, C), each
        rotated so that its agent faces up. Out-of-map cells read as wall.

        Every cell of the padded map gets its channel bits in one byte; one
        gather cuts and rotates the N windows, and the bytes unpack into the
        channel axis."""
        st = self.state
        R = self.config.view_size // 2
        bits = self._bits
        bits[R:R + self.height, R:R + self.width] = _CELL_BITS[st.grid]
        flat = bits.reshape(-1)
        pw = bits.shape[1]
        if st.beam_cells:
            flat[[(r + R) * pw + c + R for r, c in st.beam_cells]] |= 1 << C_BEAM
        corners = np.array([r * pw + c for r, c in st.positions.tolist()])
        flat[corners + (R * pw + R)] |= 1 << C_OTHER
        windows = flat[corners[:, None, None] + self._windows[st.orientations]]
        windows[:, R, R] ^= (1 << C_OTHER) | (1 << C_SELF)
        return np.unpackbits(windows[..., None], axis=-1, bitorder="little")


def render_ascii(state: EnvState):
    """Grid glyphs with agents as digits; per-agent status lines carry
    orientation and the cell glyph hidden under each agent."""
    lines = [[CELL_GLYPHS[c] for c in row] for row in state.grid]
    under = []
    for k, (r, c) in enumerate(state.positions):
        under.append(CELL_GLYPHS[state.grid[r, c]])
        lines[r][c] = str(k % 10)
    out = ["".join(row).replace(" ", ".") for row in lines]
    for k, (r, c) in enumerate(state.positions):
        out.append(f"agent {k}: row={r} col={c} facing={ORIENT_NAMES[state.orientations[k]]} "
                   f"under={under[k].replace(' ', '.')}")
    out.append(f"step {state.t}")
    return "\n".join(out) + "\n"


_GLYPH_TO_CODE = {v: k for k, v in CELL_GLYPHS.items()}
_GLYPH_TO_CODE["."] = EMPTY


def parse_render(text):
    """Inverse of render_ascii: returns (grid, positions, orientations, t)."""
    grid_rows, agents, t = [], [], 0
    for line in text.splitlines():
        if line.startswith("agent "):
            head, fields = line.split(":", 1)
            k = int(head.split()[1])
            kv = dict(f.split("=") for f in fields.split())
            agents.append((k, int(kv["row"]), int(kv["col"]),
                           ORIENT_NAMES.index(kv["facing"]), kv["under"]))
        elif line.startswith("step "):
            t = int(line.split()[1])
        elif line:
            grid_rows.append(line)
    grid = np.zeros((len(grid_rows), len(grid_rows[0])), dtype=np.uint8)
    for r, row in enumerate(grid_rows):
        for c, ch in enumerate(row):
            grid[r, c] = _GLYPH_TO_CODE.get(ch, EMPTY) if not ch.isdigit() else EMPTY
    positions = np.zeros((len(agents), 2), dtype=np.int64)
    orientations = np.zeros(len(agents), dtype=np.int64)
    for (k, r, c, o, under) in agents:
        grid[r, c] = _GLYPH_TO_CODE[under]
        positions[k] = (r, c)
        orientations[k] = o
    return grid, positions, orientations, t

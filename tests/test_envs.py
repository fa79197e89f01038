"""Gridworld semantics: reward values, beam geometry, movement, observation
encoding, regrowth dynamics, determinism and conservation properties."""

import dataclasses
import json

import numpy as np
import pytest

from marl_lab.envs import (
    APPLE, ConfigError, EMPTY, EVENT_REWARDS, EVENTS, EnvConfig, EnvState, FIRE_CLEAN,
    FIRE_PUNISH, MOVE_DOWN, MOVE_LEFT, MOVE_RIGHT, MOVE_UP, NOOP, RIVER, SSDEnv,
    TURN_CCW, TURN_CW, WASTE, cleanup_spawn_rate, harvest_regrowth_prob, parse_render,
    render_ascii,
)
from marl_lab.envs import env as env_module, maps
from marl_lab.envs.env import EAST, NORTH, NUM_CHANNELS, SOUTH, WEST
from marl_lab.envs.maps import BUILTIN_MAPS, load_map

from helpers import reference_observe


def make_env(rows, kind="cleanup", n=1, seed=0, **kw):
    kw.setdefault("episode_length", 100)
    kw.setdefault("view_size", 5)
    kw.setdefault("cleanup_max_spawn_rate", 0.0)
    kw.setdefault("waste_spawn_prob", 0.0)
    kw.setdefault("initial_waste_fraction", 0.0)
    env = SSDEnv(EnvConfig(kind=kind, map=rows, num_agents=n, seed=seed, **kw))
    env.reset()
    return env


def brute_force_apple_count(apple_mask, cell):
    """Apples within L1 distance 2 of cell, not counting the cell itself."""
    r0, c0 = cell
    H, W = apple_mask.shape
    return sum(1 for r in range(r0 - 2, r0 + 3) for c in range(c0 - 2, c0 + 3)
               if 0 < abs(r - r0) + abs(c - c0) <= 2
               and 0 <= r < H and 0 <= c < W and apple_mask[r, c])


def builtin_map_kind(name):
    return "harvest" if name.startswith("harvest") else "cleanup"


class TestRates:
    def test_cleanup_rate_zero_at_and_above_threshold(self):
        assert cleanup_spawn_rate(0.4) == 0.0
        assert cleanup_spawn_rate(0.7) == 0.0
        assert cleanup_spawn_rate(1.0) == 0.0

    def test_cleanup_rate_max_at_clean_river(self):
        assert cleanup_spawn_rate(0.0) == 0.05

    def test_cleanup_rate_linear_interpolation(self):
        assert cleanup_spawn_rate(0.2) == pytest.approx(0.025, abs=1e-15)

    def test_harvest_zero_neighbors_never_regrows(self):
        assert harvest_regrowth_prob(0) == 0.0

    def test_harvest_table(self):
        assert harvest_regrowth_prob(1) == 0.01
        assert harvest_regrowth_prob(2) == 0.01
        assert harvest_regrowth_prob(3) == 0.05
        assert harvest_regrowth_prob(4) == 0.05
        assert harvest_regrowth_prob(5) == 0.1
        assert harvest_regrowth_prob(11) == 0.1

    def test_harvest_monotone_nondecreasing(self):
        probs = [harvest_regrowth_prob(i) for i in range(13)]
        assert all(a <= b for a, b in zip(probs, probs[1:]))


class TestReset:
    def test_same_seed_gives_identical_state(self):
        e1 = SSDEnv(EnvConfig(map="cleanup_mini", num_agents=2, seed=11))
        e2 = SSDEnv(EnvConfig(map="cleanup_mini", num_agents=2, seed=11))
        s1, s2 = e1.reset(), e2.reset()
        np.testing.assert_array_equal(s1.grid, s2.grid)
        np.testing.assert_array_equal(s1.positions, s2.positions)
        np.testing.assert_array_equal(s1.orientations, s2.orientations)
        assert s1.t == s2.t == 0

    def test_env_reads_the_map_its_config_parsed(self, monkeypatch):
        # the config parses the map once; building envs from it parses nothing
        config = EnvConfig(map="harvest_mini", kind="harvest", num_agents=2)
        calls = []

        def counting_load_map(*args):
            calls.append(args)
            return load_map(*args)

        monkeypatch.setattr(maps, "load_map", counting_load_map)
        monkeypatch.setattr(env_module, "load_map", counting_load_map, raising=False)
        env = SSDEnv(config)
        assert calls == []
        assert env.num_actions == config.num_actions == 8
        # not a field, so neither a spec key nor a snapshot line
        assert "parsed_map" not in {f.name for f in dataclasses.fields(EnvConfig)}

    def test_too_many_agents_rejected(self):
        with pytest.raises(ConfigError):
            SSDEnv(EnvConfig(map="cleanup_mini", num_agents=3))

    def test_mini_cleanup_reset_waste_fill(self):
        env = SSDEnv(EnvConfig(map="cleanup_mini", num_agents=2,
                               initial_waste_fraction=0.5))
        env.reset()
        assert env.state.t == 0
        # shipped mini map has a 12-cell river; half filled -> density 0.5
        assert len(env._river) == 12
        assert int(np.sum(env.state.grid == WASTE)) == 6
        assert env.waste_density() == pytest.approx(0.5)

    def test_agents_on_distinct_spawn_cells(self):
        env = SSDEnv(EnvConfig(map="cleanup_large", num_agents=5))
        env.reset()
        assert len({tuple(p) for p in env.state.positions}) == 5

    def test_malformed_map_rejected(self):
        with pytest.raises(ConfigError):
            SSDEnv(EnvConfig(map=["###", "# #", "##"], num_agents=1))
        with pytest.raises(ConfigError):
            SSDEnv(EnvConfig(kind="harvest", map=["###", "#~#", "###"], num_agents=0))


class TestStepRewards:
    def test_apple_pickup_rewards_plus_one(self):
        env = make_env(["#####", "#PA #", "#   #", "#####"])
        env.state.orientations[0] = EAST
        _, out = env.step([MOVE_UP])
        assert out.extrinsic[0] == 1.0
        assert env.state.grid[1, 2] == EMPTY
        assert dict(zip(EVENTS, out.counts[0].tolist())) == {
            "apple_collected": 1, "punish_fired": 0, "agent_hit": 0, "clean_fired": 0,
            "waste_cleaned": 0}

    def test_punish_beam_costs_and_hits(self):
        env = make_env(["#######", "#P  P #", "#     #", "#######"], n=2)
        env.state.positions[0] = (1, 1)
        env.state.positions[1] = (1, 3)
        env.state.orientations[:] = EAST
        _, out = env.step([FIRE_PUNISH, NOOP])
        assert out.extrinsic[0] == -1.0
        assert out.extrinsic[1] == -50.0
        fired, hit = EVENTS.index("punish_fired"), EVENTS.index("agent_hit")
        assert out.counts.sum() == 2
        assert out.counts[0, fired] == 1 and out.counts[1, hit] == 1

    def test_simultaneous_hits_stack(self):
        env = make_env(["##########", "#P  P   P#", "#        #", "##########"], n=3)
        env.state.positions[0] = (1, 1)
        env.state.positions[1] = (1, 4)
        env.state.positions[2] = (1, 8)
        env.state.orientations[0] = EAST
        env.state.orientations[2] = WEST
        _, out = env.step([FIRE_PUNISH, NOOP, FIRE_PUNISH])
        assert out.extrinsic[1] == -100.0   # both beams cover the middle agent
        assert out.counts[1, EVENTS.index("agent_hit")] == 2
        assert out.extrinsic[0] == -1.0 and out.extrinsic[2] == -1.0

    def test_saturated_cleanup_noop_spawns_nothing(self):
        env = make_env(["######", "#~~P #", "#~~ B#", "######"],
                       initial_waste_fraction=1.0, cleanup_max_spawn_rate=0.05,
                       waste_spawn_prob=0.5)
        assert env.waste_density() == 1.0
        for _ in range(20):
            _, out = env.step([NOOP])
            assert np.all(out.extrinsic == 0.0)
            assert int(np.sum(env.state.grid == APPLE)) == 0

    def test_clean_beam_converts_waste_to_river(self):
        env = make_env(["######", "#WP  #", "#W   #", "######"],
                       initial_waste_fraction=0.0)
        env.state.orientations[0] = WEST
        before = int(np.sum(env.state.grid == WASTE))
        assert before == 2
        _, out = env.step([FIRE_CLEAN])
        assert out.counts[0, EVENTS.index("clean_fired")] == 1
        assert out.counts[0, EVENTS.index("waste_cleaned")] == 2
        assert int(np.sum(env.state.grid == WASTE)) == 0
        assert env.state.grid[1, 1] == RIVER and env.state.grid[2, 1] == RIVER
        assert out.extrinsic[0] == 0.0   # cleaning costs nothing

    def test_fire_clean_rejected_in_harvest(self):
        env = make_env(["####", "#PA#", "####"], kind="harvest")
        with pytest.raises(ValueError):
            env.step([FIRE_CLEAN])

    def test_step_after_episode_end_rejected(self):
        env = make_env(["####", "#P #", "####"], episode_length=1)
        env.step([NOOP])
        with pytest.raises(RuntimeError):
            env.step([NOOP])


class TestMovement:
    def _open_env(self):
        env = make_env(["#####", "#   #", "# P #", "#   #", "#####"])
        env.state.positions[0] = (2, 2)
        return env

    @pytest.mark.parametrize("orient,action,target", [
        (NORTH, MOVE_UP, (1, 2)), (NORTH, MOVE_DOWN, (3, 2)),
        (NORTH, MOVE_LEFT, (2, 1)), (NORTH, MOVE_RIGHT, (2, 3)),
        (EAST, MOVE_UP, (2, 3)), (EAST, MOVE_LEFT, (1, 2)),
        (SOUTH, MOVE_UP, (3, 2)), (WEST, MOVE_UP, (2, 1)),
        (WEST, MOVE_RIGHT, (1, 2)),
    ])
    def test_egocentric_moves(self, orient, action, target):
        env = self._open_env()
        env.state.orientations[0] = orient
        env.step([action])
        assert tuple(env.state.positions[0]) == target

    def test_turns_change_orientation_only(self):
        env = self._open_env()
        env.state.orientations[0] = NORTH
        env.step([TURN_CW])
        assert env.state.orientations[0] == EAST
        env.step([TURN_CCW])
        env.step([TURN_CCW])
        assert env.state.orientations[0] == WEST
        assert tuple(env.state.positions[0]) == (2, 2)

    def test_wall_and_water_block_movement(self):
        env = make_env(["####", "#P~#", "####"])
        env.state.orientations[0] = EAST
        env.step([MOVE_UP])
        assert tuple(env.state.positions[0]) == (1, 1)

    def test_move_conflict_resolves_to_single_winner(self):
        env = make_env(["#####", "#P P#", "#####"], n=2)
        env.state.positions[0] = (1, 1)
        env.state.positions[1] = (1, 3)
        env.state.orientations[0] = EAST
        env.state.orientations[1] = WEST
        env.step([MOVE_UP, MOVE_UP])
        pos = {tuple(p) for p in env.state.positions}
        assert len(pos) == 2
        assert (1, 2) in pos

    def test_occupied_cell_blocks_entry(self):
        env = make_env(["#####", "#PP #", "#####"], n=2)
        env.state.positions[0] = (1, 1)
        env.state.positions[1] = (1, 2)
        env.state.orientations[0] = EAST
        env.step([MOVE_UP, NOOP])
        assert tuple(env.state.positions[0]) == (1, 1)


class TestBeamGeometry:
    def test_footprint_length_and_width(self):
        env = make_env(["#########", "#       #", "#P      #", "#       #",
                        "#########"], beam_length=5, beam_width=3)
        env.state.positions[0] = (2, 1)
        cells = env._beam_footprint((2, 1), EAST)
        # three rays of five cells, none blocked
        assert len(cells) == 15
        assert (1, 2) in cells and (3, 6) in cells and (2, 4) in cells
        assert (2, 1) not in cells   # starts in front of the agent

    def test_walls_block_each_ray_independently(self):
        env = make_env(["#########", "#       #", "#P  #   #", "#       #",
                        "#########"], beam_length=5, beam_width=3)
        cells = env._beam_footprint((2, 1), EAST)
        middle = [c for c in cells if c[0] == 2]
        assert middle == [(2, 2), (2, 3)]
        assert (1, 6) in cells and (3, 6) in cells


class TestObserve:
    def test_corner_agent_sees_walls_outside(self):
        env = make_env(["####", "#P #", "####"], view_size=5)
        env.state.orientations[0] = NORTH
        obs = env.observe()[0]
        # top-left of the window lies outside the map -> wall channel
        assert obs[0, 0, 1] == 1.0
        total = obs[:, :, :5].sum(axis=-1)
        np.testing.assert_array_equal(total, np.ones((5, 5)))

    def test_observation_deterministic(self):
        env = SSDEnv(EnvConfig(map="cleanup_mini", num_agents=2, seed=5))
        env.reset()
        np.testing.assert_array_equal(env.observe()[0], env.observe()[0])
        # the env's padded buffer carries no bits from one call to the next
        env.step([FIRE_PUNISH, FIRE_CLEAN])
        np.testing.assert_array_equal(env.observe(), env.observe())

    @pytest.mark.parametrize("orient", [NORTH, EAST, SOUTH, WEST])
    def test_faced_apple_appears_above_center(self, orient):
        env = make_env(["#####", "#   #", "# P #", "#   #", "#####"], view_size=3)
        env.state.positions[0] = (2, 2)
        env.state.orientations[0] = orient
        dr, dc = {NORTH: (-1, 0), EAST: (0, 1), SOUTH: (1, 0), WEST: (0, -1)}[orient]
        env.state.grid[2 + dr, 2 + dc] = APPLE
        obs = env.observe()[0]
        assert obs[0, 1, 2] == 1.0   # row above center, apple channel

    def test_self_and_other_channels(self):
        env = make_env(["#####", "#P P#", "#####"], n=2, view_size=5)
        env.state.positions[0] = (1, 1)
        env.state.positions[1] = (1, 3)
        env.state.orientations[:] = NORTH
        obs = env.observe()[0]
        assert obs[2, 2, 5] == 1.0
        assert obs[2, 4, 6] == 1.0

    @pytest.mark.parametrize("kind,map_name,n_actions", [
        ("cleanup", "cleanup_mini", 9), ("harvest", "harvest_mini", 8)])
    def test_cell_channels_one_hot_through_rollout(self, kind, map_name, n_actions):
        env = SSDEnv(EnvConfig(kind=kind, map=map_name, num_agents=2, seed=2,
                               episode_length=1000, view_size=7))
        env.reset()
        rng = np.random.default_rng(0)
        for _ in range(25):
            env.step(rng.integers(0, n_actions, size=2))
            for obs in env.observe():
                np.testing.assert_array_equal(obs[:, :, :5].sum(axis=-1),
                                              np.ones((7, 7)))
                assert obs[3, 3, 5] == 1.0   # self channel at center

    def test_beam_channel_shows_last_step_beams(self):
        env = make_env(["######", "#P  P#", "######"], n=2, view_size=5)
        env.state.positions[0] = (1, 1)
        env.state.positions[1] = (1, 4)
        env.state.orientations[:] = EAST
        env.step([FIRE_PUNISH, NOOP])
        obs = env.observe()[0]
        assert obs[:, :, 7].sum() > 0

    def test_all_windows_in_one_uint8_array(self):
        env = make_env(["######", "#P  P#", "#P   #", "######"], n=3, view_size=7)
        obs = env.observe()
        assert obs.shape == (3, 7, 7, NUM_CHANNELS) and obs.dtype == np.uint8
        assert obs.flags.c_contiguous

    @pytest.mark.parametrize("map_name", BUILTIN_MAPS)
    @pytest.mark.parametrize("view_size", [3, 7, 15])
    def test_windows_equal_per_agent_reference(self, map_name, view_size):
        spawns = len(load_map(map_name, builtin_map_kind(map_name)).spawns)
        rng = np.random.default_rng(view_size)
        beams = turns = 0
        for n in range(1, spawns + 1):
            env = SSDEnv(EnvConfig(kind=builtin_map_kind(map_name), map=map_name,
                                   num_agents=n, view_size=view_size, episode_length=60,
                                   seed=n))
            env.reset()
            seen = set()
            while True:
                reference = np.stack([reference_observe(env, k) for k in range(n)])
                np.testing.assert_array_equal(env.observe(), reference)
                beams += bool(env.state.beam_cells)
                seen.update(env.state.orientations.tolist())
                if env.done:
                    break
                env.step(rng.integers(0, env.num_actions, size=n))
            turns += len(seen) == 4
        assert beams > 0 and turns > 0     # beams and every orientation were seen


class TestRegrowth:
    def test_clean_river_full_rate_spawns_everywhere(self):
        env = make_env(["######", "#~PB #", "#~ BB#", "######"],
                       cleanup_max_spawn_rate=1.0, initial_waste_fraction=0.0)
        env.step([NOOP])
        for cell in env._orchard:
            assert env.state.grid[cell] == APPLE

    def test_waste_spawn_one_cell_per_step(self):
        env = make_env(["######", "#~~P #", "#~~  #", "######"],
                       waste_spawn_prob=1.0, initial_waste_fraction=0.0)
        env.step([NOOP])
        assert int(np.sum(env.state.grid == WASTE)) == 1
        env.step([NOOP])
        assert int(np.sum(env.state.grid == WASTE)) == 2

    def test_harvest_isolated_apple_draws_low_rate(self):
        env = make_env(["#####", "#A P#", "#B  #", "#####"], kind="harvest",
                       harvest_low_rate=0.25)
        # (2,1) has one apple within L1 radius 2 -> low rate applies
        mask = env.state.grid == APPLE
        assert brute_force_apple_count(mask, (2, 1)) == 1
        i = env._orchard.index((2, 1))
        assert env._apple_counts(mask)[i] == 1
        assert env._regrowth[1] == 0.25

    @pytest.mark.parametrize("map_name", BUILTIN_MAPS)
    def test_neighbour_table_counts_equal_brute_force(self, map_name):
        env = SSDEnv(EnvConfig(kind=builtin_map_kind(map_name), map=map_name))
        rng = np.random.default_rng(len(map_name))
        for density in (0.0, 0.2, 0.5, 0.8, 1.0):
            mask = rng.random((env.height, env.width)) < density
            want = [brute_force_apple_count(mask, cell) for cell in env._orchard]
            np.testing.assert_array_equal(env._apple_counts(mask), want)

    def test_regrowth_table_equals_rate_function(self):
        env = make_env(["#####", "#A P#", "#B  #", "#####"], kind="harvest",
                       harvest_low_rate=0.125, harvest_mid_rate=0.375,
                       harvest_high_rate=0.625)
        want = [harvest_regrowth_prob(count, 0.125, 0.375, 0.625) for count in range(13)]
        assert env._regrowth.tolist() == want

    def test_harvest_zero_density_is_permanent(self):
        rows = ["#####", "#AA #", "#A P#", "# AA#", "#####"]
        for seed in range(10):
            env = make_env(rows, kind="harvest", seed=seed, episode_length=200)
            rng = np.random.default_rng(seed)
            extinct_at = None
            for t in range(200):
                env.step([rng.integers(0, env.num_actions)])
                apples = int(np.sum(env.state.grid == APPLE))
                if extinct_at is None and apples == 0:
                    extinct_at = t
                if extinct_at is not None:
                    assert apples == 0


class TestProperties:
    def _rollout(self, seed, kind="cleanup", map_name="cleanup_mini", steps=60):
        env = SSDEnv(EnvConfig(kind=kind, map=map_name, num_agents=2, seed=seed,
                               episode_length=1000))
        env.reset()
        rng = np.random.default_rng(seed + 1000)
        rewards, grids = [], []
        for _ in range(steps):
            acts = rng.integers(0, env.num_actions, size=2)
            _, out = env.step(acts)
            rewards.append(out.extrinsic.copy())
            grids.append(env.state.grid.copy())
        return np.array(rewards), grids, env

    def test_identical_seeds_give_bit_identical_trajectories(self):
        r1, g1, _ = self._rollout(7)
        r2, g2, _ = self._rollout(7)
        np.testing.assert_array_equal(r1, r2)
        for a, b in zip(g1, g2):
            np.testing.assert_array_equal(a, b)

    def test_reward_closure_events_explain_rewards(self):
        # The beam counts follow the step's actions, and the rewards are
        # rebuilt from the paper's values, not from EVENT_REWARDS.
        assert dict(zip(EVENTS, EVENT_REWARDS.tolist())) == {
            "apple_collected": 1.0, "punish_fired": -1.0, "agent_hit": -50.0,
            "clean_fired": 0.0, "waste_cleaned": 0.0}
        for kind, map_name in (("cleanup", "cleanup_mini"), ("harvest", "harvest_mini")):
            env = SSDEnv(EnvConfig(kind=kind, map=map_name, num_agents=2, seed=3,
                                   episode_length=1000))
            env.reset()
            rng = np.random.default_rng(42)
            for _ in range(80):
                acts = rng.integers(0, env.num_actions, size=2)
                _, out = env.step(acts)
                assert out.counts.dtype == np.int64 and out.counts.shape == (2, len(EVENTS))
                fired = out.counts[:, EVENTS.index("punish_fired")]
                np.testing.assert_array_equal(fired, acts == FIRE_PUNISH)
                np.testing.assert_array_equal(out.counts[:, EVENTS.index("clean_fired")],
                                              acts == FIRE_CLEAN)
                recon = (out.counts[:, EVENTS.index("apple_collected")] * 1.0
                         - fired * 1.0 - out.counts[:, EVENTS.index("agent_hit")] * 50.0)
                np.testing.assert_array_equal(recon, out.extrinsic)

    @pytest.mark.parametrize("map_name", BUILTIN_MAPS)
    def test_events_are_json_serialisable(self, map_name):
        # An episode's counts as {name: count}, the form replay writes.
        env = SSDEnv(EnvConfig(kind=builtin_map_kind(map_name), map=map_name,
                               num_agents=2, seed=4, episode_length=300))
        env.reset()
        rng = np.random.default_rng(4)
        totals = np.zeros((2, len(EVENTS)), dtype=np.int64)
        while not env.done:
            _, out = env.step(rng.integers(0, env.num_actions, size=2))
            totals += out.counts
        per_agent = [dict(zip(EVENTS, row.tolist())) for row in totals]
        assert json.loads(json.dumps(per_agent)) == per_agent
        seen = {name for row in per_agent for name, count in row.items() if count}
        assert {"apple_collected", "punish_fired"} <= seen
        if builtin_map_kind(map_name) == "cleanup":
            assert {"clean_fired", "waste_cleaned"} <= seen
        else:
            assert "clean_fired" not in seen and "waste_cleaned" not in seen

    def test_occupancy_distinct_and_in_bounds(self):
        _, _, env = self._rollout(11, steps=100)
        pos = {tuple(p) for p in env.state.positions}
        assert len(pos) == 2
        for r, c in pos:
            assert 0 <= r < env.height and 0 <= c < env.width

    def test_conservation_apples_and_waste_in_legal_cells(self):
        _, grids, env = self._rollout(13, steps=80)
        orchard = set(env._orchard)
        river = set(env._river)
        for g in grids:
            for (r, c) in zip(*np.where(g == APPLE)):
                assert (r, c) in orchard
            for (r, c) in zip(*np.where(g == WASTE)):
                assert (r, c) in river


class TestRender:
    def test_empty_two_by_two(self):
        state = EnvState(grid=np.zeros((2, 2), dtype=np.uint8),
                         positions=np.zeros((0, 2), dtype=np.int64),
                         orientations=np.zeros(0, dtype=np.int64),
                         rng=np.random.default_rng(0))
        text = render_ascii(state)
        assert text.splitlines()[:2] == ["..", ".."]

    def test_round_trip_recovers_grid(self):
        env = SSDEnv(EnvConfig(map="cleanup_mini", num_agents=2, seed=9))
        env.reset()
        env.step([MOVE_UP, TURN_CW])
        grid, pos, orient, t = parse_render(render_ascii(env.state))
        np.testing.assert_array_equal(grid, env.state.grid)
        np.testing.assert_array_equal(pos, env.state.positions)
        np.testing.assert_array_equal(orient, env.state.orientations)
        assert t == env.state.t

    def test_mini_cleanup_river_columns(self):
        env = SSDEnv(EnvConfig(map="cleanup_mini", num_agents=2, seed=0,
                               initial_waste_fraction=0.0))
        env.reset()
        text = render_ascii(env.state).splitlines()
        for row in range(1, 7):
            assert text[row][1] == "~" and text[row][2] == "~"

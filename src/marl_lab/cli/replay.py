"""Checkpoint replay: deterministic rollouts streamed as ASCII frames."""

from __future__ import annotations

from ..agents import AgentNets
from ..envs import ConfigError, render_ascii
from ..nn import CheckpointError, load_checkpoint, read_manifest
from ..training.rollout import episode_batch, lockstep_step
from .experiment import resolve_spec
from .rundir import find_agent_checkpoints


def load_agents_for_env(ckpt_dir, env_config, sizes):
    paths = find_agent_checkpoints(ckpt_dir)
    if len(paths) != env_config.num_agents:
        raise CheckpointError(
            f"checkpoint holds {len(paths)} agents but the environment "
            f"expects {env_config.num_agents}")
    agents = []
    for k, path in enumerate(paths):
        meta = read_manifest(path)["meta"]
        if (meta.get("view_size") != env_config.view_size
                or meta.get("num_actions") != env_config.num_actions
                or meta.get("num_agents") != env_config.num_agents):
            raise CheckpointError(
                f"{path}: checkpoint geometry {meta} does not match the "
                f"environment (view {env_config.view_size}, "
                f"{env_config.num_actions} actions, {env_config.num_agents} agents)")
        nets = AgentNets(env_config.view_size, env_config.num_actions,
                         env_config.num_agents, seed=[0, k], sizes=sizes)
        load_checkpoint(path, nets.sections)
        agents.append(nets)
    return agents


def replay(ckpt_dir, env_spec_path, episodes, seed, greedy=False, sink=None):
    """Roll trained agents, each episode a baseline-shaped batch of one; frames go
    to sink(text) per step. Returns per-episode (collective reward, per-agent
    returns, event counts)."""
    if episodes < 1:
        raise ConfigError(f"--episodes {episodes}: replay needs at least one episode",
                          "episodes")
    if seed < 0:
        raise ConfigError(f"--seed {seed}: seeds must not be negative", "seed")
    spec = resolve_spec(env_spec_path)
    env_config = spec.env
    agents = load_agents_for_env(ckpt_dir, env_config, spec.net)
    results = []
    for ep in range(episodes):
        workers = episode_batch(agents, env_config, seed, [ep], replay=True)
        while not workers.envs[0].done:
            _, (stat,) = lockstep_step(workers, agents, greedy=greedy)
            if sink is not None:
                sink(render_ascii(workers.envs[0].state))
        results.append({"episode": ep, "collective_reward": stat.collective_reward,
                        "per_agent": stat.per_agent_returns.tolist(),
                        "events": stat.events})
    return results

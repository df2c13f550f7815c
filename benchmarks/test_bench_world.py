"""Benchmarks for the world generator itself.

The simulation is the substrate every experiment stands on; these benches
track its cost at a small scale so regressions in the daily loop or the
content materialiser show up.  The scale bench (``python -m
repro.simulation.scalebench``) records the same build at larger scales,
each in a fresh process.
"""

from repro.simulation.config import SimConfig
from repro.simulation.world import World, build_world


def test_bench_world_build(benchmark):
    world = benchmark.pedantic(
        lambda: build_world(SimConfig(seed=31, scale=0.001)), rounds=3, iterations=1
    )
    assert len(world.migrants) > 20


def test_bench_world_dynamics_only(benchmark):
    """The daily migration/switching loop without content materialisation."""

    def dynamics():
        config = SimConfig(seed=31, scale=0.001)
        world = World(config)
        world._seed_pre_takeover_accounts()
        from repro.util.clock import date_range

        for day in date_range(config.start, config.end):
            world._run_migrations(day)
            world._run_switches(day)
        return world

    world = benchmark.pedantic(dynamics, rounds=3, iterations=1)
    assert world.migrated_ids


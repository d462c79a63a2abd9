"""Unit and behavioral tests for the simulation engine (repro.sim.engine)."""

import pytest

from repro.errors import ConfigurationError
from repro.metrics.analytic import path_channels, zero_load_latency
from repro.sim.run import build_engine, cube_config, tree_config

from .conftest import small_cube_config, small_tree_config


class TestConstruction:
    def test_tree_lane_counts(self, tree_engine):
        # 4-ary 2-tree with 2 VCs: leaf down ports carry node channels
        eng = tree_engine
        topo = eng.topology
        leaf = topo.leaf_switch(0)
        assert len(eng.in_lanes[leaf][0]) == 2
        assert len(eng.out_lanes[leaf][0]) == 2
        # root up ports are pruned (external connections, no traffic)
        root = topo.switch_id(1, (), (0,))
        for port in topo.up_ports():
            assert eng.out_lanes[root][port] == []

    def test_cube_single_injection_lane(self, cube_engine_dor):
        # §5: P = 17 — one injection channel into the router crossbar
        eng = cube_engine_dor
        nport = eng.topology.ports_per_switch()
        for r in range(eng.topology.num_switches):
            assert len(eng.in_lanes[r][nport]) == 1
            assert len(eng.out_lanes[r][nport]) == 4  # V ejection lanes

    def test_ejection_lanes_per_node(self, tree_engine):
        assert all(len(ejs) == 2 for ejs in tree_engine.eject_lanes)

    def test_credit_initialization(self, cube_engine_dor):
        eng = cube_engine_dor
        for s in range(eng.topology.num_switches):
            for port_lanes in eng.out_lanes[s]:
                for lane in port_lanes:
                    if not eng.dirs[lane.dir].to_node:
                        assert lane.credits == eng.config.buffer_flits

    def test_injector_size_mismatch_rejected(self):
        from repro.routing.base import make_routing
        from repro.sim.engine import Engine
        from repro.topology.cube import KAryNCube
        from repro.traffic.generator import BernoulliInjector
        from repro.traffic.patterns import UniformPattern

        cfg = cube_config(k=4, n=2)
        with pytest.raises(ConfigurationError, match="nodes"):
            Engine(
                KAryNCube(4, 2),
                make_routing("dor"),
                BernoulliInjector(UniformPattern(8), 0.1, 16),
                cfg,
            )


class TestZeroLoadLatency:
    """The engine pipeline matches the analytic model exactly: a packet
    over c channels takes 3c + S - 4 cycles uncontended."""

    @pytest.mark.parametrize("dst", [1, 3, 5, 15])
    def test_tree(self, dst):
        cfg = tree_config(k=4, n=2, vcs=2, load=0.0, warmup_cycles=0, total_cycles=300)
        eng = build_engine(cfg)
        eng.preload_packet(0, dst)
        res = eng.run()
        eng.audit()
        assert res.delivered_packets == 1
        expect = zero_load_latency(path_channels(eng.topology, 0, dst), cfg.packet_flits)
        assert res.latency_max == expect

    @pytest.mark.parametrize("algorithm", ["dor", "duato"])
    @pytest.mark.parametrize("dst", [1, 5, 10, 15])
    def test_cube(self, algorithm, dst):
        cfg = cube_config(
            k=4, n=2, algorithm=algorithm, load=0.0, warmup_cycles=0, total_cycles=300
        )
        eng = build_engine(cfg)
        eng.preload_packet(0, dst)
        res = eng.run()
        eng.audit()
        assert res.delivered_packets == 1
        expect = zero_load_latency(path_channels(eng.topology, 0, dst), cfg.packet_flits)
        assert res.latency_max == expect

    def test_two_disjoint_packets_do_not_interact(self):
        cfg = cube_config(k=4, n=2, algorithm="dor", load=0.0, warmup_cycles=0, total_cycles=300)
        eng = build_engine(cfg)
        eng.preload_packet(0, 1)
        eng.preload_packet(10, 11)
        res = eng.run()
        assert res.delivered_packets == 2
        expect = zero_load_latency(3, cfg.packet_flits)
        assert res.latency_sum == 2 * expect


class TestPreload:
    def test_preload_validation(self, cube_engine_dor):
        with pytest.raises(ConfigurationError):
            cube_engine_dor.preload_packet(0, 0)
        with pytest.raises(ConfigurationError):
            cube_engine_dor.preload_packet(0, 99)

    def test_preload_on_inactive_node_activates_it(self):
        eng = build_engine(small_tree_config(load=0.0, warmup_cycles=0))
        eng.preload_packet(2, 3)
        res = eng.run()
        assert res.delivered_packets == 1


class TestAccounting:
    def test_conservation_after_saturated_run(self):
        eng = build_engine(small_cube_config(load=1.0, total_cycles=1500))
        eng.run()
        eng.audit()  # flit conservation, credits, buffer bounds

    def test_in_flight_tracking(self):
        eng = build_engine(small_cube_config(load=0.5, total_cycles=800))
        res = eng.run()
        assert eng.in_flight_packets() == res.in_flight_at_end
        assert eng.injected_packets_total == eng.delivered_packets_total + res.in_flight_at_end

    def test_warmup_excluded_from_stats(self):
        # run A measures [100, 600); run B measures everything: B sees
        # strictly more generated packets
        a = build_engine(small_cube_config(load=0.4)).run()
        b = build_engine(small_cube_config(load=0.4, warmup_cycles=0)).run()
        assert b.generated_packets > a.generated_packets

    def test_measured_cycles(self):
        res = build_engine(small_cube_config()).run()
        assert res.measured_cycles == 500

    def test_collect_latencies(self):
        eng = build_engine(small_cube_config(load=0.4, collect_latencies=True))
        res = eng.run()
        assert len(res.latencies) == res.delivered_packets
        assert sum(res.latencies) == res.latency_sum
        assert max(res.latencies) == res.latency_max

    def test_latency_samples_only_post_warmup_injections(self):
        eng = build_engine(small_cube_config(load=0.4, collect_latencies=True))
        res = eng.run()
        assert res.delivered_packets <= eng.delivered_packets_total

    def test_offered_close_to_nominal(self):
        res = build_engine(small_cube_config(load=0.3, total_cycles=4100, warmup_cycles=100)).run()
        assert res.offered_fraction == pytest.approx(0.3, rel=0.15)

    def test_accepted_equals_offered_below_saturation(self):
        res = build_engine(
            small_cube_config(load=0.15, total_cycles=4100, warmup_cycles=300)
        ).run()
        assert res.accepted_fraction == pytest.approx(res.offered_fraction, rel=0.08)
        assert not res.saturated

    def test_saturated_flag_at_overload(self):
        res = build_engine(
            small_tree_config(k=2, n=2, vcs=1, load=1.0, total_cycles=2000, warmup_cycles=300)
        ).run()
        assert res.saturated


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = build_engine(small_cube_config(seed=42)).run()
        b = build_engine(small_cube_config(seed=42)).run()
        assert a.delivered_packets == b.delivered_packets
        assert a.latency_sum == b.latency_sum
        assert a.generated_packets == b.generated_packets

    def test_different_seed_different_result(self):
        a = build_engine(small_cube_config(seed=42, load=0.5)).run()
        b = build_engine(small_cube_config(seed=43, load=0.5)).run()
        assert (a.latency_sum, a.generated_packets) != (b.latency_sum, b.generated_packets)


class TestSourceThrottling:
    def test_one_packet_in_flight_per_node(self):
        # with a single injection channel, a node streams packets strictly
        # one at a time: total injected flits never exceeds cycles
        eng = build_engine(small_tree_config(load=1.0, total_cycles=900))
        eng.run()
        assert eng.injected_flits_total <= 900 * eng.topology.num_nodes

    def test_post_saturation_throughput_stable(self):
        # §6: accepted bandwidth stays stable above saturation
        accepted = []
        for load in (0.8, 1.0):
            res = build_engine(
                small_tree_config(k=2, n=2, vcs=1, load=load, total_cycles=3000, warmup_cycles=500)
            ).run()
            accepted.append(res.accepted_fraction)
        assert accepted[1] == pytest.approx(accepted[0], rel=0.15)

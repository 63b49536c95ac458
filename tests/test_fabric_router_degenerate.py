"""FabricRouter on degenerate topologies the static verifier must handle."""

import pytest

from repro.scenarios.spec import (
    BridgeSpec,
    MasterSpec,
    SegmentSpec,
    SlaveSpec,
    TopologySpec,
)
from repro.soc.fabric import InterconnectFabric
from repro.soc.fabric.routing import RoutingError
from repro.soc.kernel import Simulator
from repro.staticcheck.analyzer import segment_paths


def make_fabric(segments, bridges):
    fabric = InterconnectFabric(Simulator())
    for name in segments:
        fabric.add_segment(name)
    for name, a, b in bridges:
        fabric.add_bridge(name, a, b)
    return fabric


class TestIsolatedSegments:
    def test_path_between_disconnected_segments_raises(self):
        fabric = make_fabric(["s0", "s1"], [])
        fabric.router.rebuild()
        assert fabric.router.path("s0", "s0") == ()
        with pytest.raises(RoutingError, match="no bridge path"):
            fabric.router.path("s0", "s1")

    def test_finalize_refuses_unreachable_regions(self):
        # A region on an island would leave other segments without a proxy
        # entry; finalize surfaces that as a routing error instead of
        # installing a map that silently cannot route.
        fabric = make_fabric(["s0", "s1"], [])
        fabric.add_region("bram", base=0x0, size=0x1000, slave="bram", segment="s1")
        with pytest.raises(RoutingError):
            fabric.finalize()

    def test_analyzer_paths_match_router_on_disconnected_graph(self):
        topology = TopologySpec(
            masters=(MasterSpec("cpu0", kind="cpu", segment="s0"),),
            slaves=(SlaveSpec("bram", "bram", base=0x0, size=0x1000, segment="s0"),),
            segments=(SegmentSpec("s0"), SegmentSpec("s1")),
        )
        paths = segment_paths(topology)
        assert paths[("s0", "s0")] == ()
        assert ("s0", "s1") not in paths


class TestMultipleBridgePaths:
    def test_tie_broken_by_bridge_registration_order(self):
        # Two parallel bridges join the same pair of segments; BFS must pick
        # the first-registered one, deterministically.
        fabric = make_fabric(
            ["s0", "s1"],
            [("br_late_name_first", "s0", "s1"), ("br_a", "s0", "s1")],
        )
        fabric.router.rebuild()
        assert fabric.router.path("s0", "s1") == ("br_late_name_first",)

    def test_shortest_path_wins_over_longer_alternative(self):
        # s0 -> s2 directly via br_direct, or via s1 with two hops; the
        # one-bridge route must win regardless of registration order.
        fabric = make_fabric(
            ["s0", "s1", "s2"],
            [("br01", "s0", "s1"), ("br12", "s1", "s2"), ("br_direct", "s0", "s2")],
        )
        fabric.router.rebuild()
        assert fabric.router.path("s0", "s2") == ("br_direct",)
        assert fabric.router.path("s1", "s0") == ("br01",)

    def test_route_to_same_slave_from_both_sides(self):
        fabric = make_fabric(["s0", "s1"], [("br", "s0", "s1")])
        fabric.add_region("shared", base=0x0, size=0x1000, slave="shared", segment="s1")
        fabric.finalize()
        assert fabric.router.path("s1", "s1") == ()
        assert fabric.router.path("s0", "s1") == ("br",)
        local = fabric.segments["s1"].address_map.decode(0x0)
        remote = fabric.segments["s0"].address_map.decode(0x0)
        assert local.slave == "shared"
        assert remote.slave == "bridge:br"
        assert remote.name == local.name == "shared"

    def test_analyzer_mirrors_parallel_bridge_tie_break(self):
        topology = TopologySpec(
            masters=(MasterSpec("cpu0", kind="cpu", segment="s0"),),
            slaves=(SlaveSpec("bram", "bram", base=0x0, size=0x1000, segment="s1"),),
            segments=(SegmentSpec("s0"), SegmentSpec("s1")),
            bridges=(BridgeSpec("first", "s0", "s1"), BridgeSpec("second", "s0", "s1")),
        )
        assert segment_paths(topology)[("s0", "s1")] == ("first",)


class TestDenyListedOnlyRoute:
    """A bridge deny list is an *enforcement* property: routing still resolves
    through the bridge (the transaction physically crosses it), and the
    bridge firewall's default-deny is what stops it.  The verifier leans on
    exactly this split."""

    def topology(self):
        return TopologySpec(
            masters=(
                MasterSpec("cpu0", kind="cpu", segment="s0"),
                MasterSpec("dma0", kind="dma", firewall=False, segment="s0",
                           accessible=("bram",)),
            ),
            slaves=(
                SlaveSpec("bram", "bram", base=0x0, size=0x1000, segment="s0"),
                SlaveSpec("vault", "bram", base=0x1000_0000, size=0x1000,
                          segment="s1"),
            ),
            segments=(SegmentSpec("s0"), SegmentSpec("s1")),
            bridges=(BridgeSpec("br", "s0", "s1", deny=("vault",)),),
        )

    def test_route_still_resolves_through_denying_bridge(self):
        fabric = make_fabric(["s0", "s1"], [("br", "s0", "s1")])
        fabric.add_region("vault", base=0x1000_0000, size=0x1000,
                          slave="vault", segment="s1")
        fabric.finalize()
        assert fabric.router.path("s0", "s1") == ("br",)
        proxy = fabric.segments["s0"].address_map.decode(0x1000_0000)
        assert proxy.slave == "bridge:br"

    def test_verifier_credits_the_deny_as_enforcement(self):
        from repro.scenarios.spec import ScenarioSpec
        from repro.staticcheck import verify_spec

        spec = ScenarioSpec(
            name="deny_only_route",
            description="bridge deny list guards the only route",
            topology=self.topology(),
            placement="both",
        )
        report = verify_spec(spec)
        assert not report.has_errors
        assert any(
            w.master == "dma0" and w.target == "vault" and w.enforced_by == "lf_br"
            for w in report.coverage
        )

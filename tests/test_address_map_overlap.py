"""AddressMap overlap rejection: regression pins for the static verifier.

The verifier's ``overlapping-regions`` check assumes the runtime map itself
refuses to register overlapping regions (so decode order can never silently
decide which device serves shared bytes).  These tests pin that contract:
overlap, full containment and duplicate names.
"""

import pytest

from repro.soc.address_map import AddressMap, AddressRegion


@pytest.fixture
def amap():
    m = AddressMap()
    m.add_region("bram", base=0x0, size=0x2000, slave="bram")
    m.add_region("ddr", base=0x9000_0000, size=0x4000, slave="ddr", external=True)
    return m


class TestOverlapRejection:
    def test_partial_overlap_rejected(self, amap):
        with pytest.raises(ValueError, match="overlaps"):
            amap.add_region("late", base=0x1000, size=0x2000, slave="x")

    def test_exact_duplicate_range_rejected(self, amap):
        with pytest.raises(ValueError, match="overlaps"):
            amap.add_region("twin", base=0x0, size=0x2000, slave="x")

    def test_contained_region_rejected(self, amap):
        with pytest.raises(ValueError, match="overlaps"):
            amap.add_region("inner", base=0x800, size=0x100, slave="x")

    def test_containing_region_rejected(self, amap):
        with pytest.raises(ValueError, match="overlaps"):
            amap.add_region("outer", base=0x0, size=0x1_0000, slave="x")

    def test_one_byte_overlap_rejected(self, amap):
        with pytest.raises(ValueError, match="overlaps"):
            amap.add_region("edge", base=0x1FFF, size=0x10, slave="x")

    def test_duplicate_name_rejected_even_when_disjoint(self, amap):
        with pytest.raises(ValueError, match="duplicate region name"):
            amap.add_region("bram", base=0x5000_0000, size=0x100, slave="x")

    def test_rejected_region_leaves_map_unchanged(self, amap):
        before = len(amap)
        with pytest.raises(ValueError):
            amap.add_region("late", base=0x1000, size=0x2000, slave="x")
        assert len(amap) == before
        assert "late" not in amap
        assert amap.decode(0x1000).name == "bram"

    def test_adjacent_regions_allowed(self, amap):
        amap.add_region("next", base=0x2000, size=0x100, slave="x")
        assert amap.decode(0x2000).name == "next"
        assert amap.decode(0x1FFF).name == "bram"


def test_region_overlap_predicate_is_symmetric():
    a = AddressRegion(name="a", base=0x0, size=0x100, slave="a")
    b = AddressRegion(name="b", base=0x80, size=0x100, slave="b")
    c = AddressRegion(name="c", base=0x100, size=0x100, slave="c")
    assert a.overlaps(b) and b.overlaps(a)
    assert not a.overlaps(c) and not c.overlaps(a)

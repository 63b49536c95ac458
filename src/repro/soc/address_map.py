"""Platform address map and decoding.

The firewalls of the paper define their security policies over address spaces
("in this work, policies are defined using the address spaces", section VI),
so a precise notion of address regions is part of the substrate: the bus uses
it to route transactions, and the Security Builder uses it to find which
policy governs a target address.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

__all__ = ["AddressRegion", "AddressMap", "DecodeError"]


class DecodeError(Exception):
    """Raised when an address does not fall into any mapped region."""

    def __init__(self, address: int) -> None:
        self.address = address
        super().__init__(f"address {address:#010x} does not decode to any region")


@dataclass(frozen=True)
class AddressRegion:
    """A contiguous, named address range owned by one slave device.

    Attributes
    ----------
    name:
        Region name, e.g. ``"bram"``, ``"ddr"``, ``"ip0_regs"``.
    base:
        First byte address of the region.
    size:
        Region size in bytes.
    slave:
        Name of the slave device that serves this region.
    external:
        True when the region lives outside the FPGA (the DDR); the latency
        model and the ciphering firewall both key off this flag.
    """

    name: str
    base: int
    size: int
    slave: str
    external: bool = False

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("region base must be non-negative")
        if self.size <= 0:
            raise ValueError("region size must be positive")

    @property
    def end(self) -> int:
        """One past the last byte of the region."""
        return self.base + self.size

    def contains(self, address: int, size: int = 1) -> bool:
        """Whether ``[address, address+size)`` lies entirely inside the region."""
        return self.base <= address and address + size <= self.end

    def overlaps(self, other: "AddressRegion") -> bool:
        """Whether two regions share at least one byte."""
        return self.base < other.end and other.base < self.end


class AddressMap:
    """Ordered collection of non-overlapping address regions."""

    #: Upper bound on memoised decode answers before least-recently-used
    #: entries are evicted (one at a time — never a wholesale reset, so an
    #: address-sweeping workload cannot flush the hot set).
    DECODE_CACHE_LIMIT = 65536

    def __init__(self) -> None:
        self._regions: List[AddressRegion] = []
        self._by_name: Dict[str, AddressRegion] = {}
        # Memoised decode() answers, LRU-ordered.  The region list is mostly
        # fixed once the platform is built, while the bus decodes the same
        # (address, size) pairs over and over; the memo is dropped whenever a
        # region is added or removed so remapping can never serve stale
        # answers.
        self._decode_cache: "OrderedDict[Tuple[int, int], AddressRegion]" = OrderedDict()

    def add(self, region: AddressRegion) -> AddressRegion:
        """Register a region, rejecting overlaps and duplicate names."""
        if region.name in self._by_name:
            raise ValueError(f"duplicate region name: {region.name}")
        for existing in self._regions:
            if existing.overlaps(region):
                raise ValueError(
                    f"region {region.name} [{region.base:#x}, {region.end:#x}) "
                    f"overlaps {existing.name} [{existing.base:#x}, {existing.end:#x})"
                )
        self._regions.append(region)
        self._regions.sort(key=lambda r: r.base)
        self._by_name[region.name] = region
        self._decode_cache.clear()
        return region

    def add_region(
        self,
        name: str,
        base: int,
        size: int,
        slave: str,
        external: bool = False,
    ) -> AddressRegion:
        """Convenience wrapper building and adding an :class:`AddressRegion`."""
        return self.add(AddressRegion(name=name, base=base, size=size, slave=slave, external=external))

    # -- lookup ---------------------------------------------------------------

    def decode(self, address: int, size: int = 1) -> AddressRegion:
        """Find the region containing ``[address, address+size)``.

        Raises :class:`DecodeError` when no region matches, which the bus
        surfaces as a decode-error response (and which an unprotected system
        happily lets an attacker probe for).
        """
        key = (address, size)
        cached = self._decode_cache.get(key)
        if cached is not None:
            self._decode_cache.move_to_end(key)
            return cached
        for region in self._regions:
            if region.contains(address, size):
                if len(self._decode_cache) >= self.DECODE_CACHE_LIMIT:
                    self._decode_cache.popitem(last=False)
                self._decode_cache[key] = region
                return region
        raise DecodeError(address)

    def region(self, name: str) -> AddressRegion:
        """Look a region up by name."""
        try:
            return self._by_name[name]
        except KeyError as exc:
            raise KeyError(f"no region named {name!r}") from exc

    def __iter__(self) -> Iterator[AddressRegion]:
        return iter(self._regions)

    def __len__(self) -> int:
        return len(self._regions)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def span(self) -> Tuple[int, int]:
        """(lowest base, highest end) over all regions."""
        if not self._regions:
            raise ValueError("address map is empty")
        return self._regions[0].base, self._regions[-1].end

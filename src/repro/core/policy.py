"""Security policies and the trusted Configuration Memory.

Section IV-A of the paper defines a Security Policy (SP) as the set of
parameters protecting one resource:

* **SPI** -- the policy identifier,
* **RWA** -- read-only / write-only / read-write access rule,
* **ADF** -- the data formats (access widths) the resource accepts,
* **CM / IM** -- confidentiality and integrity modes (only meaningful for the
  Local Ciphering Firewall),
* **CK** -- the cryptographic key (only for the LCF; modelled as a reference
  into the :class:`repro.crypto.keys.KeyStore` rather than raw key bytes, so
  policies can be serialised and logged without leaking key material).

Policies are stored in on-chip *Configuration Memories*, "considered as
trusted units" — each firewall owns one.  A configuration memory maps address
ranges to policies; the Security Builder queries it on every transaction.

The module also holds the policy data security plans are built from
(:func:`default_policies`, the ``SPI_*`` identifiers and the
:class:`ReactionPolicy` thresholds); it imports only the standard library.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

__all__ = [
    "ReadWriteAccess",
    "ConfidentialityMode",
    "IntegrityMode",
    "SecurityPolicy",
    "PolicyRule",
    "ConfigurationMemory",
    "PolicyLookupError",
    "ConfigurationMemoryFull",
    "ReactionPolicy",
    "default_policies",
]


class ReadWriteAccess(enum.Enum):
    """The paper's RWA parameter: which directions of access are authorised."""

    READ_ONLY = "read_only"
    WRITE_ONLY = "write_only"
    READ_WRITE = "read_write"
    NO_ACCESS = "no_access"

    def allows_read(self) -> bool:
        return self in (ReadWriteAccess.READ_ONLY, ReadWriteAccess.READ_WRITE)

    def allows_write(self) -> bool:
        return self in (ReadWriteAccess.WRITE_ONLY, ReadWriteAccess.READ_WRITE)


class ConfidentialityMode(enum.Enum):
    """CM parameter: execute or bypass the block-cipher module."""

    BYPASS = "bypass"
    CIPHER = "cipher"


class IntegrityMode(enum.Enum):
    """IM parameter: execute or bypass the hash-tree module."""

    BYPASS = "bypass"
    HASH_TREE = "hash_tree"


@dataclass(frozen=True)
class SecurityPolicy:
    """One security policy (the paper's SP).

    ``allowed_formats`` is the ADF parameter as a frozenset of byte widths;
    the paper allows "8 up to 32 bits", i.e. {1, 2, 4} on the 32-bit bus.
    ``key_spi`` indirects into the key store for the CK parameter.
    ``max_burst_length`` bounds burst accesses (a burst longer than the
    resource's buffer is the kind of "unauthorized format [that] may overwrite
    some protected data in the target IP").
    """

    spi: int
    rwa: ReadWriteAccess = ReadWriteAccess.READ_WRITE
    allowed_formats: FrozenSet[int] = frozenset({1, 2, 4})
    confidentiality: ConfidentialityMode = ConfidentialityMode.BYPASS
    integrity: IntegrityMode = IntegrityMode.BYPASS
    key_spi: Optional[int] = None
    max_burst_length: int = 16
    description: str = ""

    def __post_init__(self) -> None:
        if self.spi < 0:
            raise ValueError("SPI must be non-negative")
        if not self.allowed_formats:
            raise ValueError("policy must allow at least one data format")
        if any(width not in (1, 2, 4) for width in self.allowed_formats):
            raise ValueError("allowed formats must be a subset of {1, 2, 4} bytes")
        if self.max_burst_length < 1:
            raise ValueError("max_burst_length must be >= 1")
        if self.confidentiality is ConfidentialityMode.CIPHER and self.key_spi is None:
            raise ValueError("ciphering policy requires a key_spi")

    # -- convenience predicates -------------------------------------------------

    @property
    def needs_ciphering(self) -> bool:
        return self.confidentiality is ConfidentialityMode.CIPHER

    @property
    def needs_integrity(self) -> bool:
        return self.integrity is IntegrityMode.HASH_TREE

    def allows_operation(self, is_write: bool) -> bool:
        """Whether the RWA rule permits the access direction."""
        return self.rwa.allows_write() if is_write else self.rwa.allows_read()

    def allows_format(self, width: int) -> bool:
        """Whether the ADF rule permits the access width."""
        return width in self.allowed_formats

    def allows_burst(self, burst_length: int) -> bool:
        """Whether the burst length is within the allowed bound."""
        return 1 <= burst_length <= self.max_burst_length

    def with_updates(self, **changes) -> "SecurityPolicy":
        """Return a modified copy (used by runtime reconfiguration)."""
        return replace(self, **changes)

    def rule_count(self) -> int:
        """Number of elementary checking rules this policy implies.

        Used by the area model: the paper notes that "the cost of firewalls is
        also related to the number of security rules that must be monitored".
        One rule per check dimension: RWA, each allowed format, burst bound,
        plus CM and IM when enabled.
        """
        count = 1  # RWA
        count += len(self.allowed_formats)  # ADF comparators
        count += 1  # burst bound
        if self.needs_ciphering:
            count += 1
        if self.needs_integrity:
            count += 1
        return count


@dataclass(frozen=True)
class PolicyRule:
    """Binding of a policy to an address range inside a Configuration Memory."""

    base: int
    size: int
    policy: SecurityPolicy
    label: str = ""

    def __post_init__(self) -> None:
        if self.base < 0:
            raise ValueError("rule base must be non-negative")
        if self.size <= 0:
            raise ValueError("rule size must be positive")

    @property
    def end(self) -> int:
        return self.base + self.size

    def covers(self, address: int, size: int = 1) -> bool:
        """Whether ``[address, address+size)`` lies entirely inside the rule."""
        return self.base <= address and address + size <= self.end

    def overlaps(self, other: "PolicyRule") -> bool:
        return self.base < other.end and other.base < self.end


class PolicyLookupError(LookupError):
    """Raised when no rule covers a requested address range."""

    def __init__(self, address: int, size: int) -> None:
        self.address = address
        self.size = size
        super().__init__(
            f"no security policy covers [{address:#010x}, {address + size:#010x})"
        )


class ConfigurationMemoryFull(RuntimeError):
    """Raised when adding a rule would exceed the memory's capacity."""


class ConfigurationMemory:
    """Trusted on-chip storage of the policy rules of one firewall.

    Parameters
    ----------
    name:
        Name of the owning firewall (used in reports and the area model).
    capacity:
        Maximum number of rules this memory can hold; the paper sizes
        configuration memories in BRAM, so capacity drives BRAM cost in the
        area model.
    default_policy:
        Policy applied when no rule matches; ``None`` means default-deny
        (the Security Builder reports a policy miss and the firewall blocks).
    """

    def __init__(
        self,
        name: str,
        capacity: int = 32,
        default_policy: Optional[SecurityPolicy] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self._default_policy = default_policy
        self._rules: List[PolicyRule] = []
        self.lookup_count = 0
        self.miss_count = 0
        self.reconfiguration_count = 0
        # Monotonic counter bumped on every rule change; decision caches in
        # the firewalls compare it to know when their memoised verdicts are
        # stale.  Anything that mutates the rule set MUST bump it.
        self.generation = 0

    # -- rule management ---------------------------------------------------------

    def add_rule(self, rule: PolicyRule) -> PolicyRule:
        """Install a rule; rejects overlapping ranges and over-capacity."""
        if len(self._rules) >= self.capacity:
            raise ConfigurationMemoryFull(
                f"{self.name}: capacity {self.capacity} reached"
            )
        for existing in self._rules:
            if existing.overlaps(rule):
                raise ValueError(
                    f"{self.name}: rule [{rule.base:#x}, {rule.end:#x}) overlaps "
                    f"existing [{existing.base:#x}, {existing.end:#x})"
                )
        self._rules.append(rule)
        self._rules.sort(key=lambda r: r.base)
        self.generation += 1
        return rule

    def add(
        self,
        base: int,
        size: int,
        policy: SecurityPolicy,
        label: str = "",
    ) -> PolicyRule:
        """Convenience wrapper building and installing a :class:`PolicyRule`."""
        return self.add_rule(PolicyRule(base=base, size=size, policy=policy, label=label))

    def remove(self, base: int) -> bool:
        """Remove the rule starting at ``base``; returns True if one existed."""
        for index, rule in enumerate(self._rules):
            if rule.base == base:
                del self._rules[index]
                self.reconfiguration_count += 1
                self.generation += 1
                return True
        return False

    def replace_policy(self, base: int, policy: SecurityPolicy) -> bool:
        """Swap the policy of the rule starting at ``base`` (runtime reconfiguration)."""
        for index, rule in enumerate(self._rules):
            if rule.base == base:
                self._rules[index] = PolicyRule(
                    base=rule.base, size=rule.size, policy=policy, label=rule.label
                )
                self.reconfiguration_count += 1
                self.generation += 1
                return True
        return False

    @property
    def default_policy(self) -> Optional[SecurityPolicy]:
        """Policy applied when no rule matches (None = default-deny)."""
        return self._default_policy

    @default_policy.setter
    def default_policy(self, policy: Optional[SecurityPolicy]) -> None:
        # Assigning the fallback changes lookup outcomes, so it must
        # invalidate the firewalls' decision caches like any rule change.
        self._default_policy = policy
        self.generation += 1

    # -- lookup -------------------------------------------------------------------

    def lookup(self, address: int, size: int = 1) -> SecurityPolicy:
        """Find the policy governing ``[address, address+size)``.

        Falls back to the default policy, or raises :class:`PolicyLookupError`
        when there is none (default-deny).
        """
        self.lookup_count += 1
        end = address + size
        for rule in self._rules:
            # PolicyRule.covers, inline.
            base = rule.base
            if base <= address and end <= base + rule.size:
                return rule.policy
        self.miss_count += 1
        if self._default_policy is not None:
            return self._default_policy
        raise PolicyLookupError(address, size)

    def rule_for(self, address: int, size: int = 1) -> Optional[PolicyRule]:
        """The rule covering an address range, or None."""
        for rule in self._rules:
            if rule.covers(address, size):
                return rule
        return None

    # -- introspection ---------------------------------------------------------------

    @property
    def rules(self) -> Tuple[PolicyRule, ...]:
        return tuple(self._rules)

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[PolicyRule]:
        return iter(self._rules)

    def total_rule_count(self) -> int:
        """Total number of elementary checking rules across all policies.

        This is the quantity the paper says drives firewall area.
        """
        total = sum(rule.policy.rule_count() for rule in self._rules)
        if self.default_policy is not None:
            total += self.default_policy.rule_count()
        return total

    def policies(self) -> List[SecurityPolicy]:
        """Distinct policies installed in this memory."""
        seen: Dict[int, SecurityPolicy] = {}
        for rule in self._rules:
            seen[rule.policy.spi] = rule.policy
        return list(seen.values())


# ---------------------------------------------------------------------------
# Policy data the security plans are built from
# ---------------------------------------------------------------------------

# Well-known SPI values of the default policies.
SPI_INTERNAL_FULL = 1
SPI_INTERNAL_READONLY = 2
SPI_IP_REGISTERS = 3
SPI_DDR_PLAIN = 12


def default_policies() -> Dict[str, SecurityPolicy]:
    """The access-control policies plans are built from."""
    return {
        "internal_full": SecurityPolicy(
            spi=SPI_INTERNAL_FULL,
            rwa=ReadWriteAccess.READ_WRITE,
            allowed_formats=frozenset({1, 2, 4}),
            max_burst_length=16,
            description="full read/write access to internal resources",
        ),
        "internal_readonly": SecurityPolicy(
            spi=SPI_INTERNAL_READONLY,
            rwa=ReadWriteAccess.READ_ONLY,
            allowed_formats=frozenset({1, 2, 4}),
            max_burst_length=16,
            description="read-only window (e.g. shared code in BRAM)",
        ),
        "ip_registers": SecurityPolicy(
            spi=SPI_IP_REGISTERS,
            rwa=ReadWriteAccess.READ_WRITE,
            allowed_formats=frozenset({4}),
            max_burst_length=1,
            description="word-only, single-beat access to IP registers",
        ),
        "ddr_plain": SecurityPolicy(
            spi=SPI_DDR_PLAIN,
            rwa=ReadWriteAccess.READ_WRITE,
            allowed_formats=frozenset({1, 2, 4}),
            max_burst_length=16,
            description="unprotected external-memory window",
        ),
    }


@dataclass(frozen=True)
class ReactionPolicy:
    """Thresholds controlling automatic reactions.

    ``quarantine_after`` violations from one master trigger quarantine of the
    firewall guarding that master; ``zeroise_keys_on_critical`` erases the key
    store as soon as a CRITICAL integrity alert fires (so an attacker who has
    begun tampering with external memory cannot keep decrypting it).
    """

    quarantine_after: int = 3
    zeroise_keys_on_critical: bool = False

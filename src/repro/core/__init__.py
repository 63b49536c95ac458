"""The paper's contribution: distributed security for an MPSoC bus.

Public surface:

* policies and configuration memories (:mod:`repro.core.policy`),
* checking modules (:mod:`repro.core.checks`),
* the Local Firewall and the Local Ciphering Firewall
  (:mod:`repro.core.local_firewall`, :mod:`repro.core.ciphering_firewall`),
* alerting (:mod:`repro.core.alerts`) and runtime reaction / reconfiguration
  (:mod:`repro.core.manager`),
* :func:`repro.core.secure.attach_security`, which attaches all of the
  above to a platform according to a security plan,
* the paper-calibrated latency constants (:mod:`repro.core.constants`).
"""

from repro.core.constants import (
    CONFIDENTIALITY_CORE_CYCLES,
    CONFIDENTIALITY_CORE_THROUGHPUT_MBPS,
    INTEGRITY_CORE_CYCLES,
    INTEGRITY_CORE_THROUGHPUT_MBPS,
    SECURITY_BUILDER_CYCLES,
)
from repro.core.policy import (
    ConfidentialityMode,
    ConfigurationMemory,
    ConfigurationMemoryFull,
    IntegrityMode,
    PolicyLookupError,
    PolicyRule,
    ReadWriteAccess,
    SecurityPolicy,
)
from repro.core.checks import (
    AddressRangeCheck,
    BurstLengthCheck,
    CheckResult,
    DataFormatCheck,
    ReadWriteAccessCheck,
    SecurityCheck,
    default_check_suite,
)
from repro.core.alerts import SecurityAlert, SecurityMonitor, Severity, ViolationType
from repro.core.local_firewall import (
    CommunicationBlock,
    FirewallInterface,
    LocalFirewall,
    SecurityBuilder,
)
from repro.core.ciphering_firewall import (
    ConfidentialityCore,
    IntegrityCore,
    LocalCipheringFirewall,
    ProtectedRegion,
)
from repro.core.manager import ReactionEvent, ReactionPolicy, SecurityPolicyManager
from repro.core.thread_policy import (
    THREAD_ID_ANNOTATION,
    ThreadAwareLocalFirewall,
    ThreadSecurityDirectory,
)
from repro.core.secure import SecuredPlatform, default_policies

__all__ = [
    "SECURITY_BUILDER_CYCLES",
    "CONFIDENTIALITY_CORE_CYCLES",
    "INTEGRITY_CORE_CYCLES",
    "CONFIDENTIALITY_CORE_THROUGHPUT_MBPS",
    "INTEGRITY_CORE_THROUGHPUT_MBPS",
    "ReadWriteAccess",
    "ConfidentialityMode",
    "IntegrityMode",
    "SecurityPolicy",
    "PolicyRule",
    "ConfigurationMemory",
    "ConfigurationMemoryFull",
    "PolicyLookupError",
    "SecurityCheck",
    "CheckResult",
    "ReadWriteAccessCheck",
    "DataFormatCheck",
    "BurstLengthCheck",
    "AddressRangeCheck",
    "default_check_suite",
    "SecurityAlert",
    "SecurityMonitor",
    "Severity",
    "ViolationType",
    "LocalFirewall",
    "CommunicationBlock",
    "SecurityBuilder",
    "FirewallInterface",
    "LocalCipheringFirewall",
    "ConfidentialityCore",
    "IntegrityCore",
    "ProtectedRegion",
    "SecurityPolicyManager",
    "ReactionPolicy",
    "ReactionEvent",
    "ThreadSecurityDirectory",
    "ThreadAwareLocalFirewall",
    "THREAD_ID_ANNOTATION",
    "SecuredPlatform",
    "default_policies",
]

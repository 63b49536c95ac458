"""Attack injection framework.

The threat model (paper, section III) considers logical attacks mounted
through the external bus and the external memory, with three attacker goals:
processor hijacking, extraction of secret information and denial of service.
Every attack is a master issuing :class:`~repro.soc.transaction.Step` s
through :meth:`~repro.soc.system.SoCSystem.issue` (around an off-chip tamper
for the memory attacks), and :meth:`Attack.run` scores the alerts it raised.
The concrete attack classes here exercise each of the vectors the paper
enumerates:

* :class:`SpoofingAttack`, :class:`RelocationAttack`, :class:`ReplayAttack`
  -- tampering with the external memory contents (section III-B),
* :class:`HijackedIPAttack`, :class:`SensitiveRegisterProbe`,
  :class:`ExfiltrationAttack` -- an infected on-chip IP issuing unauthorized
  accesses (the case the Local Firewalls must stop at the interface),
* :class:`DoSFloodAttack` -- overwhelming traffic injection,
* :class:`CrossSegmentProbe`, :class:`CrossSegmentWriteStorm` -- hijacked
  IPs reaching across a hierarchical fabric, exercising containment at the
  bus bridges (leaf vs. bridge firewall placement).

:class:`CampaignRunner` runs a list of attacks against fresh protected and
unprotected platforms and produces the detection matrix used by the E6
experiment and the ``attack_campaign`` example.
"""

from repro.attacks.base import Attack, AttackOutcome, AttackResult
from repro.attacks.memory_attacks import RelocationAttack, ReplayAttack, SpoofingAttack
from repro.attacks.hijack import ExfiltrationAttack, HijackedIPAttack, SensitiveRegisterProbe
from repro.attacks.cross_segment import CrossSegmentProbe, CrossSegmentWriteStorm
from repro.attacks.dos import DoSFloodAttack
from repro.attacks.campaign import CampaignReport
from repro.attacks.runner import CampaignRunner

__all__ = [
    "Attack",
    "AttackResult",
    "AttackOutcome",
    "SpoofingAttack",
    "ReplayAttack",
    "RelocationAttack",
    "HijackedIPAttack",
    "SensitiveRegisterProbe",
    "ExfiltrationAttack",
    "DoSFloodAttack",
    "CrossSegmentProbe",
    "CrossSegmentWriteStorm",
    "CampaignReport",
    "CampaignRunner",
]

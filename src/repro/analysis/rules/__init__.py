"""The rule registry: every repo-specific invariant the pass enforces.

========  ========  ==============================================
id        severity  invariant
========  ========  ==============================================
R001      error     all randomness is explicitly seeded; no
                    wall-clock values in deterministic scope
R002      error     TransferCost fields are written only at the
                    whitelisted charge sites
R003      error     kernel twins and service stages expose matching
                    signatures; every scheme has a registered
                    transfer model
R004      warning   no ``==``/``!=`` on energy/cost floats
R005      warning   no iteration over unordered sets feeding
                    ordered outputs
R006      warning   deadline hygiene: no unbounded awaits on
                    blocking primitives in the service scope
R007      warning   async safety: no cross-await races, blocking
                    calls, task leaks, or swallowed cancellations
                    in the service scope
R008      error     C prototypes and ctypes argtypes/restype
                    bindings agree; every exported symbol is bound
========  ========  ==============================================

``R000`` (syntax error) is emitted by the framework itself.
"""

from __future__ import annotations

from repro.analysis.framework import Rule
from repro.analysis.rules.asyncsafety import AsyncSafetyRule
from repro.analysis.rules.cost import CostAccountingRule
from repro.analysis.rules.deadline import DeadlineHygieneRule
from repro.analysis.rules.determinism import SeedHygieneRule, UnorderedIterationRule
from repro.analysis.rules.ffi import FfiContractRule
from repro.analysis.rules.floats import FloatEqualityRule
from repro.analysis.rules.parity import TierParityRule

__all__ = ["default_rules", "known_rule_ids"]


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in id order."""
    rules: list[Rule] = [
        SeedHygieneRule(),
        CostAccountingRule(),
        TierParityRule(),
        FloatEqualityRule(),
        UnorderedIterationRule(),
        DeadlineHygieneRule(),
        AsyncSafetyRule(),
        FfiContractRule(),
    ]
    return sorted(rules, key=lambda r: r.id)


def known_rule_ids() -> tuple[str, ...]:
    """Every valid ``--rule`` id, R000 (the parse check) included."""
    return ("R000",) + tuple(rule.id for rule in default_rules())

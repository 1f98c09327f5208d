"""Semantic exception hierarchy.

Every error raised by this package derives from :class:`CipropError` and
carries a stable ``code`` string (its class name) so the CLI can emit
one-line diagnostics and map failures onto exit codes.
"""

from __future__ import annotations


class CipropError(Exception):
    """Base class for all package errors."""

    # the message as given, also for the kinds that are KeyErrors, whose
    # str() would be its repr
    __str__ = Exception.__str__

    @property
    def code(self) -> str:
        return type(self).__name__


class NegativeMass(CipropError, ValueError):
    """A probability entry is negative."""


class NotNormalized(CipropError, ValueError):
    """Probability entries do not sum to one within tolerance."""


class ShapeMismatch(CipropError, ValueError):
    """Table length, axis structure, or field lengths are inconsistent."""


class UnknownAxis(CipropError, KeyError):
    """A named axis does not exist in the grid."""


class IndexOutOfRange(CipropError, IndexError):
    """A bin index is outside its axis."""


class ZeroMassCondition(CipropError, ValueError):
    """Attempt to condition on (or fix) an event of zero probability."""


class OverlappingRoles(CipropError, ValueError):
    """The x / a / conditioning axis sets are not pairwise disjoint."""


class UnknownNode(CipropError, KeyError):
    """A named node does not exist in the DAG."""


class CycleDetected(CipropError, ValueError):
    """The directed graph is not acyclic."""


class NotAParent(CipropError, ValueError):
    """The designated parent node is not a parent of the target node."""


class SingleClass(CipropError, ValueError):
    """Adversary construction requires at least two equivalence classes."""


class PremiseViolated(CipropError, ValueError):
    """A conditional-independence premise required by the check fails."""


class BinOverflow(CipropError, ValueError):
    """A propagated value falls outside its output axis by over half a bin."""


class BudgetExceeded(CipropError, ValueError):
    """An enumeration guard (noise configurations, conditioning sets) tripped."""


class AdversaryCheckFailed(CipropError, RuntimeError):
    """A constructed adversary misses its guarantees.

    The premises must hold within 1e-9, the pointwise margin must reach
    0.1 and the conclusion must fail; the measured values are kept.
    """

    def __init__(self, dev_xa: float, dev_xb: float, margin: float) -> None:
        super().__init__(
            f"adversary misses its guarantees: premise deviations {dev_xa!r} / "
            f"{dev_xb!r} (bound 1e-9), pointwise margin {margin!r} (bound 0.1), "
            "conclusion must fail"
        )
        self.dev_xa = dev_xa
        self.dev_xb = dev_xb
        self.margin = margin

"""Exception hierarchy for kexnet.

All domain errors derive from KexnetError so the CLI can map them to a
single exit code.
"""

from __future__ import annotations


class KexnetError(Exception):
    """Base class for all kexnet domain errors."""


class InvalidSizeError(KexnetError):
    """Network size below the minimum of 2 hosts."""


class ProtocolConstructionError(KexnetError):
    """The residual-merging search could not reach the required step count."""


class ModelInconsistencyError(KexnetError):
    """The per-distance step rule and the closed-form count disagree."""


class SearchTooLargeError(KexnetError):
    """Exhaustive search requested above the configured size ceiling."""


class DegenerateFitError(KexnetError):
    """Least-squares fit requested on points with no x variance."""


class InvalidScenarioError(KexnetError):
    """Failure scenario references a component the topology does not have."""


class ScheduleFormatError(KexnetError, ValueError):
    """A schedule is not valid text or JSON schedule syntax."""

"""Shared exception types.

Exit-code mapping used by the CLI: DegenerateParameterError -> 2,
ExactnessError -> 3, everything else -> 1.
"""

from __future__ import annotations


class RingwavesError(Exception):
    """Base class for package errors."""


class SizeCapError(RingwavesError):
    """A combinatorial enumeration would exceed its configured cap."""


class ExactnessError(RingwavesError):
    """An internal consistency check failed, say an inexact division.

    This signals a defect of the algebra (a lattice or Weyl-order bug),
    never a rounding concern or bad input: all divisions in the ring
    recurrences must be exact.
    """


class DegenerateParameterError(RingwavesError):
    """Model parameters violate a nondegeneracy condition (e.g. sin(m*tau) ~ 0)."""

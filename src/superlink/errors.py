"""Exception hierarchy.

Construction errors signal a bad family/parameter combination; unsupported
input errors signal a well-formed request that the engine deliberately
refuses (non-integral weight, out-of-scope freeness test, ...).  The CLI
maps both to exit code 3; plain usage mistakes exit with 2 via argparse.
"""


class SuperlinkError(Exception):
    """Base class for all errors raised by this package."""


class ConstructionError(SuperlinkError):
    """Unsupported family or invalid parameters for a root datum."""


class DimensionMismatchError(SuperlinkError):
    """Weights or roots of the wrong coordinate length for the datum."""


class UnsupportedInputError(SuperlinkError):
    """Valid-looking input outside the supported scope; never guessed at."""


class MissingTableEntryError(SuperlinkError):
    """A multiplicity lookup hit pairs absent from the supplied table."""

    def __init__(self, missing):
        self.missing = list(missing)
        pairs = ", ".join(f"({a}, {b})" for a, b in self.missing)
        super().__init__(f"multiplicity table is missing entries for: {pairs}")


class CapExceededError(SuperlinkError):
    """An enumeration (box, Weyl group, cross-check group) exceeded its size cap."""

"""Exception types raised across the pipeline.

Every error carries a human-readable message; callers that need to
distinguish failure modes catch the specific class.  The class alone
decides the CLI's exit code: an InvalidConfig (UnknownKey and ParseError
included) is a bad flag, config key or setting value and exits 2; every
other OctCystError, like any OSError, is a bad or missing input or a
failed run and exits 1.
"""


class OctCystError(Exception):
    """Base class for all pipeline errors."""


# --- file formats ---------------------------------------------------------

class MalformedHeader(OctCystError):
    pass


class UnsupportedMaxval(OctCystError):
    pass


class TruncatedData(OctCystError):
    pass


class IoFailure(OctCystError):
    pass


class BadMagic(OctCystError):
    pass


class VersionMismatch(OctCystError):
    pass


class NonFiniteValue(OctCystError):
    pass


class MissingFile(OctCystError):
    pass


class EmptyManifest(OctCystError):
    pass


class BadRecord(OctCystError):
    pass


class PlacementFailure(OctCystError):
    pass


# --- layer graph ----------------------------------------------------------

class ImageTooSmall(OctCystError):
    pass


class EmptyField(OctCystError):
    pass


class DegeneratePath(OctCystError):
    pass


class NoLayerContrast(OctCystError):
    pass


class SubgraphTooThin(OctCystError):
    pass


class OrderingViolation(OctCystError):
    pass


# --- sample assembly ------------------------------------------------------

class TooLarge(OctCystError):
    pass


class WindowOutOfBounds(OctCystError):
    pass


class DimMismatch(OctCystError):
    pass


# --- tensor engine --------------------------------------------------------

class ShapeMismatch(OctCystError):
    pass


class OddDimension(OctCystError):
    pass


class NoRecordedGraph(OctCystError):
    pass


# --- training -------------------------------------------------------------

class StateShapeMismatch(OctCystError):
    pass


class EmptyDataset(OctCystError):
    pass


class ConfigMismatch(OctCystError):
    pass


# --- metrics --------------------------------------------------------------

class EmptyList(OctCystError):
    pass


class TooFew(OctCystError):
    pass


# --- configuration --------------------------------------------------------

class InvalidConfig(OctCystError, ValueError):
    """Base of every settings error."""


class UnknownKey(InvalidConfig):
    pass


class ParseError(InvalidConfig):
    pass

"""Exception types shared across the codec modules."""


class SyncodecError(Exception):
    """Base class for all library errors."""


class AlphabetError(SyncodecError):
    """A symbol or word does not fit the required alphabet."""


class PositionError(SyncodecError):
    """An error-pattern position is out of range for the target word."""


class SizeGuardError(SyncodecError):
    """An exhaustive operation was requested beyond its enumeration cap."""


class DecodeFailure(SyncodecError):
    """No consistent source word could be reconstructed.

    The codecs' `decode` methods report every received word they cannot
    explain with this class or a subclass of it.
    """


class NoCandidateError(DecodeFailure):
    """Sketch arithmetic produced no consistent correction."""


class MalformedEncodingError(DecodeFailure):
    """A runlength-replacement encoding has an inconsistent suffix structure."""


class EmptyListError(SyncodecError):
    """No library code raises this.  It stays only because the benchmark's
    tests import it as their example of an error that is not a
    `DecodeFailure`; the delsub list decoder raises `NoCandidateError`."""


class MissingTerminalMarkerError(DecodeFailure):
    """A word that must end with the segmentation marker does not."""


class LocateFailure(DecodeFailure):
    """The error-locating decoder could not produce a window."""


class ProfileError(SyncodecError):
    """The requested operation is not available under the active profile."""

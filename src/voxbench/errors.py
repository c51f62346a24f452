"""Exception hierarchy for voxbench.

Everything raised on purpose by this package derives from VoxbenchError so
callers can catch one base class. ValueError is still used for plain domain
mistakes on pure functions (negative elapsed time, zero vectors and so on),
matching how the standard library behaves.
"""

from __future__ import annotations


class VoxbenchError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(VoxbenchError):
    """A configuration value violates an invariant."""


class ConfigFileError(ConfigError):
    """A config file could not be parsed; message names the key and line."""


class ManifestFormatError(VoxbenchError):
    """A manifest file is missing its header or contains a bad record."""


class EmptyCorpusError(VoxbenchError):
    """The document directory contains no usable text files."""


class CorpusIOError(VoxbenchError):
    """A corpus file exists but could not be read, or two files share a
    doc_id; the message names the files."""


class UnknownDocumentError(VoxbenchError):
    """A doc_id was requested that the index does not contain."""


class DimensionMismatchError(VoxbenchError):
    """Two vectors (or a vector and an index) disagree on dimensionality."""


class CacheFormatError(VoxbenchError):
    """An index cache file is corrupt (bad magic, truncation, trailing bytes)."""


class CacheVersionError(CacheFormatError):
    """An index cache file has an unsupported format version.

    Callers that hold the source documents should treat this as "rebuild",
    not as data loss.
    """


class IncompleteFrameError(VoxbenchError):
    """A frame buffer ends mid-frame; the caller should wait for more bytes.

    This is a flow-control signal, not corruption.
    """


class CorruptFrameError(VoxbenchError):
    """A frame buffer starts with bytes that can never be a valid frame."""


class FrameVersionError(CorruptFrameError):
    """A frame declares a protocol version this decoder does not speak."""


class FrameTooLargeError(VoxbenchError):
    """A sentence payload exceeds the maximum encodable frame size."""


class GenerationAbortedError(VoxbenchError):
    """Token generation stopped early because the sink rejected an event."""

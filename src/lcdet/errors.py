"""Exception hierarchy shared across the package, and the one JSON decoder.

Exit-code contract for the CLI: 0 success, 1 usage error, 2 data error,
3 numeric failure.
"""

import json
import reprlib
import sys


class LCDetError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


class UsageError(LCDetError):
    """Bad flags, missing paths, unusable invocation."""

    exit_code = 1


class DataError(LCDetError):
    """Malformed or inconsistent input data (configs, files, shapes)."""

    exit_code = 2


class ConfigError(DataError):
    """Invalid network or layer configuration."""


class NumericError(LCDetError):
    """Numeric failure at runtime (NaN/Inf loss, divergence)."""

    exit_code = 3


class ModelFormatError(DataError):
    """Base for model-file decoding failures."""


class BadMagicError(ModelFormatError):
    """File does not start with the model-file magic."""


class VersionError(ModelFormatError):
    """Model-file version not supported."""


class ChecksumError(ModelFormatError):
    """Payload CRC32 mismatch."""


class TruncatedError(ModelFormatError):
    """File ends before a declared payload is complete."""


def parse_json(data: str | bytes, where: str):
    """``data`` (text, or UTF-8 bytes) as a JSON value. Anything else is a DataError
    naming ``where``: a syntax error (with its line and column), invalid UTF-8, an
    integer over Python's 4,300-digit limit, or nesting too deep."""
    try:
        return json.loads(data.decode() if isinstance(data, bytes) else data)
    except json.JSONDecodeError as e:
        raise DataError(f"{where}: not JSON at line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # UnicodeDecodeError is a ValueError
        raise DataError(f"{where}: not JSON: {e}") from None


def finite(value) -> bool:
    """A JSON number that a float64 holds: not NaN, not +-inf, no integer past its range."""
    return json_is(value, (int, float)) and abs(value) <= sys.float_info.max


def json_is(value, kind) -> bool:
    """isinstance for parsed JSON, where true and false are not numbers; a list
    of kinds asks for a list of exactly those kinds, a function is a test."""
    if isinstance(kind, list):
        return (isinstance(value, list) and len(value) == len(kind)
                and all(map(json_is, value, kind)))
    if isinstance(kind, (type, tuple)):
        return isinstance(value, kind) and not isinstance(value, bool)
    return kind(value)


def json_fields(d, schema: dict, where: str, defaults: dict | None = None) -> dict:
    """The ``schema`` fields of the JSON object ``d``; a ConfigError names the first
    one that is missing or fails ``json_is``. User-written JSON passes ``defaults``
    for the fields it may leave out, and may hold no field the program would not read."""
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected a JSON object, got {type(d).__name__}")
    unknown = sorted(d.keys() - schema.keys()) if defaults is not None else []
    if unknown:
        raise ConfigError(f"{where}: unknown field {unknown[0]!r}")
    d = {**(defaults or {}), **d}
    for key, kind in schema.items():
        if key not in d:
            raise ConfigError(f"{where}: missing field {key!r}")
        if not json_is(d[key], kind):
            raise ConfigError(f"{where}: field {key!r} has a bad type or value: "
                              f"{reprlib.repr(d[key])}")
    return {key: d[key] for key in schema}

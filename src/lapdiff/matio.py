"""Stable text file formats: matrix CSV, sample CSV, and key-value files.

Matrices are headerless comma-separated rows printed with 9 significant
digits (FLOAT_FORMAT), written a block of rows at a time. Sample files
carry a single `# n=<n> p=<p>` comment header so a reader can sanity-check
dimensions without parsing the whole file. Config, manifest, and report
files are flat `key = value` text with `#` comments.
"""

import math
import os
import warnings
from contextlib import contextmanager

import numpy as np

from .errors import InvalidInputError

__all__ = [
    "read_matrix_csv",
    "read_samples_csv",
    "write_matrix_csv",
    "write_samples_csv",
]

FLOAT_FORMAT = "%.9g"
# The relative precision of a value read back from FLOAT_FORMAT's text: half
# a unit in its last significant digit.
TEXT_PRECISION = 0.5 * 10.0 ** (1 - int(FLOAT_FORMAT[2:-1]))
# values per formatted block: one % operation per block, a bounded string at any width
_BLOCK_VALUES = 8192


@contextmanager
def _open_text(path):
    """Open path as UTF-8 text; bytes that do not decode are an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: file is not valid UTF-8") from None


def write_matrix_csv(path, matrix):
    """Write a 2-D array as headerless CSV with 9 significant digits."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-D array, got shape {a.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        _write_rows(fh, a)


def _write_rows(fh, a):
    """Write the rows of a 2-D float array as FLOAT_FORMAT fields joined by commas.

    One % operation formats a block of at most _BLOCK_VALUES values (one
    whole row when a row is wider) from Python floats, which print as
    numpy's float64 scalars do: the bytes are those of numpy's text writer
    with the same format and delimiter, which formats one row at a time from
    numpy scalars and took about 20% longer at p = 117 (2 cores, numpy
    2.4.6).
    """
    n, p = a.shape
    rows = max(1, _BLOCK_VALUES // max(1, p))
    row_format = ",".join([FLOAT_FORMAT] * p) + "\n"
    block_format = row_format * rows
    for start in range(0, n, rows):
        block = a[start : start + rows]
        if len(block) < rows:
            block_format = row_format * len(block)
        fh.write(block_format % tuple(block.ravel().tolist()))


def _parse_lines(lines, ndmin):
    """np.loadtxt on stripped lines, so whitespace-only ones are blank; silent on no data."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt((ln.strip() for ln in lines), delimiter=",", comments="#", ndmin=ndmin)


def _first_bad_line(path):
    """What is wrong with the first line that _parse_lines rejects alone or by width, or None."""
    width = None
    with _open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                size = _parse_lines([line], ndmin=1).size
            except ValueError:
                return f"bad number on line {lineno}"
            if size and size != (width := width or size):
                return f"ragged row on line {lineno} ({size} columns, expected {width})"


def read_matrix_csv(path):
    """Read a headerless CSV matrix written by write_matrix_csv.

    numpy parses the numbers (decimal ASCII, nan, inf); `#` starts a comment.
    """
    with _open_text(path) as fh:
        try:
            data = _parse_lines(fh, ndmin=2)
        except ValueError as exc:  # numpy counts data rows, not lines; a second pass names one
            raise InvalidInputError(f"{path}: {_first_bad_line(path) or exc}") from None
    if not data.size:
        raise InvalidInputError(f"{path}: no data rows")
    return data


def write_samples_csv(path, samples):
    """Write an n x p sample matrix with a `# n=<n> p=<p>` header line."""
    a = np.asarray(samples, dtype=float)
    if a.ndim != 2:
        raise InvalidInputError(f"expected a 2-D sample array, got shape {a.shape}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={a.shape[0]} p={a.shape[1]}\n")
        _write_rows(fh, a)


def read_samples_csv(path):
    """Read a sample matrix, validating the dimension header when present."""
    header = None
    with _open_text(path) as fh:
        first = fh.readline()
    if first.startswith("#"):
        try:
            fields = dict(part.split("=") for part in first[1:].split())
            header = (int(fields["n"]), int(fields["p"]))
        except (ValueError, KeyError):
            raise InvalidInputError(f"{path}: malformed sample header {first.strip()!r}")
    data = read_matrix_csv(path)
    if header is not None and data.shape != header:
        raise InvalidInputError(
            f"{path}: header says {header[0]}x{header[1]}, file has "
            f"{data.shape[0]}x{data.shape[1]}"
        )
    return data


def write_keyvalue(path, entries):
    """Write a flat key = value file (used for configs, manifests, reports)."""
    with open(path, "w") as fh:
        for key, value in entries.items():
            if isinstance(value, float):
                value = FLOAT_FORMAT % value
            elif isinstance(value, bool):
                value = "true" if value else "false"
            elif isinstance(value, (list, tuple)):
                value = ",".join(str(v) for v in value)
            fh.write(f"{key} = {value}\n")


def read_keyvalue(path):
    """Read a flat key = value file into a dict of strings.

    Lines are `key = value`; `#` starts a comment; blank lines are skipped.
    Values keep their raw text; callers coerce types. Duplicate keys raise,
    since silently keeping one of two values hides config mistakes.
    """
    entries = {}
    with _open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(f"{path}: line {lineno} is not `key = value`")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise InvalidInputError(f"{path}: line {lineno} has an empty key")
            if key in entries:
                raise InvalidInputError(f"{path}: duplicate key {key!r} on line {lineno}")
            entries[key] = value
    return entries


def parse_float(text, key):
    try:
        value = float(text)
    except ValueError:
        raise InvalidInputError(f"{key}: expected a number, got {text!r}")
    if not math.isfinite(value):
        raise InvalidInputError(f"{key}: must be finite, got {text!r}")
    return value


def parse_int(text, key):
    try:
        return int(text)
    except ValueError:
        raise InvalidInputError(f"{key}: expected an integer, got {text!r}")


def parse_float_list(text, key):
    items = [tok for tok in text.replace(",", " ").split() if tok]
    if not items:
        raise InvalidInputError(f"{key}: expected a list of numbers, got {text!r}")
    return tuple(parse_float(tok, key) for tok in items)


def parse_int_list(text, key):
    items = [tok for tok in text.replace(",", " ").split() if tok]
    if not items:
        raise InvalidInputError(f"{key}: expected a list of integers, got {text!r}")
    return tuple(parse_int(tok, key) for tok in items)


def require_readable(path, description="input"):
    """Fail fast with a clear message when an input path does not exist."""
    if not os.path.isfile(path):
        raise InvalidInputError(f"{description} file not found: {path}")
    return path

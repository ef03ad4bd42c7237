"""Deterministic JSON for matrices, vectors, and experiment reports.

Output contract: reals are printed with 17 significant digits (exact
double round-trip), complex matrices as row-major arrays of [re, im]
pairs, object keys sorted — so the same data always serializes to the
same bytes.  Parsing is strict and reports the offending file/field in
ParseError.
"""

from __future__ import annotations

import json
import math
from numbers import Integral, Real

import numpy as np

from .errors import ParseError, ValidationError

__all__ = [
    "dumps_canonical",
    "load_json",
    "parse_real_vector",
    "parse_complex_matrix",
    "read_vector_file",
    "read_matrix_file",
]


def _float_token(x: float) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _encode(obj) -> str:
    """The canonical text of obj, made in one walk: complex values become
    [re, im] pairs, arrays nested lists (row-major), numpy scalars Python
    ones.  The first fault in walk order (dict keys sorted) is raised."""
    if type(obj) is float:
        return _float_token(obj)
    if isinstance(obj, dict):
        obj = {str(k): v for k, v in obj.items()}  # a later equal key wins
        items = [f"{json.dumps(k)}: {_encode(obj[k])}" for k in sorted(obj)]
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join([_encode(v) for v in obj]) + "]"
    if isinstance(obj, np.ndarray):
        return _encode_array(obj)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return f"[{_float_token(obj.real)}, {_float_token(obj.imag)}]"
    if isinstance(obj, Integral):
        return str(int(obj))
    if isinstance(obj, Real):
        return _float_token(obj)
    raise ValidationError(f"cannot serialize object of type {type(obj).__name__}")


def _encode_array(arr: np.ndarray) -> str:
    """A float or complex array in bulk: one finiteness check, then one
    template, nested by the shape, formats each real (re before im)."""
    if arr.size == 0 or arr.dtype.char not in "efdFD":  # half to double, complex
        return _encode(arr.tolist())
    flat = np.ascontiguousarray(arr, dtype=complex if arr.dtype.kind == "c" else float)
    template = "[%.17g, %.17g]" if arr.dtype.kind == "c" else "%.17g"
    for n in reversed(arr.shape):
        template = "[" + ", ".join([template] * n) + "]"
    return _fill(template, flat.view(float))


def _fill(template: str, values: np.ndarray) -> str:
    """``template % values`` (float values, row-major) once all are finite."""
    flat = values.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        _float_token(flat[np.argmin(finite)])  # raises, naming the first one
    return template % tuple(flat.tolist())


def dumps_canonical(obj) -> str:
    """Serialize to the canonical JSON text (sorted keys, 17-digit reals)."""
    return _encode(obj) + "\n"


def load_json(path: str):
    """Load a JSON file, wrapping syntax errors in ParseError with context.

    Reads the token ``-0``, written for -0.0, as -0.0, so a canonical file
    keeps its signed zeros; plain ``json.loads`` reads it as the integer 0.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_int=lambda t: -0.0 if t == "-0" else int(t))
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc


def parse_real_vector(data, where: str = "vector") -> np.ndarray:
    """Parse a JSON array of reals into a float vector."""
    if not isinstance(data, list) or len(data) == 0:
        raise ParseError(f"{where}: expected a nonempty JSON array of numbers")
    out = np.empty(len(data))
    for i, v in enumerate(data):
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            raise ParseError(f"{where}[{i}]: expected a number, got {v!r}")
        out[i] = float(v)
    return out


def _parse_entry(v, where: str, i: int, j: int) -> tuple[float, float]:
    """(re, im) of entry [i][j] of the matrix at ``where``; the location is
    formatted only for an error."""
    if isinstance(v, (int, float)) and not isinstance(v, bool):
        return float(v), 0.0
    if (
        isinstance(v, list)
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    ):
        return float(v[0]), float(v[1])
    raise ParseError(f"{where}[{i}][{j}]: expected a number or [re, im] pair, got {v!r}")


def parse_complex_matrix(data, where: str = "matrix") -> np.ndarray:
    """Parse a row-major JSON matrix whose entries are reals or [re, im]."""
    if not isinstance(data, list) or len(data) == 0:
        raise ParseError(f"{where}: expected a nonempty JSON array of rows")
    width = len(data[0]) if isinstance(data[0], list) else None
    parts = []  # re, im of each entry, row-major
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) == 0:
            raise ParseError(f"{where}[{i}]: expected a nonempty row array")
        if len(row) != width:
            raise ParseError(f"{where}[{i}]: row has {len(row)} entries, expected {width}")
        for j, v in enumerate(row):
            pair = type(v) is list and len(v) == 2 and type(v[0]) is type(v[1]) is float
            parts += v if pair else _parse_entry(v, where, i, j)
    return np.array(parts, dtype=float).view(complex).reshape(len(data), width)


def read_vector_file(path: str) -> np.ndarray:
    return parse_real_vector(load_json(path), where=path)


def read_matrix_file(path: str) -> np.ndarray:
    return parse_complex_matrix(load_json(path), where=path)

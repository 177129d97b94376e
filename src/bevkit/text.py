"""How every text input is read: the number rule, the row reader, the field checker.

A numeric field is ASCII without ``_``: the rule refuses ``1_5`` or
``١٢`` before ``float()`` or ``int()`` sees it.  The trajectory formats,
the pairs CSV, the CLI's comma-separated options and its numeric argparse
options all read numbers by it.  JSON inputs (the pipeline config and the
synth spec) are checked against tables of field checks, and the library's
scalar arguments against the same rules by :func:`check_arg`.  Its array
arguments pass :func:`check_array`.

The module imports nothing but the standard library and
:mod:`bevkit.errors` at load, so the CLI can build its parser from it
alone; :func:`check_array` loads numpy when first called.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from collections import namedtuple
from itertools import repeat

from .errors import ParseError, ShapeError

# the names of the text trajectory formats; bevkit.formats holds their codecs
TRAJECTORY_FORMATS = ("kitti", "tum", "csv")


# ---------------------------------------------------------------------------
# text rows


class Rows(namedtuple("Rows", "count sep kinds comments header blank bad",
                      defaults=(None, float, False, "", "", "non-numeric field"))):
    """How a text input cuts into rows of numbers.

    * ``count``: fields in a row; None takes any number.
    * ``sep``: the field separator; None splits on whitespace.
    * ``kinds``: the converter of every field, or a tuple of one per field.
    * ``comments``: skip lines starting with ``#``.
    * ``header``: skip a first line starting with this, in any case.
    * ``blank``: the refusal of a blank line; empty skips blank lines.
    * ``bad``: what a conversion failure is called.
    """

    __slots__ = ()


# what float() and int() say of a string outside their grammar
_NOT_A_NUMBER = {float: "could not convert string to float: {!r}", int: "invalid literal for int() with base 10: {!r}"}


def read_number(kind: type, field: str):
    """``kind(field)`` for an ASCII field without ``_``; ``1_5`` or ``١٢`` fails as ``x`` does."""
    if field.isascii() and "_" not in field:
        return kind(field)
    raise ValueError(_NOT_A_NUMBER[kind].format(field))


def read_rows(lines, spec: Rows) -> tuple[list[list], list, ParseError | None]:
    """The rows of numbers in ``lines``, (line number, text) pairs, cut as ``spec`` says.

    Returns the rows before the first bad line, their line numbers, and
    that line's ParseError or None.  A caller judges the rows first, so an
    earlier row's bad value is reported before a later line's field error.
    """
    count, sep, kinds, comments, header, blank, bad = spec
    uniform = isinstance(kinds, type)
    per_field = repeat(kinds) if uniform else kinds
    what = "fields" if sep is None else "comma-separated fields"
    rows, linenos = [], []
    for lineno, raw in lines:
        line = raw.strip()
        if not line and blank:
            return rows, linenos, ParseError(blank, line=lineno)
        if not line or comments and line.startswith("#"):
            continue
        if header and lineno == 1 and line.lower().startswith(header):
            continue
        fields = line.split(sep)
        if sep is not None:
            fields = [f.strip() for f in fields]
        if count is not None and len(fields) != count:
            return rows, linenos, ParseError(f"expected {count} {what}, got {len(fields)}", line=lineno)
        try:
            if uniform and line.isascii() and "_" not in line:
                rows.append(list(map(kinds, fields)))  # every field passes the rule
            else:
                rows.append(list(map(read_number, per_field, fields)))
        except ValueError as exc:
            return rows, linenos, ParseError(f"{bad}: {exc}", line=lineno)
        linenos.append(lineno)
    return rows, linenos, None


def format_rows(fmt: str, rows, header: str | None = None) -> str:
    """One line per row, each a single ``fmt % tuple(row)``, after an optional header line.

    ``"%.17g" % x`` and ``"%.9f" % x`` give the bytes of ``f"{x:.17g}"`` and
    ``f"{x:.9f}"``, so the text is the one per-value f-strings wrote.
    """
    lines = [] if header is None else [header]
    lines.extend([fmt % tuple(row) for row in rows])
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# JSON field tables and library arguments

_REAL_MAX = sys.float_info.max
_LEAST_POSITIVE = math.ulp(0.0)  # so [_LEAST_POSITIVE, hi] is (0, hi]


def _integral(v) -> bool:
    """Whether ``v`` is an integer other than a bool, which ``numbers`` counts as one."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _real(v) -> bool:
    """Whether ``v`` is a real number other than a bool that a float holds: +-inf passes, NaN and 10**400 fail."""
    if isinstance(v, numbers.Integral):
        return _integral(v) and -_REAL_MAX <= v <= _REAL_MAX
    try:  # a numpy longdouble of 1e400 turns into inf, a Fraction past the float range raises
        return isinstance(v, numbers.Real) and (math.isfinite(float(v)) or float(v) == v)
    except OverflowError:
        return False


# A field check is a (predicate, description) pair; a scalar rule adds the plain type check_arg returns.
def integer_in(lo: int, hi: float = math.inf):
    text = f"an integer >= {lo}" if hi == math.inf else f"an integer in [{lo}, {hi}]"
    return (lambda v: (type(v) is int or _integral(v)) and lo <= v <= hi), text, int


def _number_in(lo: float, hi: float, text: str):
    """A number a float can hold, in [lo, hi]: NaN never passes, inf only when hi is inf."""
    # numpy's float64 is a float; float(v), as a float32 compared with the float maximum warns in the cast
    return (lambda v: (isinstance(v, float) or _real(v)) and lo <= float(v) <= hi), text, float


INTEGER = (lambda v: type(v) is int or _integral(v)), "an integer", int
AT_LEAST_ZERO = _number_in(0.0, math.inf, "a number >= 0")
FINITE_AT_LEAST_ZERO = _number_in(0.0, _REAL_MAX, "a finite number >= 0")
FINITE_POSITIVE = _number_in(_LEAST_POSITIVE, _REAL_MAX, "a finite number > 0")
FINITE = _number_in(-_REAL_MAX, _REAL_MAX, "a finite number")
# numpy's bool is no numbers.Integral, and no caller holds one before numpy is loaded
FLAG = (lambda v: type(v) is bool or isinstance(v, getattr(sys.modules.get("numpy"), "bool_", bool))), "a bool", bool


def check_arg(name: str, value, rule):
    """``value`` as the plain int, float or bool of ``rule``, or ValueError "<name> must be <text>, got <value!r>"."""
    test, text, kind = rule
    if test(value):
        return kind(value)
    raise ValueError(f"{name} must be {text}, got {value!r}")


def _numeric_array(name: str, value, shape: tuple | None):
    """The dtype and shape rule of :func:`check_array`: ``np.asarray(value)``, not converted."""
    import numpy as np

    try:
        a = np.asarray(value)
    except ValueError as exc:  # a ragged nest of sequences
        raise ValueError(f"{name}: {exc}") from None
    if a.dtype.kind not in "iuf" or a.dtype.itemsize > 8:
        raise ValueError(f"{name} must hold integers or floats of at most 64 bits, got dtype {a.dtype}")
    if shape is not None and a.shape != shape and not (a.ndim == len(shape) and all(
            n == k or type(k) is str and n > 0 for n, k in zip(a.shape, shape))):
        letters = ", ".join(dict.fromkeys(k for k in shape if type(k) is str))
        axes = ", ".join(map(str, shape)) + ("," if len(shape) == 1 else "")
        raise ShapeError(f"{name} must have shape ({axes}){letters and f' with {letters} >= 1'}, got {a.shape}")
    return a


def _float_array(name: str, value, shape: tuple | None, keep_float32: bool = False):
    """:func:`_numeric_array`, then the one copy: writeable, C-ordered float64, or float32 kept by ``keep_float32``."""
    a = _numeric_array(name, value, shape)
    return a.astype("=f4" if keep_float32 and a.dtype.kind == "f" and a.dtype.itemsize == 4 else float, order="C")


def _all_finite(a) -> bool:
    """Whether every entry of the float array ``a`` is finite, judged without a full-size mask when its sum is finite.

    A NaN or +-inf entry makes the sum non-finite; only then, or when
    finite entries overflow the sum, does ``np.isfinite`` judge each entry.
    """
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):
        total = a.sum()
    return math.isfinite(total) or bool(np.isfinite(a).all())


def check_array(name: str, value, shape: tuple | None, keep_float32: bool = False):
    """A read-only, C-ordered float64 copy of ``value``, or a one-line error that names ``name``.

    ``shape`` holds an int per axis, or a letter such as ``"N"`` for any
    length >= 1; None takes the shape of ``value`` itself.  Raises
    ValueError unless the dtype is an integer or a float of at most 8
    bytes (bool, string, object, complex and longdouble are refused),
    ShapeError on a wrong rank or axis length, and ValueError on a
    non-finite entry.  Integers and floats become float64 as
    ``np.array(value, dtype=float)`` makes them, so the bits are the ones
    that call gives, whatever the memory layout of ``value``.  With
    ``keep_float32``, a float32 ``value`` (of either byte order) is copied
    as native float32 instead, with its own bits; every other dtype still
    becomes float64, and the refusals are the same.
    """
    a = _float_array(name, value, shape, keep_float32)
    if not _all_finite(a):
        raise ValueError(f"{name} contains non-finite entries")
    a.flags.writeable = False
    return a


def finite_list(n: int):
    text = f"a list of {n} finite numbers"
    return (lambda v: type(v) is list and len(v) == n and all(map(FINITE[0], v))), text


def load_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, too many digits, too deep
        raise ParseError(f"invalid JSON: {getattr(exc, 'msg', exc)}", getattr(exc, "lineno", None)) from None


def check_fields(section, table: dict, where: str, required: tuple[str, ...] = ()) -> dict:
    """Check a JSON object against a field table and return it.

    A table maps each allowed key to a field check or to the table of a nested
    object; the keys in ``required`` must be present.  A failure raises ParseError.
    """
    if type(section) is not dict:
        raise ParseError(f"{where} must be a JSON object")
    unknown = sorted(set(section) - set(table))
    if unknown:
        raise ParseError(f"unknown {where} keys: {', '.join(map(json.dumps, unknown))}")
    for key, value in section.items():
        entry = table[key]
        if type(entry) is dict:
            check_fields(value, entry, key)
        elif not entry[0](value):
            raise ParseError(f"{where}.{key} must be {entry[1]}, got {json.dumps(value)}")
    for key in required:
        if key not in section:
            raise ParseError(f"{where}.{key} is required")
    return section

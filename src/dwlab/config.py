"""Run configuration: flat sectioned text format, validation and hashing."""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, asdict
from json.encoder import encode_basestring_ascii as _quote
from math import isfinite as _finite

__all__ = ["RunConfig", "canonical_json", "config_hash"]

# How json writes a float, subclasses included.
_repr = float.__repr__


@dataclass
class RunConfig:
    # [grid]
    shifts: int = 2
    # [epsilons]
    eps1: float = -1.0  # negative means: eps2 / 2
    eps2: float = 0.1
    eps3: float = -1.0  # negative means: eps2**2 / 8
    lam: float = 16.0
    # [tolerances]
    loewner_tol: float = 1e-9
    doubling_cap: float = 100.0

    def validate(self):
        if self.shifts < 0:
            raise ValueError("shifts must not be negative")
        for name in ("eps1", "eps2", "eps3", "lam", "loewner_tol", "doubling_cap"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        if not 0.0 < self.eps2 < 1.0:
            raise ValueError("eps2 must lie in (0, 1)")
        if not 1.0 < self.lam < math.inf:
            raise ValueError("lambda must be a finite number above 1")
        if self.eps3 > 0.0 and self.eps3 >= self.eps2**2 / 4.0:
            raise ValueError(
                "eps3 must stay below eps2^2/4 so the projected mean keeps half its size"
            )
        if self.eps1 > 0.5:
            raise ValueError("eps1 must not exceed 1/2")
        if not 0.0 <= self.loewner_tol < 1.0:
            raise ValueError("loewner_tol must lie in [0, 1)")
        if self.doubling_cap < 1.0:
            raise ValueError("doubling_cap must be at least 1, the least doubling constant")
        return self

    def to_text(self):
        cp = configparser.ConfigParser()
        cp.optionxform = str
        cp["grid"] = {"shifts": str(self.shifts)}
        cp["epsilons"] = {
            "eps1": repr(self.eps1),
            "eps2": repr(self.eps2),
            "eps3": repr(self.eps3),
            "lambda": repr(self.lam),
        }
        cp["tolerances"] = {
            "loewner_tol": repr(self.loewner_tol),
            "doubling_cap": repr(self.doubling_cap),
        }
        buf = io.StringIO()
        cp.write(buf)
        return buf.getvalue()

    @classmethod
    def from_text(cls, text):
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        cp.optionxform = str
        cp.read_string(text)
        cfg = cls(
            shifts=cp.getint("grid", "shifts", fallback=2),
            eps1=cp.getfloat("epsilons", "eps1", fallback=-1.0),
            eps2=cp.getfloat("epsilons", "eps2", fallback=0.1),
            eps3=cp.getfloat("epsilons", "eps3", fallback=-1.0),
            lam=cp.getfloat("epsilons", "lambda", fallback=16.0),
            loewner_tol=cp.getfloat("tolerances", "loewner_tol", fallback=1e-9),
            doubling_cap=cp.getfloat("tolerances", "doubling_cap", fallback=100.0),
        )
        return cfg

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            return cls.from_text(fh.read())

    def hash(self):
        return config_hash(self.to_text())

    def as_dict(self):
        return asdict(self)


def config_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def canonical_json(obj):
    """Deterministic JSON: sorted keys, repr floats, trailing newline.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    allow_nan=False) + "\\n"``, written in one recursive pass, since
    ``json.dumps`` runs its pure-Python encoder whenever it indents.  It takes
    what reports hold, as ``json`` takes them: dicts with str keys, lists and
    tuples, str, int, float, bool and None, subclasses included.  A
    non-finite float raises ValueError naming the first such value's path
    and the count; any other type, or a key that is not a str, raises
    TypeError.
    """
    out = []
    _write(obj, "\n", out.append, obj)
    out.append("\n")
    return "".join(out)


def _write(obj, newline, emit, root):
    """Append the JSON of ``obj``, whose line is indented as ``newline``."""
    if isinstance(obj, float):
        if not _finite(obj):
            raise _not_finite(root)
        emit(_repr(obj))
    elif isinstance(obj, str):
        emit(_quote(obj))
    elif isinstance(obj, dict):
        if not obj:
            emit("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            value = obj[key]
            # Finite floats, most of a report's values, are written in place.
            if type(value) is float and _finite(value):
                emit(sep + _quote(key) + ": " + _repr(value))
            else:
                emit(sep + _quote(key) + ": ")
                _write(value, inner, emit, root)
            sep = "," + inner
        emit(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            emit("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for value in obj:
            if type(value) is float and _finite(value):
                emit(sep + _repr(value))
            else:
                emit(sep)
                _write(value, inner, emit, root)
            sep = "," + inner
        emit(newline + "]")
    elif obj is None:
        emit("null")
    elif obj is True:
        emit("true")
    elif obj is False:
        emit("false")
    elif isinstance(obj, int):
        emit(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _not_finite(root):
    """The refusal of a report with non-finite floats: the first one's path
    in written order, and how many there are."""
    found = list(_non_finite_paths(root, ()))
    path, value = found[0]
    where = ".".join(path) or "the report"
    return ValueError(
        f"report value {where} is {_repr(value)}, the first of {len(found)} non-finite"
        " values, which JSON cannot hold"
    )


def _non_finite_paths(obj, path):
    if isinstance(obj, float):
        if not _finite(obj):
            yield path, obj
    elif isinstance(obj, dict):
        for key in sorted(obj):
            yield from _non_finite_paths(obj[key], path + (key,))
    elif isinstance(obj, (list, tuple)):
        for i, value in enumerate(obj):
            yield from _non_finite_paths(value, path + (str(i),))

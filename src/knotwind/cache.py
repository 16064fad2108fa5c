"""Persistent V-sequence cache: a JSON file keyed by canonical expression strings.

The file holds {"tool_version": ..., "entries": {expr: [V_0, V_1, ...]}}.
Corrupt files, and files with an entry the engine would refuse to compute,
are ignored with a warning and files from another tool version silently
(the next store rewrites them), never fatally.  On load every entry is
sized by the generator count `complex_of` budgets, and the spot check
recomputes at most one entry, the smallest, outside any memo of the
caller.  Writes go through a temporary file and an atomic rename, so
concurrent writers cannot corrupt the file (last writer wins).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

from . import __version__
from .complexes import _check_size, _generator_count, _servable, v_memo, v_sequence
from .errors import ValidationError
from .knots import KnotExpression, parse_knot_expr
from .semigroup import v_sequence_torus

CACHE_ENV = "KNOTWIND_CACHE"

# The spot check recomputes no entry of more generators: at most 300 took 2-10 ms on
# every shape tried, 729 (six trefoils) 19-25 ms and 2,187 (seven) 80-130 ms (2-vCPU VM).
_SPOT_CHECK_GENERATOR_LIMIT = 500


def _warn(message: str) -> None:
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _spot_check(entries: dict[str, list[int]], sized: dict[str, tuple[KnotExpression, int]]) -> bool:
    """Compare the entries with what they claim, given each key's expression and generator
    count; False means the cache cannot be trusted.

    Every positive torus knot entry is compared with its semigroup count,
    which needs no complex.  Of the other entries that `v_sequence` would serve
    (those with its shape; the rest are recomputed anyway), the unknot aside,
    the one of fewest generators is recomputed if it has at most
    `_SPOT_CHECK_GENERATOR_LIMIT`, inside a fresh `v_memo`, so that no memo of the
    caller answers for it.  With none, nothing is recomputed.
    """
    others = {}
    for key, (expr, size) in sized.items():
        knot = expr.single_positive_torus_knot()
        if knot is not None:
            if list(v_sequence_torus(knot).values) != entries[key]:
                return False
        elif expr.summands and size <= _SPOT_CHECK_GENERATOR_LIMIT and (
            _servable(expr, entries[key]) is not None
        ):
            others[key] = size
    if not others:
        return True
    key = min(others, key=others.__getitem__)
    with v_memo({}):
        return list(v_sequence(sized[key][0]).values) == entries[key]


def cache_load(path: str | os.PathLike) -> dict[str, list[int]]:
    """Load cache entries; anything suspicious yields an empty dict.

    A key is malformed, like values that are not non-negative integers, when
    it does not parse or names a V-sequence the engine refuses to compute: a
    semigroup conductor above its limit, or, for anything but a single
    positive torus knot, a complex above `_GENERATOR_LIMIT` generators.  Each
    key is sized once, here, by the count `complex_of` applies.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        _warn(f"ignoring unreadable cache file {path}: {exc}")
        return {}
    if not isinstance(raw, dict):
        _warn(f"ignoring cache file {path}: not a JSON object")
        return {}
    if raw.get("tool_version") != __version__:
        return {}  # stale version: recompute, the next store overwrites
    entries = raw.get("entries")
    if not isinstance(entries, dict):
        _warn(f"ignoring cache file {path}: missing entries object")
        return {}
    out: dict[str, list[int]] = {}
    sized: dict[str, tuple[KnotExpression, int]] = {}
    for key, values in entries.items():
        try:
            expr = parse_knot_expr(key)
            size = _generator_count(expr)
            if expr.single_positive_torus_knot() is None:  # else its V is a semigroup count, no complex
                _check_size(size)
        except ValidationError:
            values = None  # a key the engine refuses is malformed like bad values
        else:
            sized[key] = (expr, size)
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values
        ):
            _warn(f"ignoring cache file {path}: malformed entry {key!r}")
            return {}
        out[key] = list(values)
    if out and not _spot_check(out, sized):
        _warn(f"ignoring cache file {path}: spot check found a stale V-sequence")
        return {}
    return out


def cache_store(path: str | os.PathLike, entries: dict[str, list[int]]) -> bool:
    """Atomically write the cache; I/O failures warn and return False."""
    payload = {
        "tool_version": __version__,
        "entries": {key: list(entries[key]) for key in sorted(entries)},
    }
    target = Path(path)
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=target.parent, prefix=target.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
    except OSError as exc:
        _warn(f"could not write cache file {path}: {exc}")
        return False
    return True

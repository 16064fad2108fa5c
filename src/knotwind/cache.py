"""Persistent V-sequence cache: a JSON file keyed by canonical expression strings.

The file holds {"tool_version": ..., "entries": {expr: [V_0, V_1, ...]}}.
Corrupt files are ignored with a warning and files from another tool
version silently (the next store rewrites them), never fatally; writes go
through a temporary file and an atomic rename, so concurrent writers
cannot corrupt the file (last writer wins).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

from . import __version__
from .complexes import _servable, v_sequence
from .errors import ValidationError
from .knots import KnotExpression, parse_knot_expr
from .semigroup import v_sequence_torus

CACHE_ENV = "KNOTWIND_CACHE"

# Entries above this genus are too slow to recompute in the load-time spot check.
_SPOT_CHECK_GENUS_LIMIT = 40


def _warn(message: str) -> None:
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _spot_check(entries: dict[str, list[int]], exprs: dict[str, KnotExpression]) -> bool:
    """Compare the entries, keyed like `exprs`, with what they claim; False means the cache
    cannot be trusted.

    Every positive torus knot entry is compared with its semigroup count,
    which needs no complex.  Of the other entries of genus at most
    `_SPOT_CHECK_GENUS_LIMIT` that `v_sequence` would serve (those with its
    shape; the rest are recomputed anyway), the cheapest is recomputed;
    genus-0 entries (the unknot) cannot disagree, so one is picked only when
    nothing else is left.  With none, nothing is recomputed.
    """
    others = {}
    for key, expr in exprs.items():
        knot = expr.single_positive_torus_knot()
        if knot is not None:
            if list(v_sequence_torus(knot).values) != entries[key]:
                return False
        elif expr.genus <= _SPOT_CHECK_GENUS_LIMIT and _servable(expr, entries[key]) is not None:
            others[key] = expr
    if not others:
        return True
    key = min(others, key=lambda k: (others[k].genus == 0, len(others[k].summands), others[k].genus))
    return list(v_sequence(others[key]).values) == entries[key]


def cache_load(path: str | os.PathLike) -> dict[str, list[int]]:
    """Load cache entries; anything suspicious yields an empty dict."""
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
    exprs: dict[str, KnotExpression] = {}
    for key, values in entries.items():
        try:
            exprs[key] = parse_knot_expr(key)
        except ValidationError:
            values = None  # a key that does not parse is malformed like bad values
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values
        ):
            _warn(f"ignoring cache file {path}: malformed entry {key!r}")
            return {}
        out[key] = list(values)
    if out and not _spot_check(out, exprs):
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

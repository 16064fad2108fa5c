"""Persistent V-sequence cache: a JSON file keyed by canonical expression strings.

The file holds {"tool_version": ..., "entries": {expr: [V_0, V_1, ...]}}.
Corrupt files, and files with an entry the engine would refuse to compute,
are ignored with a warning and files from another tool version silently
(the next store rewrites them), never fatally.  On load every single
positive torus knot entry under its canonical expression string is compared
with its semigroup count, and a mismatch discards the file; no other entry
is checked, so a command is served only those (`verified_entries`), and
computes every other V-sequence afresh.  Loading builds no complex.  Writes
go through a temporary file and an atomic rename, so concurrent writers
cannot corrupt the file (last writer wins).
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path
from typing import Mapping

from . import __version__
from .complexes import _check_size, _generator_count
from .errors import ValidationError
from .knots import TorusKnot, parse_knot_expr
from .semigroup import v_sequence_torus

CACHE_ENV = "KNOTWIND_CACHE"


def _warn(message: str) -> None:
    warnings.warn(message, RuntimeWarning, stacklevel=3)


def _spot_check(entries: dict[str, list[int]], knots: dict[str, TorusKnot]) -> bool:
    """Compare each entry of a single positive torus knot, keyed as in `knots`, with its
    semigroup count, which needs no complex; False means the cache cannot be trusted."""
    return all(list(v_sequence_torus(knot).values) == entries[key] for key, knot in knots.items())


def verified_entries(entries: Mapping[str, list[int]]) -> dict[str, list[int]]:
    """The entries `cache_load` verifies, those of single positive torus knots, kept
    under their canonical expression string only: the only ones a command is served
    (`v_sequence` looks its memo up by that string, so no other key could be), and
    the only ones it writes back.

    The keys must parse, as those of `cache_load` and of a `v_memo` do.
    """
    return {
        key: values for key, values in entries.items()
        if (expr := parse_knot_expr(key)).single_positive_torus_knot() is not None and str(expr) == key
    }


def cache_load(path: str | os.PathLike) -> dict[str, list[int]]:
    """Load every well-formed cache entry; anything suspicious yields an empty dict.

    A key is malformed, like values that are not non-negative integers, when
    it does not parse or names a V-sequence the engine refuses to compute: a
    semigroup conductor above its limit, or, for anything but a single
    positive torus knot, a complex above `_GENERATOR_LIMIT` generators, by the
    count `complex_of` applies.  A single positive torus knot entry under its
    canonical expression string that differs from its semigroup count is
    stale.  No other entry is checked, a non-canonical key such as "T(3,2)"
    included: the caller serves only `verified_entries` of the result.
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
    knots: dict[str, TorusKnot] = {}
    for key, values in entries.items():
        try:
            expr = parse_knot_expr(key)
            size = _generator_count(expr)
            knot = expr.single_positive_torus_knot()
            if knot is None:
                _check_size(size)
            elif str(expr) == key:  # its V is a semigroup count, no complex
                knots[key] = knot
        except ValidationError:
            values = None  # a key the engine refuses is malformed like bad values
        if not isinstance(values, list) or not all(
            isinstance(v, int) and not isinstance(v, bool) and v >= 0 for v in values
        ):
            _warn(f"ignoring cache file {path}: malformed entry {key!r}")
            return {}
        out[key] = list(values)
    if not _spot_check(out, knots):
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

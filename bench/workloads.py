"""Seeded inputs of the three workloads, and the checks on their outputs.

An operation is one library call (vseq-mixed, positive-surgery) or one
`knotwind.cli.run(argv)` (cli-cached).  Inputs depend only on the seed; the
package sees nothing but the generated expressions and argv lists.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from pathlib import Path

import oracles as O

WORKLOADS = ("vseq-mixed", "positive-surgery", "cli-cached")

# Positive torus knots up to genus 40, the largest the workloads use, by genus.
CATALOGUE = tuple(sorted(
    ((p, q) for p in range(2, 42) for q in range(p + 1, 82)
     if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 80),
    key=lambda k: (O.genus(k), k),
))


@dataclass
class Op:
    """One operation: what to call, and what the checks need to know."""

    kind: str  # "vseq", "ctab", "kn" or "cli"
    text: str  # expression or command line, for reports
    shape: str = ""  # "kk", "mirror", "mixed", "sum", "torus"; "" for kn and cli
    pos: tuple = ()  # positive summands (p, q)
    neg: tuple = ()  # mirrored summands (p, q)
    n: int = 0
    argv: tuple = ()
    key: str | None = None  # cli: canonical expression the command reads
    fmt: str = ""  # cli: output format
    uncached: tuple = ()  # cli: the same command line with --no-cache
    arg: object = field(default=None, repr=False)  # parsed expression, set at set-up


def knot_text(pos, neg) -> str:
    parts = [f"T({p},{q})" for p, q in pos] + [f"-T({p},{q})" for p, q in neg]
    return " # ".join(parts) if parts else "U"


def _size(knots) -> int:
    """Generator count of the tensor product of the summands' staircases."""
    out = 1
    for knot in knots:
        out *= O.staircase_size(knot)
    return out


@lru_cache(maxsize=None)
def _knots(max_genus: int) -> tuple[tuple[int, int], ...]:
    return tuple(k for k in CATALOGUE if O.genus(k) <= max_genus)


def _cost(knots) -> float:
    """Predicted relative cost of one V-sequence, generators^0.9 * (genus+1)^1.9:
    a regression on measured times, within about 30% for one input."""
    return _size(knots) ** 0.9 * (sum(map(O.genus, knots)) + 1) ** 1.9


def _strata(candidates, count: int) -> list[list]:
    """Group candidates into at most `count` bins of equal width in log predicted cost.

    Narrow bins make the costliest operations, which set the tail latency,
    nearly the same in every window and every seed.
    """
    costs = {c: math.log(_cost(c[0] + c[1])) for c in candidates}
    low, high = min(costs.values()), max(costs.values())
    bins: list[list] = [[] for _ in range(count)]
    for c in sorted(candidates):
        bins[min(count - 1, int((costs[c] - low) / (high - low) * count))].append(c)
    return [b for b in bins if b]


def _multisets(knots, r):
    return itertools.combinations_with_replacement(knots, r)


@lru_cache(maxsize=None)
def vseq_slots() -> tuple[tuple[str, list], ...]:
    """(shape, candidates) for each operation of a vseq-mixed window.

    Every window takes one input from each slot, so every window, and every
    seed, has the same mix of shapes and predicted costs; the seed chooses the
    inputs within each slot.  The caps keep one call under ~0.3 s.
    """
    k6, k3, k4 = _knots(6), _knots(3), _knots(4)
    kk = [((k,), (k,)) for k in k6 if _size((k, k)) <= 121]
    pairs = [((a,), (b,)) for a in k6 for b in k6 if a != b and _size((a, b)) <= 121]
    triples = [
        (tuple(pos), tuple(neg))
        for n_pos in (1, 2)
        for pos in _multisets(k3, n_pos)
        for neg in _multisets(k3, 3 - n_pos)
        if _size(pos + neg) <= 100
    ]
    mirrors = [((), tuple(neg)) for r in (2, 3) for neg in _multisets(k4, r) if _size(neg) <= 100]
    singles = [
        ((), (k,)) for k in CATALOGUE
        if O.genus(k) >= 10 and O.staircase_size(k) * O.genus(k) ** 2 <= 25_000
    ]
    slots = []
    for shape, candidates, count in (
        ("kk", kk, 4),  # K # -K: slice, V = 0
        ("mixed", pairs, 8),  # A # -B
        ("mixed", triples, 6),  # three summands, both orientations
        ("mirror", mirrors, 5),  # all-mirror sums of two or three
        ("mirror", singles, 5),  # one mirror, genus 10 to 36
    ):
        slots += [(shape, group) for group in _strata(candidates, count)]
    return tuple(slots)


@lru_cache(maxsize=None)
def positive_slots() -> tuple[list, ...]:
    """Sums of 2-3 positive torus knots of genus <= 8, one cost group per round of a window."""
    k8 = _knots(8)
    sums = [(tuple(pos), ()) for r in (2, 3) for pos in _multisets(k8, r) if _size(pos) <= 120]
    return tuple(_strata(sums, 10))


def _vseq_window(rng: random.Random) -> list[Op]:
    ops = []
    for shape, group in vseq_slots():
        pos, neg = rng.choice(group)
        ops.append(Op("vseq", knot_text(pos, neg), shape, pos, neg))
    rng.shuffle(ops)
    return ops


_MID_TORUS = tuple(k for k in CATALOGUE if 7 <= O.genus(k) <= 12)
_LARGE_TORUS = tuple(k for k in CATALOGUE if O.genus(k) > 12)


def _positive_window(rng: random.Random) -> list[Op]:
    """Rounds of: v_sequence and correction_table on a positive sum, v_sequence on
    a torus knot, reproduce_kn(n) for n cycling over 1..5."""
    ops = []
    groups = list(positive_slots())
    rng.shuffle(groups)
    for r, group in enumerate(groups):
        pos, _ = rng.choice(group)
        text = knot_text(pos, ())
        genus = sum(map(O.genus, pos))
        # single torus knots alternate across the genus-12 limit of the route cross-check
        single = rng.choice(_MID_TORUS if r % 2 == 0 else _LARGE_TORUS)
        ops += [
            Op("vseq", text, "sum", pos),
            Op("ctab", text, "sum", pos, n=rng.randint(1, 2 * genus + 1)),
            Op("vseq", knot_text((single,), ()), "torus", (single,)),
            Op("kn", f"reproduce_kn({r % 5 + 1})", n=r % 5 + 1),
        ]
    return ops


# cli-cached draws from a fixed universe of command lines, so that golden
# outputs can cover every command any seed produces.
CLI_EXPR_GROUPS = (  # a session takes one expression from each group
    ("T(2,3)", "T(2,5)", "T(3,4)", "T(2,7)", "T(3,5)", "T(4,5)"),
    ("-T(2,3)", "-T(3,4)", "-T(2,5) # -T(2,3)"),
    ("T(2,3) # T(2,5)", "T(2,3) # -T(2,3)", "T(2,5) # -T(2,3)"),
    ("T(3,4) # -T(2,5)", "T(2,7) # -T(3,4)", "T(2,5) # -T(2,7)", "T(3,5) # -T(2,5)"),
)
CLI_EXPRS = tuple(e for group in CLI_EXPR_GROUPS for e in group)
CLI_N_ALL = (1, 2, 3, 5, 7)
CLI_N_ONE = (2, 3, 5, 7)
CLI_FORMATS = ("table", "json", "csv")
DTABLE_DIR = ".bench_tmp/dtables"
DTABLES = {  # fixed d-tables for `bound essential`, written at set-up
    "w2-a.json": (2, ("1/2", "0", "-1/2", "0")),
    "w2-b.json": (2, ("0", "1/4", "3/2", "-1")),
    "w4-a.json": (4, tuple(f"{(k * 7) % 5 - 2}/{k % 3 + 1}" for k in range(16))),
    "w4-b.json": (4, tuple(f"{(k * k) % 11 - 5}/4" for k in range(16))),
}
CLI_OTHER_GROUPS = (  # a session takes one command from each group
    [("examples", "kn", "--n", str(n)) for n in (1, 2, 3)] + [("examples", "whitehead")],
    [("seifert", "kn", "--n", str(n)) for n in (1, 2, 3, 4)],
    [("ncf", "eval", c) for c in ("4,2", "2,2,2", "3,5,2", "7", "2,3")]
    + [("ncf", "expand", v) for v in ("7/2", "5/3", "13/5", "4", "9/7")],
    [
        ("bound", "essential", "--w", str(w), "--dtable", f"{DTABLE_DIR}/{name}")
        for name, (w, _) in DTABLES.items()
    ],
)
CLI_OTHER = [words for group in CLI_OTHER_GROUPS for words in group]


def _expr_commands(rng: random.Random) -> list[tuple[str, ...]]:
    """The 12 expression commands of a session; the expression follows after `--`."""
    out = [("vseq",)] * 3 + [("bound", "winding")] * 2 + [("bound", "shake")] * 2
    out += [("dinv", "--n", str(rng.choice(CLI_N_ALL)), "--all") for _ in range(3)]
    for _ in range(2):
        n = rng.choice(CLI_N_ONE)
        out.append(("dinv", "--n", str(n), "--i", str(rng.randrange(n))))
    return out


def cli_universe() -> list[tuple[tuple[str, ...], str | None]]:
    """Every (words, expression) pair cli-cached can issue."""
    words = [("vseq",)]
    words += [("dinv", "--n", str(n), "--all") for n in CLI_N_ALL]
    words += [("dinv", "--n", str(n), "--i", str(i)) for n in CLI_N_ONE for i in range(n)]
    words += [("bound", "winding"), ("bound", "shake")]
    return [(w, e) for e in CLI_EXPRS for w in words] + [(w, None) for w in CLI_OTHER]


def cli_argv(words, expr, fmt: str, cache: str | None) -> tuple[str, ...]:
    """A command line; the expression goes last, after `--`, as it may start with '-'."""
    flags = ("--cache", cache) if cache else ("--no-cache",)
    return tuple(words) + ("--format", fmt) + flags + (("--", expr) if expr else ())


def golden_key(words, expr, fmt: str) -> str:
    return " ".join(tuple(words) + ("--format", fmt) + ((expr,) if expr else ()))


SESSION_LENGTH = 16  # 12 expression commands and one from each CLI_OTHER group
SESSIONS_PER_WINDOW = 4


def _cli_session(rng: random.Random, cache_path: str, canonical: dict[str, str]) -> list[Op]:
    """One cache lifetime, starting with no cache file: 16 commands.

    Twelve expression commands (3 vseq, 3 dinv --all, 2 dinv --i, 2 bound
    winding, 2 bound shake) spread three apiece over one expression from each
    group, and one command from each group of CLI_OTHER; formats balanced,
    order shuffled.
    """
    exprs = [rng.choice(group) for group in CLI_EXPR_GROUPS] * 3
    rng.shuffle(exprs)
    commands = list(zip(_expr_commands(rng), exprs))
    commands += [(rng.choice(group), None) for group in CLI_OTHER_GROUPS]
    formats = list(CLI_FORMATS * 6)[:len(commands)]
    rng.shuffle(formats)
    rng.shuffle(commands)
    ops = []
    for (words, expr), fmt in zip(commands, formats):
        ops.append(Op(
            "cli", golden_key(words, expr, fmt), argv=cli_argv(words, expr, fmt, cache_path),
            key=canonical[expr] if expr else None, fmt=fmt,
            uncached=cli_argv(words, expr, fmt, None),
        ))
    return ops


# A window is a run of operations with the same mix of shapes and predicted
# costs in every window and every seed; run.py reports medians over windows.
WINDOW = {
    "vseq-mixed": len(vseq_slots()),
    "positive-surgery": 4 * len(positive_slots()),
    "cli-cached": SESSION_LENGTH * SESSIONS_PER_WINDOW,
}
# Windows generated: several times what a run completes today, so a faster
# program still sees fresh inputs; the plan repeats after that.
PLAN_WINDOWS = 100


def generate(workload: str, seed: int, tmp: Path, knotwind) -> list[Op]:
    """The workload's operations for this seed; writes the files they read."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "vseq-mixed":
        ops = [op for _ in range(PLAN_WINDOWS) for op in _vseq_window(rng)]
    elif workload == "positive-surgery":
        ops = [op for _ in range(PLAN_WINDOWS) for op in _positive_window(rng)]
    elif workload == "cli-cached":
        write_dtables(Path(DTABLE_DIR))
        canonical = {e: str(knotwind.parse_knot_expr(e)) for e in CLI_EXPRS}
        ops = [
            op
            for s in range(PLAN_WINDOWS * SESSIONS_PER_WINDOW)
            for op in _cli_session(rng, str(tmp / f"cache-{s}.json"), canonical)
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {', '.join(WORKLOADS)}")
    for op in ops:
        if op.kind in ("vseq", "ctab"):
            op.arg = knotwind.parse_knot_expr(op.text)
    return ops


def write_dtables(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, (w, values) in DTABLES.items():
        doc = {"w": w, "d": {str(k): v for k, v in enumerate(values)}}
        (directory / name).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def execute(knotwind, cli, op: Op):
    """Run one operation through the package; attributes are looked up per call."""
    if op.kind == "vseq":
        return tuple(knotwind.v_sequence(op.arg).values)
    if op.kind == "ctab":
        table = knotwind.correction_table(op.arg, op.n)
        return tuple(table[i] for i in range(op.n))
    if op.kind == "kn":
        report = knotwind.reproduce_kn(op.n)
        return report.value, report.induced_minimum
    return cli.run(list(op.argv))


# ---------------------------------------------------------------- checks


def check_library(op: Op, result, knotwind) -> bool:
    """Compare a library result with the oracle for its shape."""
    if op.kind == "kn":
        return result == (2 * op.n + 2, 4 * op.n + 2)
    if op.kind == "ctab":
        seq = O.positive_sum_vseq(list(op.pos))
        return result == tuple(O.ni_wu(seq, op.n, i) for i in range(op.n))
    genus = sum(map(O.genus, op.pos + op.neg))
    if len(result) != genus + 1:
        return False
    if op.shape in ("kk", "mirror"):
        return not any(result)
    if op.shape == "mixed":
        return all(
            lo <= v <= hi
            for s, v in enumerate(result)
            for lo, hi in [O.mixed_bracket(list(op.pos), list(op.neg), s)]
        )
    if op.shape == "sum":
        return O.trimmed(result) == O.positive_sum_vseq(list(op.pos))
    # a single positive torus knot
    (knot,) = op.pos
    table = knotwind.NumericalSemigroup(*knot)
    closed = O.family_v0(knot)
    return (
        result == O.torus_vseq(knot)
        and result == tuple(table.count_below(genus - i) for i in range(genus + 1))
        and (closed is None or result[0] == closed)
    )


def cli_digest(fmt: str, out: str) -> str:
    """Digest of the documented, stable part of a json or csv document."""
    if fmt == "json":
        doc = json.loads(out)
        keep = ("command", "inputs", "value", "induced_minimum", "sharp", "trail")
        canon = json.dumps({k: doc[k] for k in keep if k in doc}, sort_keys=True)
    else:
        rows = list(csv.reader(io.StringIO(out)))
        canon = json.dumps([rows[0]] + [r for r in rows[1:] if r[0] in ("input", "result", "trail")])
    return hashlib.sha256(canon.encode()).hexdigest()[:20]


def essential_oracle(argv: tuple[str, ...]) -> str:
    w = int(argv[argv.index("--w") + 1])
    values = DTABLES[Path(argv[argv.index("--dtable") + 1]).name][1]
    value = O.essential_value(w, {k: Fraction(v) for k, v in enumerate(values)})
    return str(value.numerator) if value.denominator == 1 else f"{value.numerator}/{value.denominator}"


def check_cli(op: Op, result, golden: dict[str, str]) -> bool:
    """json/csv: the golden digest (recorded uncached).  Table: checked after the run."""
    status, out, _ = result
    if status != 0:
        return False
    if op.argv[:2] == ("bound", "essential") and op.fmt == "json":
        if json.loads(out)["value"] != essential_oracle(op.argv):
            return False
    if op.fmt == "table":
        return True
    return golden.get(op.text) == cli_digest(op.fmt, out)

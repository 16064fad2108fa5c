"""Spans around the package's public functions, installed only for a traced run.

`Tracer.install` replaces every public function of the package's modules
(and `BitSpace.add`, `BitSpace.contains`, `TruncatedComplex.graded_basis`)
with a wrapper that records a span: name, start, end and the span that was
open when it started.  The replacement covers every module that imported the
function by name, such as `knotwind.complexes.kernel_basis`.  A span's self
time is its duration minus the durations of its direct children.
`Tracer.restore` puts the original functions back.

Spans live in compact arrays and are written out by `Tracer.dump`.  Past
`SPAN_CAP` spans only the aggregates are kept; the file says how many were
dropped.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
import time
from array import array
from pathlib import Path

MODULES = ("knots", "semigroup", "complexes", "gf2", "surgery", "bounds", "cache", "cli")
METHODS = (("gf2", "BitSpace", "add"), ("gf2", "BitSpace", "contains"),
           ("complexes", "TruncatedComplex", "graded_basis"))
SPAN_CAP = 500_000


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        self.span_id = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.next_id = [0]
        self.stack: list[list] = []  # open spans: [id, name id, child time]
        self.counters = {
            "kernel_rows": 0, "add_useful": 0, "trunc_dim": 0, "generators": 0, "arrows": 0,
            "store_bytes": 0, "spot_check_s": 0.0, "cache_reads": 0, "cache_hits": 0,
        }
        self.phase_s = [0.0, 0.0]  # graded-basis plus gf2 time at order N, at N+1
        self.phase = [0]
        self.last_trunc: tuple = ()
        self.current_key: str | None = None
        self.restore_list: list[tuple[object, str, object]] = []
        self.lru_start = None
        self.semigroup_lru = None

    # ------------------------------------------------------------ install

    def install(self, package) -> None:
        loaded = {name: sys.modules.get(f"{package.__name__}.{name}") for name in MODULES}
        mods = {name: mod for name, mod in loaded.items() if mod is not None}
        holders = [package] + [m for n, m in sys.modules.items() if n.startswith(package.__name__ + ".")]
        self.semigroup_lru = mods["semigroup"].semigroup_from_pair
        self.lru_start = self.semigroup_lru.cache_info()
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is fn:
                            self.restore_list.append((holder, name, fn))
                            setattr(holder, name, wrapper)
        for short, cls_name, attr in METHODS:
            cls = getattr(mods[short], cls_name)
            fn = cls.__dict__[attr]
            self.restore_list.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(f"{short}.{cls_name}.{attr}", fn))

    def restore(self) -> None:
        for holder, name, fn in reversed(self.restore_list):
            setattr(holder, name, fn)
        self.restore_list.clear()

    def _hook(self, name: str):
        """Counter updates for the functions whose arguments or results matter."""
        c = self.counters
        phase_s, phase = self.phase_s, self.phase
        if name == "gf2.kernel_basis":
            def hook(args, result, dur, parent):
                c["kernel_rows"] += len(args[0])
                phase_s[phase[0]] += dur
        elif name == "gf2.BitSpace.add":
            def hook(args, result, dur, parent):
                c["add_useful"] += result
                phase_s[phase[0]] += dur
        elif name == "gf2.BitSpace.contains":
            def hook(args, result, dur, parent):
                phase_s[phase[0]] += dur
        elif name == "complexes.TruncatedComplex.graded_basis":
            def hook(args, result, dur, parent):
                trunc = args[0]
                c["trunc_dim"] += trunc.dimension
                key = (id(trunc.base), trunc.floors)
                # _stable_tower_top asks for order N, then N+1 on the same complex and floors
                phase[0] = int(self.last_trunc == (key, trunc.order - 1))
                self.last_trunc = (key, trunc.order)
                phase_s[phase[0]] += dur
        elif name == "complexes.complex_of":
            def hook(args, result, dur, parent):
                c["generators"] += result.n_generators
                c["arrows"] += len(result.differential)
        elif name == "cache.cache_store":
            def hook(args, result, dur, parent):
                if result:
                    c["store_bytes"] += os.path.getsize(args[0])
        elif name == "cache.cache_load":
            def hook(args, result, dur, parent):
                if self.current_key is not None:
                    c["cache_reads"] += 1
                    c["cache_hits"] += self.current_key in result
        elif name == "complexes.v_sequence":
            load_id = self._name_id("cache.cache_load")
            def hook(args, result, dur, parent):
                if parent is not None and parent[1] == load_id:
                    c["spot_check_s"] += dur
        else:
            hook = None
        return hook

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.incl_s.append(0.0)
        return self.names.index(name)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        hook = self._hook(name)
        perf = time.perf_counter
        stack, next_id = self.stack, self.next_id
        calls, self_s, incl_s = self.calls, self.self_s, self.incl_s
        s_id, s_name, s_start, s_end, s_parent = (
            self.span_id, self.span_name, self.span_start, self.span_end, self.span_parent)

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [next_id[0], nid, 0.0]
            next_id[0] += 1
            stack.append(span)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                calls[nid] += 1
                self_s[nid] += dur - span[2]
                incl_s[nid] += dur
                if parent is not None:
                    parent[2] += dur
                if span[0] < SPAN_CAP:
                    s_id.append(span[0])
                    s_name.append(nid)
                    s_start.append(start)
                    s_end.append(end)
                    s_parent.append(-1 if parent is None else parent[0])
            if hook is not None:
                hook(args, result, dur, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ results

    def _get(self, table: list, name: str):
        return table[self.names.index(name)] if name in self.names else 0

    def metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, named as in BENCHMARK.json."""
        calls = lambda n: self._get(self.calls, n)
        busy = lambda n: self._get(self.self_s, n)
        c = self.counters
        info = self.semigroup_lru.cache_info()
        hits = info.hits - self.lru_start.hits
        misses = info.misses - self.lru_start.misses
        adds = calls("gf2.BitSpace.add")
        phases = sum(self.phase_s)
        bounds_busy = sum(s for n, s in zip(self.names, self.self_s) if n.startswith("bounds."))
        return {
            "gf2.kernel_basis.calls": calls("gf2.kernel_basis"),
            "gf2.kernel_basis.rows": c["kernel_rows"],
            "gf2.kernel_basis.busy_s": busy("gf2.kernel_basis"),
            "gf2.add.calls": adds,
            "gf2.add.useful_ratio": c["add_useful"] / adds if adds else 0.0,
            "gf2.add.busy_s": busy("gf2.BitSpace.add"),
            "gf2.contains.calls": calls("gf2.BitSpace.contains"),
            "gf2.contains.busy_s": busy("gf2.BitSpace.contains"),
            "complexes.v_invariant.calls": calls("complexes.v_invariant"),
            "complexes.v_invariant.busy_s": busy("complexes.v_invariant"),
            "complexes.graded_basis.calls": calls("complexes.TruncatedComplex.graded_basis"),
            "complexes.graded_basis.busy_s": busy("complexes.TruncatedComplex.graded_basis"),
            "complexes.trunc_dim": c["trunc_dim"],
            "complexes.recompute_share": self.phase_s[1] / phases if phases else 0.0,
            "complexes.dualize.busy_s": busy("complexes.dualize"),
            "complexes.tensor.busy_s": busy("complexes.tensor"),
            "complexes.staircase.busy_s": busy("complexes.staircase"),
            "complexes.generators": c["generators"],
            "complexes.arrows": c["arrows"],
            "complexes.v_sequence.calls": calls("complexes.v_sequence"),
            "complexes.v_at.calls_per_op": calls("complexes.v_at") / ops,
            "bounds.busy_s": bounds_busy,
            "semigroup.table.builds": misses,
            "semigroup.table.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "semigroup.vseq_torus.busy_s": busy("semigroup.v_sequence_torus"),
            "surgery.d_positive.calls": calls("surgery.d_positive_surgery"),
            "surgery.correction_table.busy_s": busy("surgery.correction_table"),
            "surgery.d_zero_twisted.calls": calls("surgery.d_zero_twisted"),
            "cache.load.busy_s": busy("cache.cache_load"),
            "cache.spot_check_s": c["spot_check_s"],
            "cache.store.busy_s": busy("cache.cache_store"),
            "cache.store.bytes": c["store_bytes"],
            "cache.hit_ratio": c["cache_hits"] / c["cache_reads"] if c["cache_reads"] else 0.0,
            "cli.build_parser.busy_s": busy("cli.build_parser"),
            "cli.render.busy_s": busy("cli.render_document"),
            "cli.run.busy_s": busy("cli.run"),
            "knots.parse.calls": calls("knots.parse_knot_expr"),
            "knots.parse.busy_s": busy("knots.parse_knot_expr"),
        }

    def dump(self, path: Path) -> None:
        """Write the spans (binary arrays) and an index of names and totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path.with_suffix(".spans"), "wb") as handle:
            for arr in (self.span_id, self.span_name, self.span_start, self.span_end, self.span_parent):
                arr.tofile(handle)
        index = {
            "spans": len(self.span_id),
            "dropped": self.next_id[0] - len(self.span_id),
            "layout": "int64 id[], uint16 name[], float64 start[], float64 end[], int64 parent[]",
            "names": self.names,
            "per_name": {
                n: {"calls": k, "self_s": s, "incl_s": i}
                for n, k, s, i in zip(self.names, self.calls, self.self_s, self.incl_s)
            },
        }
        path.with_suffix(".json").write_text(json.dumps(index, indent=1) + "\n", encoding="utf-8")

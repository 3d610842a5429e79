"""Out-of-program tracing of cyclicnum's layers.

``Tracer.install`` replaces every public function of the traced modules,
and ``cyclicnum.cli.main``, by a timing wrapper, in every cyclicnum
module namespace that holds it: ``cyclicnum.cli.factorize`` and
``cyclicnum.numtheory.factorize`` are both patched, because each caller
looks the name up in its own module.  ``uninstall`` puts the original
objects back.  No file of the program changes.

Every wrapped call is counted and timed, keyed by the request kind (the
CLI subcommand), the wrapped caller and the callee, so self time and
per-request ratios fall out of the counts.  A call that crosses from one
module into another also records a span (name, start, end, parent span,
request id); calls within a module, and every ``perm`` call, are only
aggregated, so hot inner loops do not produce millions of spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("numtheory", "perm", "groups", "witness", "cayley")
AGGREGATE_ONLY = frozenset({"perm"})
LATTICE = frozenset(
    {"groups.all_subgroups", "groups.maximal_subgroups", "groups.normalizer", "groups.count_conjugate_subgroups"}
)
SUBCOMMANDS = ("check", "sieve", "witness", "verify", "analyze", "enumerate")


def _closure_amounts(args, kwargs, group):
    start = {g.images for g in group.generators} | {tuple(range(group.degree))}
    return {"elements": len(group), "new": len(group) - len(start)}


def _sieve_amounts(args, kwargs, hits):
    lo, hi = args
    return {"ints": hi - lo + 1}


def _enumerate_amounts(args, kwargs, classes):
    return {"classes": len(classes)}


def _main_amounts(args, kwargs, rc):
    return {"exit2": int(rc == 2)}


# Extra per-call quantities, read off arguments and results.
AMOUNTS = {
    "groups.closure": _closure_amounts,
    "numtheory.cyclic_numbers": _sieve_amounts,
    "cayley.enumerate_groups": _enumerate_amounts,
    "cli.main": _main_amounts,
}


def _targets() -> dict[int, tuple[object, str]]:
    """id(function) -> (function, "module.name") for everything to wrap."""
    out = {}
    for layer in LAYERS:
        mod = sys.modules[f"cyclicnum.{layer}"]
        for name, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                out[id(obj)] = (obj, f"{layer}.{name}")
    main = sys.modules["cyclicnum.cli"].main
    out[id(main)] = (main, "cli.main")
    return out


class Tracer:
    def __init__(self):
        self.kind: str | None = None  # subcommand of the request in flight
        self.request_id: int | None = None
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, request id)
        # (kind, caller, callee) -> [calls, seconds, self seconds, raised]
        self.stats: dict[tuple, list] = {}
        self.amounts: Counter = Counter()  # (kind, name, key) -> total
        self._stack: list[list] = []  # open frames: [name, module, child seconds, span id]
        self._patches: list[tuple[object, str, object]] = []

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = _targets()
        wrappers = {key: self._wrap(fn, name) for key, (fn, name) in targets.items()}
        for modname, mod in list(sys.modules.items()):
            if modname != "cyclicnum" and not modname.startswith("cyclicnum."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in targets and targets[id(val)][0] is val:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, wrappers[id(val)])

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, original = self._patches.pop()
            setattr(mod, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, name: str):
        module = name.split(".", 1)[0]
        spans_allowed = module not in AGGREGATE_ONLY
        amounts = AMOUNTS.get(name)
        stack = self._stack
        stats = self.stats
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            if spans_allowed and (parent is None or parent[1] != module):
                span = len(self.spans) + 1
                self.spans.append(None)  # reserve the id; filled in below
            else:
                span = None
            frame = [name, module, 0.0, span if span is not None else (parent[3] if parent else None)]
            stack.append(frame)
            raised = 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                raised = 0
            finally:
                t1 = perf()
                stack.pop()
                dt = t1 - t0
                key = (self.kind, parent[0] if parent else None, name)
                st = stats.get(key)
                if st is None:
                    st = stats[key] = [0, 0.0, 0.0, 0]
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[2]
                st[3] += raised
                if parent is not None:
                    parent[2] += dt
                if span is not None:
                    self.spans[span - 1] = (span, name, t0, t1, parent[3] if parent else None, self.request_id)
            if amounts is not None:
                for k, v in amounts(args, kwargs, result).items():
                    self.amounts[(self.kind, name, k)] += v
            return result

        wrapper.benchmark_tracer = True
        return wrapper

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                sid, name, t0, t1, parent, req = span
                fh.write(json.dumps({"id": sid, "name": name, "start": t0, "end": t1, "parent": parent, "request": req}) + "\n")

    def _sum(self, field: int, name: str, kind: str | None = None, caller: str | None = None) -> float:
        return sum(
            st[field]
            for (k, c, n), st in self.stats.items()
            if n == name and (kind is None or k == kind) and (caller is None or c == caller)
        )

    def calls(self, name, **where) -> int:
        return self._sum(0, name, **where)

    def seconds(self, name, **where) -> float:
        return self._sum(1, name, **where)

    def self_seconds(self, name, **where) -> float:
        return self._sum(2, name, **where)

    def amount(self, name: str, key: str, kind: str | None = None) -> float:
        return sum(v for (k, n, a), v in self.amounts.items() if n == name and a == key and (kind is None or k == kind))

    def metrics(self, request_kinds: dict[int, str], overhead_frac: float) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit).  A ratio with no base reads 0."""

        def ratio(a, b):
            return a / b if b else 0.0

        main_ms = defaultdict(list)
        for sid, name, t0, t1, parent, req in self.spans:
            if name == "cli.main":
                main_ms[request_kinds[req]].append((t1 - t0) * 1e3)
        m: dict[str, tuple[float, str]] = {}
        m["cli.requests"] = (self.calls("cli.main"), "count")
        m["cli.errors"] = (self._sum(3, "cli.main") + self.amount("cli.main", "exit2"), "count")
        m["cli.self_s"] = (self.self_seconds("cli.main"), "s")
        for sub in SUBCOMMANDS:
            m[f"cli.{sub}.p50_ms"] = (statistics.median(main_ms[sub]) if main_ms[sub] else 0.0, "ms")

        m["numtheory.cyclic_numbers.s"] = (self.seconds("numtheory.cyclic_numbers"), "s")
        m["numtheory.sieve_us_per_int"] = (
            1e6 * ratio(self.seconds("numtheory.cyclic_numbers"), self.amount("numtheory.cyclic_numbers", "ints")),
            "us",
        )
        for fn in ("factorize", "is_prime"):
            m[f"numtheory.{fn}.calls"] = (self.calls(f"numtheory.{fn}"), "count")
            m[f"numtheory.{fn}.s"] = (self.seconds(f"numtheory.{fn}"), "s")
        m["numtheory.factorize_per_check"] = (
            ratio(self.calls("numtheory.factorize", kind="check"), self.calls("cli.main", kind="check")),
            "count",
        )
        m["numtheory.check_conditions.s"] = (self.seconds("numtheory.check_conditions"), "s")
        m["numtheory.euler_phi.s"] = (self.seconds("numtheory.euler_phi"), "s")

        m["witness.build_witness.s"] = (self.seconds("witness.build_witness"), "s")
        m["witness.verify_certificate.s"] = (self.seconds("witness.verify_certificate"), "s")
        m["witness.verify_certificate.self_s"] = (self.self_seconds("witness.verify_certificate"), "s")

        m["groups.closure.calls"] = (self.calls("groups.closure"), "count")
        m["groups.closure.s"] = (self.seconds("groups.closure"), "s")
        m["groups.closure.elements"] = (self.amount("groups.closure", "elements"), "count")
        m["groups.closure.kept_per_product"] = (
            ratio(self.amount("groups.closure", "new"), self.calls("perm.compose", caller="groups.closure")),
            "ratio",
        )
        m["groups.is_cyclic.s"] = (self.seconds("groups.is_cyclic"), "s")
        m["groups.lattice_s"] = (
            sum(st[1] for (k, c, n), st in self.stats.items() if n in LATTICE and c not in LATTICE),
            "s",
        )
        m["groups.conjugacy_class.calls"] = (self.calls("groups.conjugacy_class"), "count")
        m["groups.conjugacy_class.s"] = (self.seconds("groups.conjugacy_class"), "s")
        m["groups.center.s"] = (self.seconds("groups.center"), "s")

        for fn in ("compose", "perm_order"):
            m[f"perm.{fn}.calls"] = (self.calls(f"perm.{fn}"), "count")
            m[f"perm.{fn}.s"] = (self.seconds(f"perm.{fn}"), "s")
        m["perm.order_calls_per_element"] = (
            ratio(self.calls("perm.perm_order", kind="verify"), self.amount("groups.closure", "elements", kind="verify")),
            "count",
        )
        m["perm.inverse.calls"] = (self.calls("perm.inverse"), "count")

        m["cayley.enumerate_groups.s"] = (self.seconds("cayley.enumerate_groups"), "s")
        m["cayley.search_s"] = (self.self_seconds("cayley.enumerate_groups"), "s")
        m["cayley.canonical_form.calls"] = (self.calls("cayley.canonical_form"), "count")
        m["cayley.canonical_form.s"] = (self.seconds("cayley.canonical_form"), "s")
        m["cayley.validate_table.s"] = (self.seconds("cayley.validate_table"), "s")
        m["cayley.classes_per_table"] = (
            ratio(self.amount("cayley.enumerate_groups", "classes"), self.calls("cayley.canonical_form")),
            "ratio",
        )
        m["trace.overhead_frac"] = (overhead_frac, "ratio")
        return m

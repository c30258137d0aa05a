"""Spans and call counts around the public functions of each diracbound layer.

Loaded only in traced child processes. install() replaces every global
name that refers to a wrapped function, in every diracbound module, so a
function imported by name elsewhere (cli imports best_bound, catalog
imports warp_extremals) and a call through module globals
(best_bound -> theorem31_bound, the recursion in realize) both go
through the wrapper. Spans are kept in memory as parallel lists and
written once by dump(); self time is computed from them afterwards.

The few functions called hundreds of times per sweep row only count
calls; their time stays in the caller's self time.
"""

from __future__ import annotations

import json
import sys
import time

LAYERS = ("profile", "catalog", "bounds", "optimize", "warp", "clifford", "cli")
# cli is one layer: only main is spanned, so parsing, the cmd_* bodies
# and output encoding all land in cli.main self time.
ONLY = {"cli": ("main",)}
COUNT_ONLY = {"profile.traceless", "bounds.minimax_bound_at_t",
              "optimize.golden_min"}


def _targets():
    """(qualified name, module, attribute, original) of every wrapped function."""
    found = []
    for layer in LAYERS:
        mod = sys.modules.get(f"diracbound.{layer}")
        if mod is None:
            continue
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if layer in ONLY and attr not in ONLY[layer]:
                continue
            found.append((f"{layer}.{attr}", obj))
    return found


class Tracer:
    def __init__(self):
        self.names = []
        self.counts = []          # calls of count-only functions
        self.errors = []          # exceptions escaping each wrapper
        self.originals = []
        self.fids, self.parents, self.starts, self.ends = [], [], [], []
        self._stack = [-1]

    def _span(self, fid, fn):
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        stack, errors, clock = self._stack, self.errors, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            idx = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
        return wrapper

    def _count(self, fid, fn):
        counts, errors = self.counts, self.errors

        def wrapper(*args, **kwargs):
            counts[fid] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[fid] += 1
                raise
        return wrapper

    def install(self):
        wrappers = {}
        for name, fn in _targets():
            fid = len(self.names)
            self.names.append(name)
            self.counts.append(0)
            self.errors.append(0)
            self.originals.append(fn)
            make = self._count if name in COUNT_ONLY else self._span
            wrappers[id(fn)] = (fn, make(fid, fn))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "diracbound" and not mod_name.startswith("diracbound."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return self

    def cache_info(self):
        """{name: [hits, misses]} read from the original lru_cache objects."""
        out = {}
        for name, fn in zip(self.names, self.originals):
            if hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[name] = [info.hits, info.misses]
        return out

    def calls(self):
        calls = list(self.counts)
        for fid in self.fids:
            calls[fid] += 1
        return dict(zip(self.names, calls))

    def dump(self, path):
        doc = {
            "names": self.names,
            "calls": self.calls(),
            "errors": dict(zip(self.names, self.errors)),
            "cache_info": self.cache_info(),
            "spans": [self.fids, self.parents, self.starts, self.ends],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def profile_mismatches(tracer, stats):
    """Compare traced call counts with cProfile's ncalls for the originals.

    An lru_cache wrapper is a C object that cProfile does not see; the
    function behind it runs once per miss, so its ncalls must equal the
    cache's misses and the traced count must equal hits + misses.
    """
    ncalls = {(f, line, name): nc for (f, line, name), (_, nc, *_rest) in stats.items()}
    traced, cache = tracer.calls(), tracer.cache_info()
    problems = []
    for name, fn in zip(tracer.names, tracer.originals):
        code = getattr(fn, "__wrapped__", fn).__code__
        seen = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        if name in cache:
            hits, misses = cache[name]
            if seen != misses or traced[name] != hits + misses:
                problems.append(f"{name}: traced {traced[name]}, cProfile {seen}, "
                                f"cache hits {hits} misses {misses}")
        elif seen != traced[name]:
            problems.append(f"{name}: traced {traced[name]}, cProfile {seen}")
    return problems

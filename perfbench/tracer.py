"""Spans around the package's public entry points, recorded from outside.

``Tracer.installed()`` wraps the entry points of each layer and patches
every module that holds them by name, so that no call escapes its span:

* ``geom``: every public function of the module;
* ``families``: ``FamilyConfig.triangle`` (on the class) and
  ``envelope_points``;
* ``centers``: ``center`` and ``excenters``;
* ``loci``: ``trace_locus``, ``classify_locus`` and ``fit_curve``;
* ``claims``: the ``run`` of every registered claim, through ``all_claims``;
* ``cli``: ``main``.

Spans (name, start, end, parent, operation) are appended to flat arrays in
memory; self times and counts are derived from them after the run.  A
span's self time is its duration minus the durations of its child spans.
Durations can be scaled per operation call, to the reference speed the
end-to-end metrics use.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
from array import array
from typing import Callable, Dict, Iterator, List, Optional, Sequence

import numpy as np

import poncelet
from poncelet import centers, claims, cli, families, geom, loci

LAYERS = ("geom", "families", "centers", "loci", "claims", "cli", "bench")
ROOT = "bench.op"


def _public_functions(module: object) -> List[str]:
    return [
        name for name in module.__all__
        if inspect.isfunction(getattr(module, name))
        and getattr(module, name).__module__ == module.__name__
    ]


TARGETS = (
    [("geom", geom, name) for name in _public_functions(geom)]
    + [("families", families, "envelope_points"),
       ("centers", centers, "center"),
       ("centers", centers, "excenters"),
       ("loci", loci, "trace_locus"),
       ("loci", loci, "classify_locus"),
       ("loci", loci, "fit_curve"),
       ("cli", cli, "main")]
)


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.op = array("q")
        self._stack: List[int] = []
        self._op = -1
        self.geometry_errors: Dict[str, int] = {}
        self.samples_invalid = 0
        self._frozen: Optional[Dict[str, np.ndarray]] = None
        self._factors: Optional[np.ndarray] = None
        self._root = self.wrap(ROOT, lambda fn: fn())

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable, after: Optional[Callable[[object], None]] = None) -> Callable:
        """``fn`` inside a span called ``name``; ``after`` sees its result."""
        nid = self._name_id(name)
        names, start, end, parent, op, stack = (
            self.name, self.start, self.end, self.parent, self.op, self._stack)
        clock = time.perf_counter
        errors = self.geometry_errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            names.append(nid)
            parent.append(stack[-1] if stack else -1)
            op.append(self._op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except poncelet.GeometryError:
                errors[name] = errors.get(name, 0) + 1
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def run_op(self, index: int, fn: Callable[[], object]) -> object:
        """One benchmark operation as a root span; its spans share ``index``."""
        self._op = index
        try:
            return self._root(fn)
        finally:
            self._op = -1

    def _count_invalid(self, locus: object) -> None:
        self.samples_invalid += sum(1 for s in locus.samples if not s.valid)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        modules = [m for k, m in sys.modules.items() if k == "poncelet" or k.startswith("poncelet.")]
        restore = []

        def patch(owner: object, attr: str, new: object) -> None:
            restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        def patch_everywhere(orig: object, new: object) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is orig:
                        patch(module, attr, new)

        for layer, module, fname in TARGETS:
            orig = getattr(module, fname)
            after = self._count_invalid if fname == "trace_locus" else None
            patch_everywhere(orig, self.wrap(f"{layer}.{fname}", orig, after))
        patch(families.FamilyConfig, "triangle",
              self.wrap("families.triangle", families.FamilyConfig.triangle))
        registry = tuple(
            dataclasses.replace(c, run=self.wrap(f"claims.{c.claim_id}", c.run))
            for c in claims.all_claims()
        )
        patch_everywhere(claims.all_claims, lambda: registry)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    # -----------------------------------------------------------------------
    # Analysis.

    def arrays(self) -> Dict[str, np.ndarray]:
        if self._frozen is None or len(self._frozen["start"]) != len(self.start):
            self._frozen = {
                "names": np.array(self.names),
                "name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "op": np.frombuffer(self.op, dtype=np.int64).copy(),
            }
        return self._frozen

    def scale(self, factors: Sequence[float]) -> None:
        """Scale the time of every span by the factor of its operation call:
        ``factors[k]`` belongs to the k-th root span, in the order run."""
        self._factors = np.asarray(factors, dtype=float)

    def _span_factors(self) -> np.ndarray:
        a = self.arrays()
        if self._factors is None:
            return np.ones(len(a["name"]))
        root = np.cumsum(a["name"] == self._ids[ROOT]) - 1
        return self._factors[np.maximum(root, 0)]

    def durations(self) -> np.ndarray:
        a = self.arrays()
        return (a["end"] - a["start"]) * self._span_factors()

    def self_times(self) -> np.ndarray:
        a = self.arrays()
        dur = self.durations()
        child = a["parent"] >= 0
        covered = np.bincount(a["parent"][child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def _has_ancestor(self, prefix: str) -> np.ndarray:
        """Per span: whether some enclosing span's name starts with prefix."""
        a = self.arrays()
        targets = np.array([n.startswith(prefix) for n in self.names] + [False])
        found = np.zeros(len(a["name"]), dtype=bool)
        cur = a["parent"]
        while (cur >= 0).any():
            live = cur >= 0
            found |= live & targets[np.where(live, a["name"][np.maximum(cur, 0)], -1)]
            cur = np.where(live, a["parent"][np.maximum(cur, 0)], -1)
        return found

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Calls, self and total seconds per span name, over the whole run."""
        a = self.arrays()
        k = len(self.names)
        dur = self.durations()
        calls = np.bincount(a["name"], minlength=k)
        self_s = np.bincount(a["name"], weights=self.self_times(), minlength=k)
        total = np.bincount(a["name"], weights=dur, minlength=k)
        return {
            n: {"calls": float(calls[i]), "self_s": float(self_s[i]), "total_s": float(total[i])}
            for i, n in enumerate(self.names)
        }

    def nested_calls(self, name: str, ancestor_prefix: str) -> int:
        """Spans called ``name`` that run inside a span matching the prefix."""
        if name not in self._ids:
            return 0
        a = self.arrays()
        return int(((a["name"] == self._ids[name]) & self._has_ancestor(ancestor_prefix)).sum())

    def self_by_layer_and_label(self, labels: Sequence[str]) -> Dict[str, Dict[str, float]]:
        """Self seconds per layer, split by the label of each span's operation."""
        a = self.arrays()
        kinds = sorted(set(labels)) + ["-"]
        label_of_op = np.array([kinds.index(x) for x in labels] + [len(kinds) - 1])
        layer_of_name = np.array([LAYERS.index(n.split(".")[0]) for n in self.names])
        key = layer_of_name[a["name"]] * len(kinds) + label_of_op[a["op"]]
        sums = np.bincount(key, weights=self.self_times(), minlength=len(LAYERS) * len(kinds))
        return {
            layer: {kind: float(sums[i * len(kinds) + j]) for j, kind in enumerate(kinds)}
            for i, layer in enumerate(LAYERS)
        }

    def save(self, path: object) -> None:
        scale = np.ones(0) if self._factors is None else self._factors
        np.savez(path, **self.arrays(), op_scale=scale)

"""Span recording around the names one geoposet module calls in another.

Nothing under ``src/geoposet`` knows about tracing.  In a traced run,
``Tracer.install`` replaces module attributes such as
``geoposet.poset.spanning_embeds`` with wrappers that record a span (name,
start, end, parent, op id) per call; ``Tracer.uninstall`` puts the
originals back.  A layer's self time is its spans' duration minus the time
their child spans cover.

Each layer lists the attributes it wraps, as ``module.attr`` relative to
the ``geoposet`` package.  ``ClassTable.from_json_obj`` is a classmethod, so
it is wrapped on the class.  ``perms.parse`` is wrapped on ``perms`` itself
because ``ClassTable.from_json_obj`` imports it at call time.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Layer:
    """Where a layer is wrapped, and what its metrics should move.

    ``targets`` are attributes relative to the ``geoposet`` package;
    ``moves`` names the end-to-end metric and workload each of the layer's
    metrics should move; ``counted`` adds a ``.calls`` metric and
    ``outcome`` a ratio of calls whose result satisfies the predicate.
    """

    targets: tuple[str, ...]
    moves: tuple[str, ...]
    counted: bool = False
    outcome: "tuple[str, Callable[[object], bool]] | None" = None


_TAIL = "op_tail_ms on classify"
_P50 = "op_p50_ms on classify"

LAYERS: dict[str, Layer] = {
    "digraphs.key": Layer(
        ("geoequiv._key_from_masks", "moddecomp.canonical_key"),
        ("wall_s on enumerate", "load_s on cache"),
        counted=True,
    ),
    "digraphs.embed": Layer(
        ("poset.spanning_embeds",),
        ("wall_s on poset",),
        counted=True,
        outcome=("hit_ratio", lambda result: result is not None),
    ),
    "digraphs.from_perm": Layer(
        ("poset.from_perm", "moddecomp.from_perm"), ("wall_s on poset",), counted=True
    ),
    "perms.inversion_set": Layer(
        (
            "digraphs.inversion_set",
            "graphs.inversion_set",
            "geoequiv.inversion_set",
            "poset.inversion_set",
        ),
        ("wall_s on poset", _TAIL),
        counted=True,
    ),
    "perms.is_inversion_set": Layer(
        ("geoequiv.is_inversion_set",),
        (_TAIL, "ops_per_s on classify"),
        counted=True,
        outcome=("accept_ratio", lambda result: result is True),
    ),
    "perms.from_inversion_set": Layer(
        ("geoequiv.perm_from_inversion_set", "digraphs.perm_from_inversion_set"),
        (_TAIL,),
        counted=True,
    ),
    "perms.parse": Layer(("perms.parse",), ("load_s on cache",), counted=True),
    "geoequiv.enumerate": Layer(("geoequiv.enumerate_classes",), ("wall_s on enumerate",)),
    "geoequiv.members": Layer(("geoequiv.class_members",), (_TAIL,), counted=True),
    "geoequiv.class_key": Layer(("geoequiv.class_key",), ("load_s on cache",), counted=True),
    "geoequiv.from_json": Layer(("geoequiv.ClassTable.from_json_obj",), ("load_s on cache",)),
    "poset.precedes": Layer(("poset.precedes",), ("wall_s on poset",), counted=True),
    "poset.build": Layer(("poset.build_poset",), ("wall_s on poset",)),
    "poset.hasse": Layer(("poset.hasse",), ("wall_s on poset",)),
    "moddecomp.is_cograph": Layer(("moddecomp.is_cograph",), (_P50,)),
    "moddecomp.class_size": Layer(("moddecomp.cograph_class_size",), (_P50,), counted=True),
    "geometry.build": Layer(("geometry.build_realization",), (_P50,)),
    "geometry.crossings": Layer(("geometry.crossings",), (_P50,)),
    "geometry.recover": Layer(("geometry.recover_permutation",), (_P50,)),
    "graphs.inversion_graph": Layer(
        ("graphs.inversion_graph", "moddecomp.inversion_graph"), (_P50,)
    ),
    "cli.save": Layer(("cli.save_cached_table",), ("save_s on cache",)),
    "cli.load": Layer(("cli.load_cached_table",), ("load_s on cache",)),
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name, layer in LAYERS.items():
        if layer.counted:
            names.append(f"{name}.calls")
        names.append(f"{name}.self_s")
        if layer.outcome is not None:
            names.append(f"{name}.{layer.outcome[0]}")
    return names + ["trace.overhead_ratio"]


def _resolve(target: str) -> tuple[object, str]:
    """The object holding ``target``'s last component, and that name."""
    module_name, _, rest = target.partition(".")
    owner: object = importlib.import_module(f"geoposet.{module_name}")
    *path, attr = rest.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _raw(owner: object, attr: str) -> object:
    """The attribute as stored, so a classmethod stays a classmethod."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    """Wrappers over every target in ``LAYERS``, and the spans they record."""

    def __init__(self) -> None:
        self._targets = [
            (name, *_resolve(target))
            for name, layer in LAYERS.items()
            for target in layer.targets
        ]
        self._originals = {(id(owner), attr): _raw(owner, attr) for _, owner, attr in self._targets}
        self.spans: list[Optional[tuple[str, float, float, int, int]]] = []
        self.outcomes: Counter = Counter()
        self.op = 0
        self._stack = [-1]

    def assert_pristine(self) -> None:
        """Fail unless every target is the object the package defined."""
        for layer, owner, attr in self._targets:
            if _raw(owner, attr) is not self._originals[(id(owner), attr)]:
                raise AssertionError(f"{layer}: {attr} is wrapped outside a traced phase")

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        spans, stack, outcomes = self.spans, self._stack, self.outcomes
        clock = time.perf_counter
        outcome = LAYERS[layer].outcome
        predicate = outcome[1] if outcome is not None else None

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (layer, start, end, parent, self.op)
            if predicate is not None and predicate(result):
                outcomes[layer] += 1
            return result

        return wrapper

    def install(self) -> None:
        self.assert_pristine()
        for layer, owner, attr in self._targets:
            original = self._originals[(id(owner), attr)]
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(layer, original.__func__)))
            else:
                setattr(owner, attr, self._wrap(layer, original))

    def uninstall(self) -> None:
        for _, owner, attr in self._targets:
            setattr(owner, attr, self._originals[(id(owner), attr)])
        self.assert_pristine()


class LayerTotals:
    """Per-layer call counts, self times and outcomes summed over ops."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.outcomes: Counter = Counter()
        self.ops = 0

    def absorb(self, tracer: Tracer) -> None:
        """Fold one op's spans into the totals and clear them.

        Called after each op, so every span is closed.
        """
        spans = tracer.spans
        child_s = [0.0] * len(spans)
        for layer, start, end, parent, _op in spans:
            if parent >= 0:
                child_s[parent] += end - start
        for idx, (layer, start, end, _parent, _op) in enumerate(spans):
            self.calls[layer] += 1
            self.self_s[layer] += (end - start) - child_s[idx]
        self.outcomes.update(tracer.outcomes)
        self.ops += 1
        spans.clear()
        tracer.outcomes.clear()

    def metrics(self) -> dict[str, float]:
        """Per-op means of counts and self times, and outcome ratios."""
        ops = max(self.ops, 1)
        out: dict[str, float] = {}
        for name, layer in LAYERS.items():
            if layer.counted:
                out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_s"] = self.self_s[name] / ops
            if layer.outcome is not None:
                calls = self.calls[name]
                out[f"{name}.{layer.outcome[0]}"] = self.outcomes[name] / calls if calls else 0.0
        return out

"""Span tracing of polynash's layers, done from outside the library.

The tracer replaces every binding of each public function of the layer
modules -- in every polynash module that binds it, since a ``from .rank
import member_polytope`` copies the name into the importing module -- with a
wrapper that records a span, then puts the originals back. The library
itself is not modified.

A span is ``(layer, start_ns, end_ns, parent, solve, outcome)``: ``parent``
is the index of the enclosing span within the same solve (-1 for a call made
by the benchmark itself) and ``outcome`` is the call's result when that is a
bool (a polytope membership test, a best-response test), else None. A
layer's self time is its span's duration minus the time its child spans
cover.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from pathlib import Path

LAYER_MODULES = ("rank", "game", "bestresponse", "solver", "serialize")
# Construction is a layer too: the dataclass __init__ runs the instance
# validation (validate_rank, find_ssc_violation) as child spans.
LAYER_CLASSES = (("game", "GameInstance"),)
# spans kept for write_spans; a wide solve makes about a thousand
KEEP_SPANS = 50_000


class Tracer:
    """Records spans while installed; aggregates them one solve at a time.

    Spans of the current solve are held in ``spans``. :meth:`end_solve` folds
    them into per-layer totals (calls, self time, True outcomes) and keeps
    them for :meth:`write_spans` until KEEP_SPANS have been kept, so a long
    run stays within bounded memory.
    """

    def __init__(self, package: types.ModuleType) -> None:
        prefix = package.__name__ + "."
        owners = [package] + [
            mod
            for name, mod in sorted(sys.modules.items())
            if name.startswith(prefix) and mod is not None
        ]
        self.layers: list[str] = []
        self._bindings: list[tuple[object, str, object, object]] = []
        for short in LAYER_MODULES:
            module = sys.modules[prefix + short]
            for attr, fn in list(vars(module).items()):
                if (
                    not attr.startswith("_")
                    and isinstance(fn, types.FunctionType)
                    and fn.__module__ == module.__name__
                ):
                    wrapper = self._wrap(len(self.layers), fn)
                    self.layers.append(f"{short}.{attr}")
                    for owner in owners:
                        for key, value in vars(owner).items():
                            if value is fn:
                                self._bindings.append((owner, key, fn, wrapper))
        for short, cls_name in LAYER_CLASSES:
            cls = getattr(sys.modules[prefix + short], cls_name)
            init = cls.__dict__["__init__"]
            self._bindings.append((cls, "__init__", init, self._wrap(len(self.layers), init)))
            self.layers.append(f"{short}.{cls_name}")
        count = len(self.layers)
        self.calls = [0] * count
        self.self_ns = [0] * count
        self.true_outcomes = [0] * count
        self.spans: list[tuple | None] = []
        self.kept: list[tuple] = []
        self.solves = 0
        self._stack: list[int] = []

    def _wrap(self, layer: int, fn):
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            stack = self._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            outcome = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if result is True or result is False:
                    outcome = result
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (layer, start, end, parent, self.solves, outcome)

        return traced

    def install(self) -> None:
        for owner, key, _, wrapper in self._bindings:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._bindings:
            setattr(owner, key, original)

    def restored(self) -> bool:
        """True when every wrapped name is bound to its original object again."""
        return all(
            getattr(owner, key) is original
            for owner, key, original, _ in self._bindings
        )

    @property
    def bindings(self) -> int:
        return len(self._bindings)

    def end_solve(self) -> None:
        """Fold the current solve's spans into the per-layer totals."""
        spans = self.spans
        covered = [0] * len(spans)
        for layer, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        for index, (layer, start, end, _, _, outcome) in enumerate(spans):
            self.calls[layer] += 1
            self.self_ns[layer] += end - start - covered[index]
            if outcome is True:
                self.true_outcomes[layer] += 1
        room = KEEP_SPANS - len(self.kept)
        if room > 0:
            self.kept.extend(spans[:room])
        self.spans = []
        self.solves += 1

    def layer(self, name: str) -> int:
        return self.layers.index(name)

    def write_spans(self, path: Path) -> None:
        """Write the kept spans, one tab-separated line each, parents by index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("solve\tlayer\tparent\tstart_ns\tend_ns\toutcome\n")
            for layer, start, end, parent, solve, outcome in self.kept:
                out.write(
                    f"{solve}\t{self.layers[layer]}\t{parent}\t{start}\t{end}\t{outcome}\n"
                )

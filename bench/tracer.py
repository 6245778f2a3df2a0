"""Spans around the public functions of the qskyrmion layers.

Every public function defined in ``biphoton``, ``lgmodes``, ``stokesfield``,
``topology`` and ``tomography`` is replaced by a timing wrapper in every
``qskyrmion`` module that holds a reference to it: the defining module (so
calls between functions of one module are seen), the modules that imported
it by name, ``cli`` and the package namespace.  Classes and private helpers
are not wrapped; their time counts towards the function that called them.

A span records its operation, its own id, the id of the span that caused it,
its label and its start and end.  Per operation the tracer keeps, for each
label, the inclusive time, the self time (inclusive minus the time of the
wrapped calls made inside it) and the call count, plus the MLE iteration and
non-convergence counts read from each ``MleResult``.  Spans stay in memory
and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

LAYERS = ("biphoton", "lgmodes", "stokesfield", "topology", "tomography")


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._op = -1
        self._clear_op()

    def install(self) -> None:
        """Wrap the layer functions in every loaded ``qskyrmion`` module."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qskyrmion.{layer}"]
            for name, fn in vars(module).items():
                if (inspect.isfunction(fn) and fn.__module__ == module.__name__
                        and not name.startswith("_")):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "qskyrmion" and not modname.startswith("qskyrmion."):
                continue
            for name, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)

    def _wrap(self, label: str, fn):
        stack = self._stack
        clock = time.perf_counter
        is_mle = label == "tomography.mle_reconstruct"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = [len(self.spans), clock(), 0.0]  # id, start, time in children
            self.spans.append(None)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - span[1]
                self.spans[span[0]] = (self._op, span[0], parent[0] if parent else None,
                                       label, span[1], end)
                if parent is None:
                    self._root_s += duration
                else:
                    parent[2] += duration
                stat = self._stats.setdefault(label, [0.0, 0.0, 0])
                stat[0] += duration
                stat[1] += duration - span[2]
                stat[2] += 1
            if is_mle:
                self._counts["tomography.mle_iterations"] += result.iterations
                self._counts["tomography.mle_unconverged"] += int(not result.converged)
            return result

        return traced

    def reset(self) -> None:
        """Drop everything recorded so far (the warm-up operation)."""
        self.spans.clear()
        self._op = -1

    def _clear_op(self) -> None:
        self._stats: dict = {}
        self._root_s = 0.0
        self._counts = {"tomography.mle_iterations": 0, "tomography.mle_unconverged": 0}

    def begin_op(self) -> None:
        self._op += 1
        self._clear_op()

    def end_op(self, wall_s: float) -> dict:
        """Per-label [inclusive_s, self_s, calls] of the operation just run.

        ``cli.self`` is the operation's wall time not covered by any span:
        the work ``cli`` does itself, such as formatting and writing CSV.
        """
        stats = dict(self._stats)
        stats["cli.self"] = [wall_s, wall_s - self._root_s, 1]
        return {"stats": stats, "counts": dict(self._counts)}

    def write_spans(self, path) -> None:
        keys = ("op", "id", "parent", "name", "start", "end")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")

"""Per-layer tracing that wraps the package's public functions from outside.

`Tracer.install` replaces every binding of each traced function across the
loaded ``hetnetsim.*`` modules, module globals and class attributes alike,
so a call is caught whichever module makes it.  `Tracer.uninstall` puts the
originals back.  Spans stay in memory, one typed array per field, so that
recording them allocates no Python objects, until the caller writes them out
with `Tracer.span_table`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field

import numpy as np


@dataclass
class LayerStats:
    calls: int = 0
    ns: int = 0
    self_ns: int = 0  # ns minus the time spent in traced callees
    counts: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self) -> None:
        self.layers: dict[str, LayerStats] = {}
        # Span fields: id, parent id (0 for none), layer index, start, end.
        self._span_id = array("q")
        self._span_parent = array("q")
        self._span_layer = array("q")
        self._span_start = array("q")
        self._span_end = array("q")
        self._stack: list[list[int]] = []  # [span id, ns spent in callees]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        stats = self.layers.setdefault(name, LayerStats())
        layer = list(self.layers).index(name)
        stack = self._stack
        span_id, span_parent, span_layer = self._span_id, self._span_parent, self._span_layer
        span_start, span_end = self._span_start, self._span_end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [own_id, 0]
            stack.append(frame)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.ns += elapsed
                stats.self_ns += elapsed - frame[1]
                span_id.append(own_id)
                span_parent.append(parent)
                span_layer.append(layer)
                span_start.append(start)
                span_end.append(end)
            if count is not None:
                count(stats.counts, args, kwargs, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(layer name, function, count or None)`` target.

        ``count(counts, args, kwargs, result)`` adds the layer's work counts.
        Raises when a target is bound nowhere in the package.
        """
        modules = [
            m for n, m in sys.modules.items() if n == "hetnetsim" or n.startswith("hetnetsim.")
        ]
        owners = list(modules)
        for module in modules:
            owners.extend(
                v
                for v in vars(module).values()
                if isinstance(v, type) and v.__module__.startswith("hetnetsim")
            )
        for name, original, count in targets:
            wrapper = self._wrap(name, original, count)
            found = False
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._patched.append((owner, attr, original))
                        found = True
            if not found:
                self.uninstall()
                raise LookupError(f"{name} is not bound in any hetnetsim module")

    def span_table(self) -> dict:
        """The recorded spans as JSON-ready columns."""
        names = list(self.layers)
        return {
            "id": self._span_id.tolist(),
            "parent_id": self._span_parent.tolist(),
            "name": [names[i] for i in self._span_layer],
            "start_ns": self._span_start.tolist(),
            "end_ns": self._span_end.tolist(),
        }

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_blockage(counts, args, kwargs, result) -> None:
    n_wap = len(_arg(args, kwargs, 0, "wap_xy"))
    n_wall = len(_arg(args, kwargs, 3, "wall_e1"))
    counts["path_wall_pairs"] += n_wap * n_wall
    counts["crossings"] += int(np.sum(result))


def _count_points(counts, args, kwargs, net) -> None:
    counts["points"] += len(net.macro_xy) + len(net.metro_xy) + len(net.building_center_xy)


def _count_gain_evals(counts, args, kwargs, gain) -> None:
    counts["evals"] += int(np.size(gain))


def layer_targets():
    """The traced layers: ``(name, function, count)`` for `Tracer.install`."""
    from hetnetsim import antenna, config, geometry, results, simulation

    classes = [getattr(antenna, n) for n in antenna.__all__]
    gains = {
        c.total_gain_dbi for c in classes if isinstance(c, type) and hasattr(c, "total_gain_dbi")
    }
    targets = [
        ("config.load_config", config.load_config, None),
        ("geometry.sample_network", geometry.sample_network, _count_points),
        (
            "geometry.blockage_counts_from_origin",
            geometry.blockage_counts_from_origin,
            _count_blockage,
        ),
    ]
    targets += [("antenna.total_gain_dbi", fn, _count_gain_evals) for fn in gains]
    targets += [
        (f"simulation.{n}", getattr(simulation, n), None)
        for n in (
            "run_sweep",
            "run_many",
            "run_drop",
            "evaluate_sample",
            "sector_mean_powers",
            "aggregate",
            "result_row",
        )
    ]
    targets.append(("results.write_rows", results.write_rows, None))
    return targets


# Entry points whose own time is glue around the layers below them.
ENTRY_LAYERS = ("simulation.run_sweep", "simulation.run_many")

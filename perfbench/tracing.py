"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of pamq's layer modules from
outside the package. A wrap replaces every module attribute through which
the function is looked up (``pamq.sep.f_integral`` as well as
``pamq.specfun.f_integral``), so calls between modules are recorded too.
Spans (name, parent, start, end) are kept in typed arrays, 24 bytes each,
and written out once the run ends. ``pamq.system`` is not wrapped: its
time counts as self time of its callers.
"""
import functools
import importlib
import inspect
import pkgutil
import time
from array import array

import numpy as np

LAYERS = ("specfun", "detector", "sep", "optimizer", "asymptotics", "montecarlo", "cli")
SEP_ENGINES = ("sep.sep_closed_form", "sep.sep_quadrature", "sep.sep_noiseless")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._patched = []

    def install(self):
        """Wrap the public functions of every layer in LAYERS."""
        import pamq

        modules = [pamq] + [importlib.import_module(f"pamq.{info.name}")
                            for info in pkgutil.iter_modules(pamq.__path__)]
        for layer in LAYERS:
            mod = importlib.import_module(f"pamq.{layer}")
            # cli has no __all__; its public entry point is main
            for attr in getattr(mod, "__all__", ["main"]):
                fn = getattr(mod, attr)
                if not inspect.isfunction(fn):
                    continue
                wrapped = self._wrap(f"{layer}.{attr}", fn)
                for owner in modules:
                    for key, val in list(vars(owner).items()):
                        if val is fn:
                            self._patched.append((owner, key, fn))
                            setattr(owner, key, wrapped)

    def uninstall(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    @property
    def n_spans(self):
        return len(self.start)

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.start, dtype=np.float64),
                np.frombuffer(self.end, dtype=np.float64))

    def save(self, path):
        """Write all spans as a compressed .npz (names table plus arrays)."""
        name_id, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            parent=parent, start=start, end=end)

    def summary(self):
        """Per-name calls, total and self seconds, and per-call durations,
        plus the number of SEP-engine spans that run under an optimize span."""
        name_id, parent, start, end = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child_sum = np.zeros(len(dur))
        np.add.at(child_sum, parent[has_parent], dur[has_parent])
        self_time = dur - child_sum

        # mark spans that have an optimize ancestor, by pointer doubling
        opt = self.names.index("optimizer.optimize")
        up = np.where(has_parent, parent, np.arange(len(parent)))
        under = np.zeros(len(dur), dtype=bool)
        under[has_parent] = name_id[parent[has_parent]] == opt
        for _ in range(64):
            nxt = under | under[up]
            if np.array_equal(nxt, under) and np.array_equal(up, up[up]):
                break
            under, up = nxt, up[up]
        engines = np.isin(name_id, [self.names.index(n) for n in SEP_ENGINES])

        per_name = {}
        for nid, name in enumerate(self.names):
            sel = name_id == nid
            per_name[name] = {
                "calls": int(sel.sum()),
                "total_s": float(dur[sel].sum()),
                "self_s": float(self_time[sel].sum()),
                "durations": dur[sel],
            }
        return per_name, int(np.count_nonzero(engines & under))

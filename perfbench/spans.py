"""Layer-boundary tracing of qchroma, installed from outside the package.

`Tracer.install()` replaces each traced public function with a wrapper in
every qchroma module that binds it: the defining module and each module
that imported it by name.  A call therefore opens a span exactly where one
module calls into another, as the caller's import resolved it, and no
source file of the package changes.  `Tracer.uninstall()` puts the
originals back.  Nothing is patched unless `install()` runs, so an
untraced run executes the package unmodified.

Spans are aggregated in memory as they close.  Per span name the tracer
keeps the number of calls, inclusive seconds (a span nested inside one of
the same name is not counted twice) and self seconds (inclusive time minus
the time covered by child spans).  Counted names only count calls: they
sit on paths where a timing wrapper would cost more than the call.
"""

from __future__ import annotations

import sys
import time

# (module, attribute) pairs timed as spans; generators are timed per resume.
SPANS = (
    ("colouring", "make_context"),
    ("colouring", "full_colouring"),
    ("colouring", "certificate_to_json"),
    ("colouring", "certificate_from_json"),
    ("colouring", "verify_properness"),
    ("colouring", "bounds_report"),
    ("colouring", "colour_subspace"),
    ("grassmann", "enumerate_subspaces"),
    ("grassmann", "encode_subspace"),
    ("grassmann", "decode_subspace"),
    ("grassmann", "dualize"),
    ("rankmetric", "unlift"),
    ("rankmetric", "coset_index"),
    ("rankmetric", "gabidulin_build"),
    ("rankmetric", "min_rank_distance"),
    ("matq", "intersection_dim"),
    ("matq", "orthogonal_complement"),
    ("johnson", "greedy_colouring"),
    ("oracle", "dsatur"),
)
# (module, attribute) pairs that are only counted.
COUNTS = (
    ("matq", "rank"),
)
GENERATORS = {"enumerate_subspaces"}


class _Stat:
    __slots__ = ("calls", "incl", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Span and call aggregation over one or more traced jobs."""

    def __init__(self, package: str = "qchroma"):
        self.package = package
        self.stats: dict[str, _Stat] = {}
        self._stack: list[list[float]] = []  # child seconds of each open span
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for stat in self.stats.values():  # wrappers hold these objects
            stat.calls, stat.incl, stat.self_s = 0, 0.0, 0.0

    def snapshot(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": s.calls, "s": s.incl, "self_s": s.self_s}
                for name, s in self.stats.items()}

    # -- wrappers ----------------------------------------------------------

    def _enter(self, stat: _Stat) -> list[float]:
        stat.depth += 1
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, stat: _Stat, frame: list[float], dt: float) -> None:
        stack = self._stack
        stack.pop()
        stat.depth -= 1
        stat.self_s += dt - frame[0]
        if stat.depth == 0:
            stat.incl += dt
        if stack:
            stack[-1][0] += dt

    def _span(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        clock = time.perf_counter
        enter, leave = self._enter, self._exit

        def traced(*args, **kwargs):
            stat.calls += 1
            frame = enter(stat)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(stat, frame, clock() - t0)
        return traced

    def _gen_span(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())
        clock = time.perf_counter
        enter, leave = self._enter, self._exit

        def resume_timed(it):
            while True:
                frame = enter(stat)
                t0 = clock()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    leave(stat, frame, clock() - t0)
                yield item

        def traced(*args, **kwargs):
            stat.calls += 1
            return resume_timed(fn(*args, **kwargs))
        return traced

    def _counter(self, name: str, fn):
        stat = self.stats.setdefault(name, _Stat())

        def counted(*args, **kwargs):
            stat.calls += 1
            return fn(*args, **kwargs)
        return counted

    # -- install / uninstall ------------------------------------------------

    def _modules(self):
        prefix = self.package + "."
        return [mod for name, mod in sorted(sys.modules.items())
                if mod is not None and (name == self.package or name.startswith(prefix))]

    def _patch_everywhere(self, original, wrapper) -> None:
        attr = original.__name__
        for mod in self._modules():
            if getattr(mod, attr, None) is original:
                self._patches.append((mod, attr, original))
                setattr(mod, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {m.__name__.rsplit(".", 1)[-1]: m for m in self._modules()}
        for modname, attr in SPANS:
            original = getattr(modules[modname], attr)
            name = f"{modname}.{attr}"
            make = self._gen_span if attr in GENERATORS else self._span
            self._patch_everywhere(original, make(name, original))
        for modname, attr in COUNTS:
            original = getattr(modules[modname], attr)
            self._patch_everywhere(original, self._counter(f"{modname}.{attr}", original))
        # Subspace is a class checked with isinstance, so count its
        # constructions on the class rather than replacing the name.
        subspace = modules["grassmann"].Subspace
        init = subspace.__init__
        self._patches.append((subspace, "__init__", init))
        subspace.__init__ = self._counter("grassmann.Subspace", init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

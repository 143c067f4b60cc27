"""Layer tracing for the traced benchmark run, installed from outside ``ptl``.

Each layer's public functions are replaced, for the duration of a traced
job, by wrappers that record one span (name, start, end, parent) per call.
A function is replaced under every module attribute that binds it, so a
caller that did ``from .embedding import canonical_form`` is traced too.
``PlaneGraph.build``, ``PlaneGraph.canonical_plane_code`` and
``PlaneGraph.to_json`` are replaced on the class.

A generator function records one span per resumption, so the work its
consumer does between two items is not charged to it.  Spans are kept in
memory; :meth:`Tracer.layer_totals` derives each layer's calls and self
time (span duration minus the time its direct child spans cover), and
:meth:`Tracer.dump` writes every span out at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from array import array
from pathlib import Path

from ptl import decomposition, embedding, families, io, patterns, search
from ptl.embedding import PlaneGraph

_CANONICAL = (
    "canonical_labeling",
    "canonical_data",
    "canonical_form",
    "automorphism_generators",
    "vertex_orbits",
    "is_isomorphic",
)
_FAMILIES = (
    "k2_plus_matching",
    "k2_vee_matching",
    "apex_outerplanar",
    "wheel_ring",
    "b5_ring",
    "b5_ring_augmented",
    "augment_with_b2prime",
    "family_instance",
    "catalog_block",
    "expected_tb_catalog",
    "verify_h5_extremal",
)


def _public_functions(module) -> tuple[str, ...]:
    return tuple(
        name for name in module.__all__
        if inspect.isfunction(getattr(module, name))
    )


#: Layer name -> (owner, attribute) pairs whose calls are charged to it.
LAYERS: dict[str, tuple[tuple[object, str], ...]] = {
    "embedding.canonical": tuple((embedding, n) for n in _CANONICAL),
    "embedding.plane_build": ((PlaneGraph, "build"),),
    "embedding.plane_code": ((PlaneGraph, "canonical_plane_code"),),
    "embedding.planarity": ((embedding, "embed"), (embedding, "is_planar")),
    "patterns.match_at": ((patterns, "contains_subgraph_at"),),
    "patterns.match": (
        (patterns, "contains_subgraph"),
        (patterns, "is_free"),
    ),
    "decomposition.decompose": ((decomposition, "decompose"),),
    "decomposition.e_i": ((decomposition, "e_i_analysis"),),
    "families.build": tuple((families, n) for n in _FAMILIES),
    "io.codec": tuple((io, n) for n in _public_functions(io))
    + ((PlaneGraph, "to_json"),),
    "search": tuple((search, n) for n in _public_functions(search)),
}


def _ptl_modules() -> list:
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "ptl" or name.startswith("ptl."))
    ]


class Tracer:
    """Records spans for the functions listed in :data:`LAYERS`.

    Use as a context manager: entering installs the wrappers, leaving
    restores every replaced attribute.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._layer_of_name: list[str] = []
        self.name_of: array = array("l")
        self.parent: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self._stack: list[int] = [-1]
        #: Per traced function name: calls, raised, non-None results, items.
        self.calls: dict[str, int] = {}
        self.raised: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, qualname: str, fn):
        nid = len(self.names)
        self.names.append(qualname)
        self._layer_of_name.append(layer)
        for counter in (self.calls, self.raised, self.hits, self.items):
            counter[qualname] = 0
        tracer = self

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                tracer.calls[qualname] += 1
                it = fn(*args, **kwargs)
                while True:
                    idx = tracer._open(nid)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        tracer.raised[qualname] += 1
                        raise
                    finally:
                        tracer._close(idx)
                    tracer.items[qualname] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.calls[qualname] += 1
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.raised[qualname] += 1
                raise
            finally:
                tracer._close(idx)
            if result is not None:
                tracer.hits[qualname] += 1
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        modules = _ptl_modules()
        for layer, targets in LAYERS.items():
            for owner, attr in targets:
                if isinstance(owner, type):
                    raw = owner.__dict__[attr]
                    fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                    wrapped = self._wrap(layer, f"PlaneGraph.{attr}", fn)
                    if isinstance(raw, staticmethod):
                        wrapped = staticmethod(wrapped)
                    self._restore.append((owner, attr, raw))
                    setattr(owner, attr, wrapped)
                    continue
                fn = getattr(owner, attr)
                wrapped = self._wrap(layer, f"{owner.__name__}.{attr}", fn)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is fn:
                            self._restore.append((mod, name, value))
                            setattr(mod, name, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per layer: calls, raised, hits, items and self time in seconds."""
        covered = [0.0] * len(self.start)
        start, end, parent = self.start, self.end, self.parent
        for i in range(len(start)):
            p = parent[i]
            if p >= 0:
                covered[p] += end[i] - start[i]
        self_by_name = [0.0] * len(self.names)
        name_of = self.name_of
        for i in range(len(start)):
            self_by_name[name_of[i]] += end[i] - start[i] - covered[i]
        totals = {
            layer: {"calls": 0, "raised": 0, "hits": 0, "items": 0,
                    "self_s": 0.0}
            for layer in LAYERS
        }
        for nid, name in enumerate(self.names):
            row = totals[self._layer_of_name[nid]]
            row["calls"] += self.calls[name]
            row["raised"] += self.raised[name]
            row["hits"] += self.hits[name]
            row["items"] += self.items[name]
            row["self_s"] += self_by_name[nid]
        return totals

    def dump(self, path: Path, summary: dict) -> None:
        """Write the run's summary and every span, gzipped.

        The first line is a JSON header holding the summary and the traced
        function names with their layers; each further line is one span,
        ``name index,parent span index,start,end``, with -1 for no parent.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        header = {
            "summary": summary,
            "names": self.names,
            "layers": self._layer_of_name,
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps(header, separators=(",", ":")) + "\n")
            for row in zip(self.name_of, self.parent, self.start, self.end):
                fh.write("%d,%d,%.9f,%.9f\n" % row)

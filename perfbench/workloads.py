"""The benchmark's three workloads: ``turan``, ``census`` and ``corpus``.

Each workload lists its operations for one round, checks one operation's
output against :mod:`reference` (networkx, published counts and closed
forms) or against an identity the method must satisfy, and derives its
detail timings.  Inputs come from the seed alone.  Operations call ``ptl``
through module attributes, so that the traced run sees every call.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import dataclass
from typing import Callable

import networkx as nx

import reference as ref
from planegen import random_plane_graph
from ptl import decomposition, embedding, families, io, patterns, search


@dataclass(frozen=True)
class Op:
    """One operation of a round: a search call, a census call or a graph."""

    name: str
    group: str
    run: Callable[[], object]


def _digest(value: object) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def _median_of_rounds(rounds, groups) -> float:
    """Median over rounds of the seconds spent on ops in ``groups``."""
    return statistics.median(
        sum(sec for op, sec in r if op.group in groups) for r in rounds
    )


class Workload:
    name = ""
    #: Patterns resolved during set-up.
    patterns: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.ref_patterns = ref.pattern_graphs()

    def setup_problems(self) -> list[str]:
        """Checks that the reference patterns are the program's patterns."""
        problems = []
        for name in self.patterns:
            mine = self.ref_patterns[name]
            theirs = patterns.as_pattern(name).graph
            if not ref.is_isomorphic(mine, ref.graph(theirs.n, theirs.edges)):
                problems.append(f"pattern {name} differs from its definition")
        return problems

    def ops(self, workers: int) -> list[Op]:
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        """Problems with one operation's output (empty when correct)."""
        raise NotImplementedError

    def signature(self, op: Op, out) -> str:
        """What later rounds must reproduce exactly."""
        raise NotImplementedError

    def cross_check(self, outputs: dict[str, object]) -> list[str]:
        """Problems between operations of one round."""
        return []

    def determinism(self, outputs: dict[str, object]) -> list[str]:
        """Problems between these workers = 1 outputs and workers = 2."""
        return []

    def counters(self, outputs: dict[str, object]) -> dict[str, int]:
        """Search nodes and prunes summed over the good outputs' reports."""
        return {"enumerated": 0, "pruned": 0}

    def details(self, rounds) -> dict[str, tuple[float, str]]:
        raise NotImplementedError


# =========================================================================
# turan: the exact oracle and the planar enumeration at n = 8
# =========================================================================


class Turan(Workload):
    name = "turan"
    patterns = ("H4", "H5", "H6")
    n = 8

    def ops(self, workers: int) -> list[Op]:
        ops = [
            Op(f"oracle:{p}", f"oracle:{p}",
               lambda p=p: search.exact_planar_turan(self.n, p, workers=workers))
            for p in self.patterns
        ]
        ops.append(Op("enum", "enum", self._enumerate))
        return ops

    def _enumerate(self) -> list[tuple[int, tuple]]:
        return [
            (g.n, g.edges)
            for g in search.enumerate_graphs(self.n, connected=True, planar=True)
        ]

    def check(self, op: Op, out) -> list[str]:
        if op.name == "enum":
            return self._check_enum(out)
        return self._check_oracle(op.name.split(":")[1], out)

    def _check_oracle(self, p: str, report) -> list[str]:
        n = self.n
        pat = self.ref_patterns[p]
        problems = []
        if report.n != n or report.pattern != p or not report.witnesses:
            return [f"{p}: malformed report {report.to_record()}"]
        graphs = [ref.from_graph6(w) for w in report.witnesses]
        for w, g in zip(report.witnesses, graphs):
            if g.number_of_nodes() != n or g.number_of_edges() != report.ex:
                problems.append(f"{p}: witness {w} is not ({n}, {report.ex})")
            elif not nx.is_connected(g) or not ref.is_planar(g):
                problems.append(f"{p}: witness {w} not connected and planar")
            elif ref.contains(g, pat):
                problems.append(f"{p}: witness {w} contains {p}")
            elif ref.has_planar_free_extension(g, pat):
                problems.append(f"{p}: witness {w} is not edge-maximal")
        if ref.isomorphic_pairs(graphs):
            problems.append(f"{p}: isomorphic witnesses")
        lower = max(
            (g.number_of_edges() for g in ref.constructions_8().values()
             if ref.is_planar(g) and not ref.contains(g, pat)),
            default=0,
        )
        if not lower <= report.ex <= 3 * n - 6:
            problems.append(f"{p}: ex {report.ex} outside [{lower}, {3*n-6}]")
        if p == "H5":
            closed = 5 * n // 2 - 4
            if families.bound(n, "thm2").value != closed or report.ex > closed:
                problems.append(f"H5: ex {report.ex} above thm2 {closed}")
        return problems

    def _check_enum(self, graphs) -> list[str]:
        nxs = [ref.graph(n, edges) for n, edges in graphs]
        problems = []
        if len(nxs) != ref.CONNECTED_PLANAR_8:
            problems.append(f"enum: {len(nxs)} graphs, A003094 gives 5974")
        if any(g.number_of_nodes() != self.n for g in nxs):
            problems.append("enum: a graph of the wrong order")
        if not all(nx.is_connected(g) and ref.is_planar(g) for g in nxs):
            problems.append("enum: a graph that is not connected and planar")
        if ref.isomorphic_pairs(nxs):
            problems.append("enum: isomorphic graphs")
        return problems

    def signature(self, op: Op, out) -> str:
        if op.name == "enum":
            return _digest(out)
        return out.comparable_json()

    def determinism(self, outputs) -> list[str]:
        problems = []
        for p in self.patterns:
            again = search.exact_planar_turan(self.n, p, workers=2)
            if again.comparable_json() != outputs[f"oracle:{p}"].comparable_json():
                problems.append(f"{p}: workers = 2 report differs")
        return problems

    def counters(self, outputs) -> dict[str, int]:
        reports = [
            outputs[f"oracle:{p}"] for p in self.patterns
            if f"oracle:{p}" in outputs
        ]
        return {
            "enumerated": sum(r.enumerated for r in reports),
            "pruned": sum(r.pruned for r in reports),
        }

    def details(self, rounds):
        out = {
            f"oracle_{p.lower()}_s": (_median_of_rounds(rounds, {f"oracle:{p}"}), "s")
            for p in self.patterns
        }
        out["enum_s"] = (_median_of_rounds(rounds, {"enum"}), "s")
        return out


# =========================================================================
# census: solid triangular blocks by growth and by the direct route
# =========================================================================


class Census(Workload):
    name = "census"
    patterns = ("H4", "H5")
    growth_order = 16
    direct_order = 7

    def ops(self, workers: int) -> list[Op]:
        ops = [
            Op(f"growth:{p}", "growth",
               lambda p=p: search.enumerate_solid_tbs(
                   self.growth_order, p, workers=workers,
                   ceiling=self.growth_order))
            for p in self.patterns
        ]
        ops += [
            Op(f"direct:{p}", "direct",
               lambda p=p: search.certify_solid_tbs_direct(self.direct_order, p))
            for p in self.patterns
        ]
        return ops

    def check(self, op: Op, out) -> list[str]:
        p = op.name.split(":")[1]
        problems = []
        if op.group == "growth":
            top, forms = self.growth_order, out.found
            if not out.diff_is_empty:
                problems.append(f"{op.name}: catalog diff is not empty")
        else:
            top, forms = self.direct_order, out
        if sorted(forms) != list(range(3, top + 1)):
            problems.append(f"{op.name}: orders {sorted(forms)}")
        for order, codes in forms.items():
            for code in codes:
                g = ref.from_graph6(code)
                if not (
                    g.number_of_nodes() == order
                    and ref.is_planar(g)
                    and nx.is_biconnected(g)
                    and ref.every_edge_on_triangle(g)
                    and not ref.contains(g, self.ref_patterns[p])
                ):
                    problems.append(f"{op.name}: {code} is not a {p}-free block")
        return problems

    def cross_check(self, outputs) -> list[str]:
        problems = []
        for p in self.patterns:
            grown = outputs.get(f"growth:{p}")
            direct = outputs.get(f"direct:{p}")
            if grown is None or direct is None:
                continue
            for order in range(3, self.direct_order + 1):
                if tuple(grown.found.get(order, ())) != tuple(direct.get(order, ())):
                    problems.append(f"{p}: routes differ at order {order}")
        return problems

    def signature(self, op: Op, out) -> str:
        if op.group == "growth":
            return out.comparable_json()
        return json.dumps(sorted(out.items()))

    def determinism(self, outputs) -> list[str]:
        problems = []
        for p in self.patterns:
            again = search.enumerate_solid_tbs(
                self.growth_order, p, workers=2, ceiling=self.growth_order)
            if again.comparable_json() != outputs[f"growth:{p}"].comparable_json():
                problems.append(f"{p}: workers = 2 census differs")
        return problems

    def details(self, rounds):
        return {
            "census_growth_s": (_median_of_rounds(rounds, {"growth"}), "s"),
            "census_direct_s": (_median_of_rounds(rounds, {"direct"}), "s"),
        }


# =========================================================================
# corpus: what `ptl check free` and `ptl decompose` do to a file of graphs
# =========================================================================


@dataclass
class Analysis:
    code: bytes
    back: bytes
    graph: object
    plane: object
    dec: object
    e_i: tuple
    witnesses: dict
    form: bytes


def _family_suite() -> list[tuple[str, tuple[int, ...], str, tuple[int, int]]]:
    """(builder, arguments, avoided pattern, (order, size)) per member.

    The construction-suite sizes, except that ``k2_plus_matching`` stops at
    n = 20 and ``k2_vee_matching`` at n = 25: past those orders one
    canonical form of theirs takes more than a second.
    """
    def line(n: int) -> tuple[int, int]:
        return n, 5 * n // 2 - 4

    suite = [("k2_plus_matching", (n,), "H6", line(n)) for n in range(6, 21, 2)]
    suite += [("k2_vee_matching", (n,), "H6", line(n)) for n in range(7, 26, 2)]
    suite += [("apex_outerplanar", (n,), "H6", line(n)) for n in range(7, 32, 2)]
    suite += [("wheel_ring", (k,), "H4", (5 * k + 2, 13 * k)) for k in range(3, 21)]
    suite += [
        ("b5_ring_augmented", (x, y), "H5", line(10 * x + 6 * y))
        for x in (2, 3) for y in range(5)
    ]
    return suite


class Corpus(Workload):
    name = "corpus"
    patterns = ("H4", "H5", "H6")
    random_graphs = 1500
    orders = range(10, 41)
    networkx_sample = 100

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        rng = random.Random(f"corpus-random-{seed}")
        strata = -(-self.random_graphs // len(self.orders))
        self.random_set: list[bytes] = []
        for i in range(self.random_graphs):
            n = self.orders[i % len(self.orders)]
            keep = (i // len(self.orders) + rng.random()) / strata
            g = ref.graph(n, random_plane_graph(n, keep, rng))
            self.random_set.append(ref.to_graph6(g))
        self.sample = set(rng.sample(range(self.random_graphs), self.networkx_sample))
        self.suite = _family_suite()
        self.expected = {
            f"family:{b}{args}": (avoided, shape)
            for b, args, avoided, shape in self.suite
        }
        self.specs = {p: patterns.as_pattern(p) for p in self.patterns}

    def _analyse(self, code: bytes) -> Analysis:
        g = io.graph6_decode(code)
        back = io.graph6_encode(g)
        pg = embedding.embed(g)
        dec = decomposition.decompose(pg)
        e_i = (
            decomposition.e_i_analysis(pg, include_outer=True),
            decomposition.e_i_analysis(pg, include_outer=False),
        )
        witnesses = {
            p: patterns.contains_subgraph(g, spec)
            for p, spec in self.specs.items()
        }
        form = embedding.canonical_form(g)
        return Analysis(code, back, g, pg, dec, e_i, witnesses, form)

    def _family(self, builder: str, args: tuple[int, ...]):
        instance = getattr(families, builder)(*args)
        return instance, self._analyse(io.graph6_encode(instance.plane.graph))

    def ops(self, workers: int) -> list[Op]:
        ops = [
            Op(f"random:{i}", "random", lambda code=code: self._analyse(code))
            for i, code in enumerate(self.random_set)
        ]
        ops += [
            Op(f"family:{b}{args}", "families",
               lambda b=b, args=args: self._family(b, args))
            for b, args, _, _ in self.suite
        ]
        return ops

    def check(self, op: Op, out) -> list[str]:
        if op.group == "families":
            avoided, (order, size) = self.expected[op.name]
            instance, a = out
            host = ref.from_graph6(a.code)
            problems = self._check_analysis(op.name, a, host, full=True)
            if set(instance.plane.graph.edges) != ref.edge_set(host):
                problems.append(f"{op.name}: graph6 encoding changed the graph")
            if (host.number_of_nodes(), host.number_of_edges()) != (order, size):
                problems.append(f"{op.name}: not of order {order} and size {size}")
            # The full check above compared every verdict with networkx.
            if a.witnesses[avoided] is not None:
                problems.append(f"{op.name}: contains {avoided}")
            return problems
        index = int(op.name.split(":")[1])
        return self._check_analysis(
            op.name, out, ref.from_graph6(out.code), full=index in self.sample)

    def _check_analysis(
        self, name: str, a: Analysis, host: nx.Graph, full: bool
    ) -> list[str]:
        """Checks of one graph's analysis; ``host`` is its networkx decode.
        ``full`` adds the checks that call networkx's matcher."""
        problems = []
        edges = ref.edge_set(host)
        pg = a.plane
        if a.back != a.code or set(a.graph.edges) != edges:
            problems.append(f"{name}: graph6 round trip changed the graph")
        faces = pg.faces()
        if set(pg.graph.edges) != edges:
            problems.append(f"{name}: the embedding has other edges")
        if pg.n - pg.m + len(faces) != 2 or sum(f.length for f in faces) != 2 * pg.m:
            problems.append(f"{name}: Euler or face-length sum fails")
        for report in a.e_i:
            if 3 * report.f3 != len(report.e_prime) + 2 * len(report.e_i):
                problems.append(f"{name}: 3 f3 != |E'| + 2 |E_I|")
        rng = random.Random(f"relabel-{self.seed}-{name}")
        perm = list(range(pg.n))
        rng.shuffle(perm)
        moved = embedding.Graph.from_edges(
            pg.n, [(perm[u], perm[v]) for u, v in edges])
        if embedding.canonical_form(moved) != a.form:
            problems.append(f"{name}: canonical form changes under relabeling")
        for p, mapping in a.witnesses.items():
            if mapping is None:
                continue
            pattern = self.specs[p].graph
            image = [mapping.get(v) for v in range(pattern.n)]
            if len(set(image)) != pattern.n or not all(
                host.has_edge(image[u], image[v]) for u, v in pattern.edges
            ):
                problems.append(f"{name}: the {p} witness is not a copy")
        if full:
            if not ref.is_isomorphic(ref.from_graph6(a.form), host):
                problems.append(f"{name}: canonical form is another graph")
            for p, mapping in a.witnesses.items():
                if ref.contains(host, self.ref_patterns[p]) != (mapping is not None):
                    problems.append(f"{name}: {p} verdict differs from networkx")
        return problems

    def signature(self, op: Op, out) -> str:
        a = out[1] if op.group == "families" else out
        return _digest((
            a.back, a.plane.n, a.plane.m, len(a.plane.faces()),
            len(a.dec.blocks), len(a.dec.components),
            [(r.f3, len(r.e_i), len(r.e_prime)) for r in a.e_i],
            sorted(p for p, w in a.witnesses.items() if w is None),
            a.form,
        ))

    def details(self, rounds):
        latencies = [sec for r in rounds for op, sec in r if op.group == "random"]
        per_s = statistics.median(
            self.random_graphs / sum(sec for op, sec in r if op.group == "random")
            for r in rounds
        )
        return {
            "graphs_per_s": (per_s, "graphs/s"),
            "graph_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "graph_p99_ms": (statistics.quantiles(latencies, n=100)[98] * 1e3, "ms"),
            "families_s": (_median_of_rounds(rounds, {"families"}), "s"),
        }


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (Turan, Census, Corpus)
}

"""Workloads, operations, output checks and the traced layer split of the
castelpoly benchmark.

Every operation starts from a fresh ``build_polytope`` on a generated point
list, so no operation reuses another one's memo caches. Inputs are made from
the workload seed during set-up; the program only ever sees point lists.

Seeded corpora are drawn with ``generate_corpus`` and thinned to a fixed
size schedule: ``reference.json`` stores evenly spaced size quantiles of the
default seed's corpus, in an order whose every prefix spans the size range,
and each seed contributes the polytope nearest in size to each entry. A
time-bounded run therefore sees the same mix of small and large polytopes on
every seed, where the heavy-tailed raw corpora would make its throughput and
p90 swing from seed to seed.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import json
import math
import random
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

from castelpoly import (
    audit_bounds,
    build_polytope,
    build_report,
    degree,
    genus_data,
    h_vector,
    hstar,
    idp_check,
    is_castelnuovo,
    is_castelnuovo_direct,
    is_spanning,
    pulling_triangulation,
)
from castelpoly.corpus import audit_polytope, generate_corpus
from castelpoly.errors import CastelpolyError
from castelpoly.exact_linalg import IntMatrix, rank
from castelpoly.registry import (
    REGISTRY_KEYS,
    family_vertices,
    nonspanning_dim4_vertices,
    reflexive_simplex_vertices,
    run_example,
    square_2x2_vertices,
    standard_simplex_vertices,
)

CORPUS_AUDIT = "corpus-audit"
ANALYZE_DENSE = "analyze-dense"
HULL_CLOUD = "hull-cloud"
WORKLOADS = (CORPUS_AUDIT, ANALYZE_DENSE, HULL_CLOUD)

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Candidates drawn per scheduled input; more candidates let every seed match
# the size schedule more closely, at the price of set-up time.
OVERSAMPLE = 4

# (dim, coord bound, generate_corpus seed at the default workload seed,
# inputs per pass). corpus-audit keeps the acceptance corpus's dims, bounds,
# seeds and its 250:175:100 mix; analyze-dense uses dense corpora whose time
# goes to SNF and triangulation rather than to scans.
CORPUS_STRATA = {
    CORPUS_AUDIT: ((2, 3, 101, 160), (3, 2, 202, 112), (4, 2, 303, 64)),
    ANALYZE_DENSE: ((2, 10, 404, 64), (3, 4, 505, 64), (4, 3, 606, 64)),
}

# hull-cloud: (dim, coordinate range, point counts cycled through) for random
# clouds, and (dim, dilation factors cycled through) for the lattice points of
# unimodular images of dilated standard simplices. The 4-dimensional clouds
# keep to a width-3 box: in a width-4 box their dilate scans allocate arrays
# large enough for peak memory to swing by a third from seed to seed.
CLOUD_STRATA = ((2, (-12, 12), (40, 50, 60)), (3, (-5, 5), (20, 25, 30)), (4, (0, 3), (20,)))
SIMPLEX_STRATA = ((2, (6, 7, 8)), (3, (3,)), (4, (2,)))
HULL_STRATUM_LENGTH = 48


@dataclass(frozen=True)
class Input:
    label: str
    points: tuple[tuple[int, ...], ...]
    expected_hstar: tuple[int, ...] | None = None


# -- input generation --------------------------------------------------------


def _box_cells(points, k: int) -> int:
    """Cells of the integer bounding box of the k-th dilate."""
    return math.prod(k * (max(c) - min(c)) + 1 for c in zip(*points))


def _prefix_balanced(items: list, length: int) -> list:
    """``length`` evenly spaced quantiles of ``items`` (sorted by size), in
    bit-reversed order, so every prefix of 2**r picks spans the range."""
    bits = max(1, (length - 1).bit_length())
    picks = [items[(2 * j + 1) * len(items) // (2 * length)] for j in range(length)]
    order = sorted(range(length), key=lambda j: int(f"{j:0{bits}b}"[::-1], 2))
    return [picks[j] for j in order]


def _interleave(strata: list[list]) -> list:
    """Merge the strata so each is consumed at the same relative pace."""
    pos = [0] * len(strata)
    out = []
    for _ in range(sum(map(len, strata))):
        i = min(range(len(strata)), key=lambda s: ((pos[s] + 0.5) / len(strata[s]), s))
        out.append(strata[i][pos[i]])
        pos[i] += 1
    return out


def _candidates(workload, dim, bound, base_seed, length, seed):
    """(size, vertices) of a seeded corpus, sorted; returns the corpus seed too."""
    corpus_seed = base_seed + 1000 * seed
    polys = generate_corpus(dim, bound, OVERSAMPLE * length, corpus_seed)
    if workload == CORPUS_AUDIT:
        # the audit's time is dominated by the count scans up to k = 2n, which
        # test every facet inequality at every cell of the dilate's box
        def size(p):
            return len(p.facets) * sum(_box_cells(p.vertices, k) for k in range(1, 2 * dim + 1))
    else:
        # SNF and triangulation grow with the lattice points of P
        def size(p):
            return p.lattice_count(1)
    return sorted((size(p), p.vertices) for p in polys), corpus_seed


def reference_sizes(workload: str) -> list[list[int]]:
    """Per stratum, the size schedule: evenly spaced size quantiles of the
    default seed's corpus, in prefix-balanced order."""
    out = []
    for spec in CORPUS_STRATA[workload]:
        cands, _ = _candidates(workload, *spec, DEFAULT_SEED)
        out.append([size for size, _ in _prefix_balanced(cands, spec[-1])])
    return out


def _nearest_unused(sizes, used, target):
    """Index of the unused entry of the sorted ``sizes`` nearest to
    ``target`` in ratio; ties go to the smaller entry."""
    hi = bisect.bisect_left(sizes, target)
    lo = hi - 1
    while lo >= 0 and lo in used:
        lo -= 1
    while hi < len(sizes) and hi in used:
        hi += 1
    if hi == len(sizes) or (lo >= 0 and target / sizes[lo] <= sizes[hi] / target):
        return lo
    return hi


def _corpus_stratum(workload, spec, targets, seed):
    """The seed's candidate nearest in size to each entry of the schedule."""
    cands, corpus_seed = _candidates(workload, *spec, seed)
    sizes = [size for size, _ in cands]
    used = set()
    out = []
    for target in targets:
        i = _nearest_unused(sizes, used, target)
        used.add(i)
        out.append(Input(f"d{spec[0]}-b{spec[1]}-s{corpus_seed}-{i}", cands[i][1]))
    return out


def _registry_inputs() -> list[Input]:
    named = [(f"standard-simplex-{n}", standard_simplex_vertices(n)) for n in range(1, 6)]
    named += [
        ("example-3-5", nonspanning_dim4_vertices()),
        ("family-a1", family_vertices(1)),
        ("family-a2", family_vertices(2)),
        ("reflexive-simplex-3", reflexive_simplex_vertices()),
        ("square-2x2", square_2x2_vertices()),
    ]
    return [Input(name, tuple(map(tuple, verts))) for name, verts in named]


def _full_dimensional(points) -> bool:
    base = points[0]
    diffs = [tuple(x - b for x, b in zip(q, base)) for q in points[1:]]
    return rank(IntMatrix.from_rows(diffs)) == len(base)


def _cloud_stratum(rng, dim, coords, sizes, length):
    out = []
    while len(out) < length:
        m = sizes[len(out) % len(sizes)]
        pts = tuple(tuple(rng.randint(*coords) for _ in range(dim)) for _ in range(m))
        if _full_dimensional(pts):
            out.append(Input(f"cloud-d{dim}-m{m}-{len(out)}", pts))
    return out


def _unimodular(rng, dim):
    """A random product of shears with entries in {-1, 0, 1}: the image of a
    simplex is then at most twice as wide as the original on each axis, so
    its dilate scans stay as small as the clouds' instead of varying by
    orders of magnitude from seed to seed."""
    while True:
        u = [[int(i == j) for j in range(dim)] for i in range(dim)]
        for _ in range(dim):
            i, j = rng.sample(range(dim), 2)
            c = rng.choice((-1, 1))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        if all(abs(x) <= 1 for row in u for x in row):
            return u


def simplex_hstar(dim: int, k: int) -> tuple[int, ...]:
    """h* of the k-th dilate of a unimodular simplex, from the closed form
    L(t) = C(kt + n, n) of its lattice-point counts."""
    counts = [comb(k * t + dim, dim) for t in range(dim + 1)]
    return tuple(
        sum((-1) ** j * comb(dim + 1, j) * counts[i - j] for j in range(i + 1))
        for i in range(dim + 1)
    )


def _simplex_stratum(rng, dim, factors, length):
    out = []
    for idx in range(length):
        k = factors[idx % len(factors)]
        u = _unimodular(rng, dim)
        shift = [rng.randint(-3, 3) for _ in range(dim)]
        pts = [
            tuple(s + sum(u[r][c] * x[c] for c in range(dim)) for r, s in enumerate(shift))
            for x in itertools.product(range(k + 1), repeat=dim)
            if sum(x) <= k
        ]
        rng.shuffle(pts)
        out.append(Input(f"simplex-d{dim}-k{k}-{idx}", tuple(pts), simplex_hstar(dim, k)))
    return out


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def make_inputs(workload: str, seed: int) -> list[Input]:
    """The workload's input sequence for one seed; identical for equal seeds."""
    if workload in CORPUS_STRATA:
        schedule = load_reference()["sizes"][workload]
        strata = [
            _corpus_stratum(workload, spec, targets, seed)
            for spec, targets in zip(CORPUS_STRATA[workload], schedule)
        ]
        if workload == ANALYZE_DENSE:
            strata.append(_registry_inputs())
        return _interleave(strata)
    if workload == HULL_CLOUD:
        rng = random.Random(seed)
        strata = [_cloud_stratum(rng, *spec, HULL_STRATUM_LENGTH) for spec in CLOUD_STRATA]
        strata += [_simplex_stratum(rng, *spec, HULL_STRATUM_LENGTH) for spec in SIMPLEX_STRATA]
        return _interleave(strata)
    raise ValueError(f"unknown workload {workload!r}")


def preflight() -> None:
    """Replay every registry example; a failed check aborts the benchmark."""
    for key in REGISTRY_KEYS:
        bad = [detail for _, ok, detail in run_example(key) if not ok]
        if bad:
            raise SystemExit(f"registry pre-flight failed for {key}: {bad}")


# -- operations and their outputs ----------------------------------------------


def _hull_output(p, h) -> dict:
    return {
        "vertices": [list(v) for v in p.vertices],
        "discarded": len(p.discarded_points),
        "facets": [[list(f.normal), f.offset] for f in p.facets],
        "hstar": list(h.coeffs),
    }


def run_op(workload: str, points):
    """One untraced operation; returns its output in digestable form."""
    p = build_polytope(points)
    if workload == CORPUS_AUDIT:
        return audit_polytope(p)
    if workload == ANALYZE_DENSE:
        return json.dumps(build_report(p), sort_keys=True)
    return _hull_output(p, hstar(p))


def digest(output) -> str:
    text = output if isinstance(output, str) else json.dumps(output, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def refusal(workload: str, output) -> str | None:
    """Name of the refusal an output reports in place of a result, if any."""
    if workload == CORPUS_AUDIT and "skipped" in output.values():
        return "BudgetExceeded"
    return None


def check_output(workload: str, inp: Input, output) -> str | None:
    """A description of what is wrong with an output, or None if it is sound.

    Holds on every seed: every audited statement is a theorem, both
    Castelnuovo routes agree, the h* criterion is consistent, and a hull is a
    valid H-description of its input with the closed-form h* on simplices.
    """
    if workload == CORPUS_AUDIT:
        failed = sorted(name for name, outcome in output.items() if outcome == "fail")
        return f"failed audits {failed}" if failed else None
    if workload == ANALYZE_DENSE:
        report = json.loads(output)
        if not report["castelnuovo"]["routes_agree"]:
            return "Castelnuovo routes disagree"
        if not report["triangulation"]["betke_mcmullen_consistent"]:
            return "h* criterion inconsistent"
        return None
    points = set(inp.points)
    vertices = {tuple(v) for v in output["vertices"]}
    if not vertices <= points or len(vertices) + output["discarded"] != len(points):
        return "vertices are not the input's extreme points"
    dim = len(inp.points[0])
    for normal, offset in output["facets"]:
        values = [sum(a * x for a, x in zip(normal, q)) for q in points]
        if max(values) != offset or sum(
            sum(a * x for a, x in zip(normal, v)) == offset for v in vertices
        ) < dim:
            return f"facet {normal} <= {offset} does not support the input"
    if inp.expected_hstar is not None and tuple(output["hstar"]) != inp.expected_hstar:
        return f"h* {output['hstar']} != closed form {list(inp.expected_hstar)}"
    return None


# -- traced operation ------------------------------------------------------------

TIME_LAYERS = {
    "geometry.build": "geometry.build.time_s",
    "geometry.scan_count": "geometry.scan_count.time_s",
    "geometry.scan_collect": "geometry.scan_collect.time_s",
    "ehrhart.hstar": "ehrhart.hstar.time_s",
    "classification.spanning": "classification.spanning.time_s",
    "classification.idp": "classification.idp.time_s",
    "classification.castelnuovo": "classification.castelnuovo.time_s",
    "triangulation.pulling": "triangulation.pulling.time_s",
    "triangulation.h_vector": "triangulation.h_vector.time_s",
    "report": "report.self_time_s",
    "corpus.audit": "corpus.audit.self_time_s",
}

COUNTS = (
    "geometry.build.input_points",
    "geometry.build.discarded_points",
    "geometry.scan_count.dilates",
    "geometry.scan_count.box_cells",
    "geometry.scan_collect.points",
    "classification.spanning.snf_rows",
    "classification.idp.sumset_pairs",
    "triangulation.pulling.points",
    "triangulation.pulling.simplices",
)


class Trace:
    """Per-layer wall time and work counts, summed over traced operations."""

    def __init__(self):
        self.time = defaultdict(float)
        self.count = defaultdict(int)

    @contextmanager
    def span(self, layer: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.time[layer] += time.perf_counter() - start

    def count_scans(self, p, ks):
        self.count["geometry.scan_count.dilates"] += len(ks)
        self.count["geometry.scan_count.box_cells"] += sum(_box_cells(p.vertices, k) for k in ks)
        self.count["scan_count.closed_points"] += sum(p.lattice_count(k) for k in ks)


def idp_top(workload: str, dim: int, output) -> int:
    """The largest dilate the operation's IDP check reached (1: not called).

    Read from the untraced output of the same input, so the traced run
    collects exactly the dilates the real operation collects.
    """
    if workload == ANALYZE_DENSE:
        return json.loads(output)["idp"]["kmax_checked"]
    if workload == CORPUS_AUDIT and (
        output["castelnuovo_implies_idp"] != "inapplicable"
        or output["degree_two_idp"] != "inapplicable"
    ):
        return max(2, dim - 1)  # an IDP check that ran certified up to the cutoff
    return 1


def traced_op(workload: str, points, top_k: int, tr: Trace):
    """The operation split into its layers, called in dependency order.

    Each step finds its inputs already cached, so its span is that layer's
    own time. A step the workload's operation does not call still opens its
    span, which then records only the timer's own cost.
    """
    full = workload != HULL_CLOUD
    with tr.span("geometry.build"):
        p = build_polytope(points)
    tr.count["geometry.build.input_points"] += len(points)
    tr.count["geometry.build.discarded_points"] += len(p.discarded_points)
    n = p.dim

    ks = list(range(1, n + 1))
    with tr.span("geometry.scan_count"):
        for k in ks:
            p.lattice_count(k)
        # degree() looks for the first interior point up to dilate n+1
        if full and not any(p.interior_lattice_count(k) for k in ks):
            p.lattice_count(n + 1)
            ks.append(n + 1)
    tr.count_scans(p, ks)
    with tr.span("ehrhart.hstar"):
        h = hstar(p)
        if full:
            degree(p)

    collect = list(range(1, top_k + 1)) if full else []
    with tr.span("geometry.scan_collect"):
        for k in collect[:1]:
            p.lattice_points(k)
    with tr.span("classification.spanning"):
        if full:
            is_spanning(p)
            tr.count["classification.spanning.snf_rows"] += p.lattice_count(1) - 1
    with tr.span("geometry.scan_collect"):
        for k in collect[1:]:
            p.lattice_points(k)
    tr.count["geometry.scan_collect.points"] += sum(p.lattice_count(k) for k in collect)
    with tr.span("classification.idp"):
        if top_k >= 2:
            idp_check(p)
    for k in range(2, top_k + 1):
        tr.count["classification.idp.sumset_pairs"] += p.lattice_count(k - 1) * p.lattice_count(1)
        tr.count["idp.target_points"] += p.lattice_count(k)
    with tr.span("classification.castelnuovo"):
        if full:
            is_castelnuovo(p)
            is_castelnuovo_direct(p)
            genus_data(h)
            audit_bounds(p)
    with tr.span("triangulation.pulling"):
        t = pulling_triangulation(p) if full else None
    if t is not None:
        tr.count["triangulation.pulling.points"] += len(t.points)
        tr.count["triangulation.pulling.simplices"] += len(t.maximal_simplices)
    with tr.span("triangulation.h_vector"):
        if full:
            h_vector(t)
    if workload == CORPUS_AUDIT:
        late = [k for k in range(n + 1, 2 * n + 1) if k not in ks]
        with tr.span("geometry.scan_count"):
            for k in late:
                p.lattice_count(k)
        tr.count_scans(p, late)

    with tr.span("corpus.audit"):
        output = audit_polytope(p) if workload == CORPUS_AUDIT else None
    with tr.span("report"):
        if workload == ANALYZE_DENSE:
            output = json.dumps(build_report(p), sort_keys=True)
    if workload == HULL_CLOUD:
        with tr.span("ehrhart.hstar"):
            output = _hull_output(p, hstar(p))
    return output


def layer_metrics(tr: Trace, ops: int, traced_s: float, untraced_s: float) -> dict:
    c = tr.count
    values = {metric: tr.time[layer] / ops for layer, metric in TIME_LAYERS.items()}
    values.update({name: c[name] / ops for name in COUNTS})
    values["geometry.scan_count.hit_ratio"] = (
        c["scan_count.closed_points"] / c["geometry.scan_count.box_cells"]
    )
    pairs = c["classification.idp.sumset_pairs"]
    values["classification.idp.yield"] = c["idp.target_points"] / pairs if pairs else 0.0
    values["trace.overhead_ratio"] = traced_s / untraced_s
    return {
        name: {"value": v, "unit": _unit(name)} for name, v in sorted(values.items())
    }


def _unit(name: str) -> str:
    if name.endswith("time_s"):
        return "s"
    if name.endswith(("ratio", "yield")):
        return "ratio"
    return "count"


# -- timed runs ------------------------------------------------------------------


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    checked_digests: int = 0
    errors: Counter = field(default_factory=Counter)
    problems: list = field(default_factory=list)


def _attempt(workload, inp, index, expected_digests, tally):
    """Run one untraced operation, then check and account for its outcome.

    Returns the output, or None when the program raised or refused, and the
    operation's wall time, which leaves out the checks.
    """
    tally.attempted += 1
    start = time.perf_counter()
    try:
        output = run_op(workload, inp.points)
    except CastelpolyError as e:
        seconds = time.perf_counter() - start
        tally.failed += 1
        tally.errors[type(e).__name__] += 1
        return None, seconds
    seconds = time.perf_counter() - start
    refused = refusal(workload, output)
    if refused:
        tally.failed += 1
        tally.errors[refused] += 1
        return None, seconds
    problem = check_output(workload, inp, output)
    if expected_digests and problem is None:
        tally.checked_digests += 1
        if digest(output) != expected_digests[index % len(expected_digests)]:
            problem = "output digest differs from the stored default-seed digest"
    if problem:
        tally.wrong += 1
        tally.problems.append(f"{inp.label}: {problem}")
    return output, seconds


def set_up(workload: str, seed: int, reps: int):
    """Generate inputs, run the registry pre-flight and one warm-up operation,
    ``reps`` times; returns the inputs and the median set-up time."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        inputs = make_inputs(workload, seed)
        preflight()
        run_op(workload, inputs[0].points)
        times.append(time.perf_counter() - start)
    return inputs, statistics.median(times)


def measure(workload, inputs, seconds, min_ops, expected_digests):
    """Closed loop of untraced operations for ``seconds`` (and ``min_ops``)."""
    tally = Tally()
    latencies = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < min_ops:
        i = len(latencies)
        _, op_s = _attempt(workload, inputs[i % len(inputs)], i, expected_digests, tally)
        latencies.append(op_s)
    return tally, latencies


def measure_traced(workload, inputs, seconds, min_ops, expected_digests):
    """Each input once untraced and once traced; the traced output must equal
    the untraced one, so both did the same work."""
    tally = Tally()
    tr = Trace()
    traced_s = untraced_s = 0.0
    ops = 0
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds or i < min_ops:
        inp = inputs[i % len(inputs)]
        output, op_s = _attempt(workload, inp, i, expected_digests, tally)
        untraced_s += op_s
        i += 1
        if output is None:
            continue
        top_k = idp_top(workload, len(inp.points[0]), output)
        t = time.perf_counter()
        traced = traced_op(workload, inp.points, top_k, tr)
        traced_s += time.perf_counter() - t
        ops += 1
        if digest(traced) != digest(output):
            tally.wrong += 1
            tally.problems.append(f"{inp.label}: traced output differs from untraced output")
    return tally, layer_metrics(tr, max(ops, 1), traced_s, untraced_s)


def end_to_end_metrics(tally, latencies, setup_s, peak_rss_mb) -> dict:
    values = {
        "throughput_ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_p90_s": (statistics.quantiles(latencies, n=10)[8], "s"),
        "success_ratio": (1 - tally.failed / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

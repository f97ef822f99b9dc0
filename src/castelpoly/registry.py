"""Built-in example polytopes with their expected invariants.

Each entry rebuilds the polytope from vertex data, recomputes everything,
and compares against frozen expected values, so the registry doubles as a
self-test battery reachable from the command line.
"""

from __future__ import annotations

from .classification import (
    STATUS_COUNTEREXAMPLE,
    idp_check,
    is_castelnuovo,
    is_castelnuovo_direct,
    is_spanning,
    spanning_invariant_factors,
)
from .ehrhart import degree, hstar, normalized_volume
from .errors import UnknownExample
from .geometry import build_polytope
from .triangulation import is_unimodular, pulling_triangulation

REGISTRY_KEYS = (
    "standard-simplex-n",
    "example-3-5",
    "family-a",
    "reflexive-simplex-3",
    "square-2x2",
)


def _unit(i, n):
    return tuple(int(j == i) for j in range(n))


def standard_simplex_vertices(n):
    return [tuple([0] * n)] + [_unit(i, n) for i in range(n)]


def nonspanning_dim4_vertices():
    return [
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (1, 1, 0, 2),
        (1, 0, -1, 0),
    ]


def family_vertices(a):
    if a < 1:
        raise ValueError("family parameter a must be >= 1")
    n = 2 * a + 1
    pts = [tuple([0] * n)]
    pts += [_unit(i, n) for i in range(2 * a)]
    pts.append(tuple([1] * a + [2] * a + [3]))
    pts.append(tuple(0 if i < a + 1 else -1 for i in range(n)))
    return pts


def reflexive_simplex_vertices():
    return [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]


def square_2x2_vertices():
    return [(0, 0), (2, 0), (0, 2), (2, 2)]


def _check(label, got, expected):
    ok = got == expected
    detail = f"{label}: got {got!r}" + ("" if ok else f", expected {expected!r}")
    return (label, ok, detail)


def _checks_standard_simplex():
    out = []
    for n in range(1, 6):
        p = build_polytope(standard_simplex_vertices(n))
        out.append(_check(f"simplex-{n} h*", hstar(p).coeffs, (1,) + (0,) * n))
        out.append(_check(f"simplex-{n} volume", normalized_volume(p), 1))
        v = is_castelnuovo(p)
        d = is_castelnuovo_direct(p)
        out.append(
            _check(
                f"simplex-{n} castelnuovo by convention",
                (v.verdict, v.route, d.verdict, d.route),
                (True, "volume-one-convention", True, "volume-one-convention"),
            )
        )
    return out


def _checks_nonspanning_dim4():
    p = build_polytope(nonspanning_dim4_vertices())
    out = [
        _check("h*", hstar(p).coeffs, (1, 1, 1, 1, 0)),
        _check("degree", degree(p), 3),
        _check("volume", normalized_volume(p), 4),
        _check("lattice points", p.lattice_count(1), 6),
        _check("spanning", is_spanning(p), False),
        _check("invariant factors", spanning_invariant_factors(p), (1, 1, 1, 2)),
        _check("castelnuovo", is_castelnuovo(p).verdict, False),
        _check("castelnuovo direct", is_castelnuovo_direct(p).verdict, False),
    ]
    return out


def _checks_family(a):
    p = build_polytope(family_vertices(a))
    n = 2 * a + 1
    expected_h = (1,) + (1,) * a + (2,) + (0,) * a
    witness_point = tuple([1] * n)
    verdict = idp_check(p)
    out = [
        _check(f"a={a} h*", hstar(p).coeffs, expected_h),
        _check(f"a={a} degree", degree(p), a + 1),
        _check(f"a={a} lattice points", p.lattice_count(1), 2 * a + 3),
        _check(f"a={a} spanning", is_spanning(p), True),
        _check(f"a={a} idp status", verdict.status, STATUS_COUNTEREXAMPLE),
        _check(f"a={a} idp witness", verdict.witness, (a + 1, witness_point)),
        _check(f"a={a} castelnuovo", is_castelnuovo(p).verdict, False),
        _check(f"a={a} castelnuovo direct", is_castelnuovo_direct(p).verdict, False),
    ]
    return out


def _checks_reflexive_simplex():
    p = build_polytope(reflexive_simplex_vertices())
    out = [
        _check("h*", hstar(p).coeffs, (1, 1, 1, 1)),
        _check("interior points", sorted(p.interior_lattice_points(1)), [(0, 0, 0)]),
        _check("castelnuovo", is_castelnuovo(p).verdict, True),
        _check("castelnuovo direct", is_castelnuovo_direct(p).verdict, True),
        _check("unimodular pulling", is_unimodular(pulling_triangulation(p)), True),
    ]
    return out


def _checks_square_2x2():
    from .classification import genus_data

    p = build_polytope(square_2x2_vertices())
    g = genus_data(hstar(p))
    out = [
        _check("h*", hstar(p).coeffs, (1, 6, 1)),
        _check("genus data", (g.genus, g.delta, g.m, g.bound), (1, 1, 1, 1)),
        _check("castelnuovo", is_castelnuovo(p).verdict, True),
        _check("castelnuovo direct", is_castelnuovo_direct(p).verdict, True),
        _check("idp", idp_check(p).status, "certified-idp"),
    ]
    return out


def run_example(name: str, a: int | None = None) -> list[tuple[str, bool, str]]:
    """Run one registry entry; returns (label, passed, detail) triples."""
    if name == "standard-simplex-n":
        return _checks_standard_simplex()
    if name == "example-3-5":
        return _checks_nonspanning_dim4()
    if name == "family-a":
        params = [a] if a is not None else [1, 2]
        out = []
        for val in params:
            out.extend(_checks_family(val))
        return out
    if name == "reflexive-simplex-3":
        return _checks_reflexive_simplex()
    if name == "square-2x2":
        return _checks_square_2x2()
    raise UnknownExample(f"unknown example {name!r}; known: {', '.join(REGISTRY_KEYS)}")

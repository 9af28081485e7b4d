"""The per-call H^3_ab builder, kept as a test oracle.

`pointedcat.cocycles.classify_h3ab` builds the pentagon and hexagon
identities and the coboundary rows once per group, as integer rows, checks
the coboundaries over Z, and only reduces the rows mod N on each call
(`_h3ab_system`).  This is the builder it replaced: every call builds the
identities and the coboundary generators already reduced mod N, and checks
every generator against every equation mod N.  The elimination, the closure
and the representatives are those of `classify_h3ab`, on the same engine.
`tests/test_shared_h3ab.py` compares the two on every group and value order
that `classify_h3ab` accepts.
"""

from __future__ import annotations

import itertools

from pointedcat.cocycles import AbelianCocycle, CocycleClass, trace_form
from pointedcat.errors import ConventionError
from pointedcat.groups import (
    AbelianGroup,
    addition_table,
    dense_rows,
    howell_size,
    sparse_howell_form,
    sparse_howell_kernel,
    _pivots,
    _reduce,
)


def check_coboundaries(generators, equations, diagonal, n: int) -> None:
    """Every coboundary generator, a sparse row, must satisfy every equation
    mod n and vanish on the diagonal columns, where omega(x, x) sits."""
    uses: dict[int, list[tuple[int, int]]] = {}  # column -> (equation, coeff)
    for e, eq in enumerate(equations):
        for i, k in eq:
            uses.setdefault(i, []).append((e, k))
    for gen in generators:
        sums: dict[int, int] = {}
        for i, x in gen.items():
            for e, k in uses.get(i, ()):
                sums[e] = sums.get(e, 0) + k * x
        if any(s % n for s in sums.values()):
            raise ConventionError("a coboundary violates the pentagon or hexagons")
        if any(i in gen for i in diagonal):
            raise ConventionError("a coboundary moves the trace form")


def system(group: AbelianGroup, n: int):
    """(triples, pairs, equations, generators) of one call: the equations as
    sorted (column, residue) tuples, deduplicated, and one generator dict per
    pair, both mod n and checked mod n."""
    size, table = group.order, addition_table(group)
    nonzero = range(1, size)
    triples = list(itertools.product(nonzero, repeat=3))
    pairs = list(itertools.product(nonzero, repeat=2))
    add = [table[x * size:(x + 1) * size] for x in range(size)]
    psi_at = [[[None] * size for _ in range(size)] for _ in range(size)]
    omega_at = [[None] * size for _ in range(size)]
    for i, (a, b, c) in enumerate(triples):
        psi_at[a][b][c] = i
    for i, (a, b) in enumerate(pairs, len(triples)):
        omega_at[a][b] = i

    def sparse(*terms) -> tuple[tuple[int, int], ...]:
        vec: dict[int, int] = {}
        for coeff, i in terms:
            if i is not None:
                vec[i] = vec.get(i, 0) + coeff
        return tuple(sorted((i, k % n) for i, k in vec.items() if k % n))

    equations = set()
    for a, b, c, d in itertools.product(nonzero, repeat=4):
        equations.add(sparse(
            (1, psi_at[b][c][d]), (1, psi_at[a][add[b][c]][d]), (1, psi_at[a][b][c]),
            (-1, psi_at[add[a][b]][c][d]), (-1, psi_at[a][b][add[c][d]]),
        ))
    for a, b, c in triples:
        equations.add(sparse(  # H1
            (1, omega_at[a][add[b][c]]), (-1, omega_at[a][b]), (-1, omega_at[a][c]),
            (1, psi_at[a][b][c]), (-1, psi_at[b][a][c]), (1, psi_at[b][c][a]),
        ))
        equations.add(sparse(  # H2
            (1, omega_at[add[a][b]][c]), (-1, omega_at[a][c]), (-1, omega_at[b][c]),
            (-1, psi_at[a][b][c]), (1, psi_at[a][c][b]), (-1, psi_at[c][a][b]),
        ))
    equations.discard(())
    equations = sorted(equations)

    deltas: dict[int, dict[int, int]] = {omega_at[a][b]: {} for a, b in pairs}

    def bump(pair, i: int, coeff: int) -> None:
        if pair is not None:
            delta = deltas[pair]
            delta[i] = delta.get(i, 0) + coeff

    for i, (a, b, c) in enumerate(triples):
        bump(omega_at[b][c], i, 1)
        bump(omega_at[a][add[b][c]], i, 1)
        bump(omega_at[add[a][b]][c], i, -1)
        bump(omega_at[a][b], i, -1)
    for i, (a, b) in enumerate(pairs, len(triples)):
        bump(omega_at[b][a], i, 1)
        bump(omega_at[a][b], i, -1)
    generators = [{i: k % n for i, k in delta.items() if k % n} for delta in deltas.values()]
    check_coboundaries(generators, equations, [omega_at[x][x] for x in nonzero], n)
    return triples, pairs, equations, generators


def classify_h3ab(group: AbelianGroup, n: int) -> list[CocycleClass]:
    """``pointedcat.cocycles.classify_h3ab`` on the per-call ``system``; the
    bounds are left to the caller."""
    size = group.order
    triples, pairs, equations, generators = system(group, n)
    width = len(triples) + len(pairs)
    cocycles = dense_rows(sparse_howell_kernel(equations, width, n), width)
    coboundaries = dense_rows(sparse_howell_form((gen.items() for gen in generators), n), width)
    pivots = _pivots(coboundaries, n)

    def reduce(vec) -> tuple[int, ...]:
        return tuple(_reduce(vec, coboundaries, pivots, n))

    zero = (0,) * width
    reps = {zero}
    for z in sorted({reduce(z) for z in cocycles} - reps):
        for rep in list(reps):
            nxt = reduce([x + y for x, y in zip(rep, z)])
            while nxt not in reps:
                reps.add(nxt)
                nxt = reduce([x + y for x, y in zip(nxt, z)])

    orbit_size = howell_size(coboundaries, n)
    if len(reps) * orbit_size != howell_size(cocycles, n):
        raise ConventionError("classes do not tile the cocycles")

    psi_slots = [(a * size + b) * size + c for a, b, c in triples]
    omega_slots = [a * size + b for a, b in pairs]
    classes = []
    for vec in reps:
        psi, omega = [0] * size**3, [0] * size**2
        for pos, k in zip(psi_slots, vec):
            psi[pos] = k
        for pos, k in zip(omega_slots, vec[len(triples):]):
            omega[pos] = k
        rep = AbelianCocycle(group, n, psi, omega)
        classes.append(CocycleClass(rep, trace_form(rep), orbit_size))
    forms = [tuple((v.order, v.exponent) for v in cls.form.values) for cls in classes]
    if len(set(forms)) != len(forms):
        raise ConventionError("two coboundary orbits share one trace form")
    return [classes[i] for i in sorted(range(len(classes)), key=lambda i: forms[i])]

"""The level-2 layer derived form by form, kept as a test oracle.

This is how `pointedcat.brmod` built the level-2 layer before the work that
reads only the transparent subgroup T was kept per T: every character of G
restricted to T, the first one per restriction taken as the class's lift,
the S2 rows read from that form's own lifts, and the orthogonality
certificate and both verifiers run afresh on every call.
`tests/test_shared_level2.py` compares the shared layer with all of it.
"""

from __future__ import annotations

from pointedcat.cyclotomic import _is_group, _poly_divmod_exact, cyclotomic_polynomial
from pointedcat.errors import InternalInconsistency, LiftNotFound
from pointedcat.groups import characters, cyclic_presentation, restrict
from pointedcat.metric import mueger_center


def schur_classes(base):
    """[(restricted character, lift)] in the presented T's character order."""
    center = mueger_center(base)
    lift_of = {}
    for chi in characters(base.group):
        lift_of.setdefault(restrict(chi, center).coords, chi)
    out = []
    for target in characters(cyclic_presentation(center).group):
        lift = lift_of.get(target.coords)
        if lift is None:
            raise LiftNotFound(f"no character of G restricts to {target.coords}")
        out.append((target, lift))
    return out


def smatrix_rows(base):
    """Row i is class i's lift read at the transparent elements."""
    cols = mueger_center(base).elements
    return tuple(tuple(lift.exponents(cols)) for _, lift in schur_classes(base))


def root_sum(exponents, n: int) -> list[int]:
    """sum_k z_n^k over the exponents k: their histogram's remainder under
    long division by Phi_n, apart from the power table ``cyclotomic.root_sum``
    reads."""
    histogram = [0] * n
    for k in exponents:
        histogram[k] += 1
    return _poly_divmod_exact(histogram, cyclotomic_polynomial(n))[1]


def orthogonality_rank(rows, conductor: int) -> int:
    if _is_group(rows, conductor) and all(
        root_sum(a, conductor) == ([len(a)] if not any(a) else []) for a in rows
    ):
        return len(rows)
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            total = root_sum([(x - y) % conductor for x, y in zip(a, rows[j])], conductor)
            want = [len(a)] if i == j else []
            if total != want:
                raise InternalInconsistency(
                    f"level-2 S-matrix rows {i} and {j} pair to {total}, not {want}"
                )
    raise InternalInconsistency(
        "level-2 S-matrix rows are orthogonal but not a group of characters"
    )


def verify_character_table(base, rows, cols) -> bool:
    pres = cyclic_presentation(mueger_center(base))
    chars = characters(pres.group)
    if len(rows) != len(chars):
        return False
    scale = base.group.exponent // pres.group.exponent
    coords = [pres.from_parent(g) for g in cols]
    return all(
        list(row) == [k * scale for k in chi.exponents(coords)]
        for row, chi in zip(rows, chars)
    )


def verify_group_hom(base, rows, restricted) -> bool:
    e = base.group.exponent
    pres_group = restricted[0].parent
    index_of = {chi.coords: i for i, chi in enumerate(restricted)}
    for i, a in enumerate(restricted):
        for j, b in enumerate(restricted):
            k = index_of[pres_group.add(a.coords, b.coords)]
            if any((x + y - z) % e for x, y, z in zip(rows[i], rows[j], rows[k])):
                return False
    return True

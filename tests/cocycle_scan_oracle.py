"""Scan oracle for the cocycle conditions: products of RootOfUnity objects.

These are the pentagon, hexagon and normalization scans that the integer
exponent kernels in pointedcat.cocycles replaced, kept as they were (the
only change: they take the cocycle as an argument and never read its kept
results).  They serve to cross-check the kernels' verdicts and witnesses.
"""

import itertools


def normalization_witness(c):
    """First table entry violating normalization, or None."""
    zero = c.group.zero
    elems = c.group.elements()
    for a in elems:
        if not c.omega_at(a, zero).is_one:
            return ("omega", (a, zero))
        if not c.omega_at(zero, a).is_one:
            return ("omega", (zero, a))
        for b in elems:
            for triple in ((zero, a, b), (a, zero, b), (a, b, zero)):
                if not c.psi_at(*triple).is_one:
                    return ("psi", triple)
    return None


def check_pentagon(c):
    """psi(b,c,d) psi(a,b+c,d) psi(a,b,c) = psi(a+b,c,d) psi(a,b,c+d) on all quadruples."""
    g = c.group
    if all(v.is_one for v in c.psi):
        return True, None
    elems = g.elements()
    if normalization_witness(c) is None:
        elems = [x for x in elems if x != g.zero]
    for a, b, cc, d in itertools.product(elems, repeat=4):
        lhs = c.psi_at(b, cc, d) * c.psi_at(a, g.add(b, cc), d) * c.psi_at(a, b, cc)
        rhs = c.psi_at(g.add(a, b), cc, d) * c.psi_at(a, b, g.add(cc, d))
        if lhs != rhs:
            return False, (a, b, cc, d)
    return True, None


def check_hexagons(c):
    """Both hexagon identities relating omega to psi; witness is ("H1"|"H2", triple)."""
    g = c.group
    elems = g.elements()
    if normalization_witness(c) is None:
        elems = [x for x in elems if x != g.zero]
    for a, b, cc in itertools.product(elems, repeat=3):
        h1 = (
            c.omega_at(a, b)
            * c.omega_at(a, cc)
            * c.psi_at(a, b, cc).inv()
            * c.psi_at(b, a, cc)
            * c.psi_at(b, cc, a).inv()
        )
        if c.omega_at(a, g.add(b, cc)) != h1:
            return False, ("H1", (a, b, cc))
        h2 = (
            c.omega_at(a, cc)
            * c.omega_at(b, cc)
            * c.psi_at(a, b, cc)
            * c.psi_at(a, cc, b).inv()
            * c.psi_at(cc, a, b)
        )
        if c.omega_at(g.add(a, b), cc) != h2:
            return False, ("H2", (a, b, cc))
    return True, None

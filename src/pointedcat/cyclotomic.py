"""Exact arithmetic in cyclotomic fields Q(zeta_N) and exact linear algebra.

A ``CycloNumber`` is a dense vector of rationals in the power basis
1, zeta, ..., zeta^(phi(N)-1) of Q[x]/Phi_N(x), so equality at a fixed
conductor is coefficient-wise and every invertibility question is decided
without floating point.  Mixed-conductor arithmetic promotes both operands
to the lcm conductor, capped at 10080.  Phi_N is monic with integer
coefficients, so the coefficients stay Python ints through sums, products,
promotion and conjugation; ``Fraction`` (and the ``fractions`` import) comes
in only with a field division (``inv``) or a non-integer ``from_rational``.

Roots of unity get their own canonical type: ``RootOfUnity(order, exponent)``
means e^(2*pi*i*exponent/order), stored with gcd(exponent, order) = 1 so the
order field is the true multiplicative order.  The literal syntax "zN^k"
(with "1" and "-1" as aliases) is used module-wide and in all file formats.

Matrix ranks are certified.  A table of roots is kept as its exponents mod
N; when its distinct rows form a group of characters, orthogonality proves
the rank with one exact row sum per row.  Otherwise elimination modulo primes
p = 1 (mod N) gives a lower bound that must meet an exact upper bound
(distinct rows and columns): a root table on its exponents (z_N^k -> w^k mod
p), any other matrix on its power-basis coefficients.  Exact Bareiss
elimination is the last resort.  Determinants stay exact.

>>> cyclotomic_polynomial(12)
(1, 0, -1, 0, 1)
>>> (root_of_unity(4, 1) * root_of_unity(4, 1)) == root_of_unity(2, 1)
True
"""

from __future__ import annotations

import math
from functools import lru_cache

from ._value import Value, setfield
from .errors import (
    ConductorCapExceeded,
    ConductorMismatch,
    DivisionByZero,
    NotSquare,
    ParseError,
)

MAX_CONDUCTOR = 10080


def _common_conductor(a: int, b: int) -> int:
    """lcm(a, b), refused above MAX_CONDUCTOR; equal conductors promote nothing."""
    if a == b:
        return a
    target = math.lcm(a, b)
    if target > MAX_CONDUCTOR:
        raise ConductorCapExceeded(
            f"conductor lcm({a}, {b}) = {target} exceeds the cap {MAX_CONDUCTOR}"
        )
    return target


# ----------------------------------------------------------------------
# Integer / rational polynomial helpers (dense, ascending degree).
# ----------------------------------------------------------------------

def _trim(coeffs):
    end = len(coeffs)
    while end > 0 and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return _trim(out)


def _poly_divmod_exact(num, den):
    """Quotient and remainder of integer polynomials with monic divisor, by
    long division from the top degree down over the divisor's nonzero terms."""
    assert den and den[-1] == 1, "divisor must be monic"
    num = list(num)
    deg = len(den) - 1
    terms = [(i, c) for i, c in enumerate(den[:-1]) if c]
    q = [0] * max(len(num) - deg, 0)
    for shift in range(len(q) - 1, -1, -1):
        lead = num[shift + deg]
        if lead:
            q[shift] = lead
            for i, c in terms:
                num[shift + i] -= lead * c
    return _trim(q), _trim(num[:deg])


def euler_phi(n: int) -> int:
    assert n >= 1
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """The n-th cyclotomic polynomial Phi_n as ascending integer coefficients.

    Computed by dividing x^n - 1 by Phi_d for every proper divisor d of n;
    monic of degree phi(n).

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    """
    if n < 1:
        raise ParseError(f"conductor must be >= 1, got {n}")
    num = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in divisors(n):
        if d == n:
            continue
        num, rem = _poly_divmod_exact(num, list(cyclotomic_polynomial(d)))
        assert not rem
    assert len(num) - 1 == euler_phi(n) and num[-1] == 1
    return tuple(num)


@lru_cache(maxsize=None)
def _high_powers(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Entry k - phi(n) is x^k mod Phi_n for phi(n) <= k < n, as the (degree,
    coefficient) pairs of its nonzero terms.  Each is x times the one before,
    its x^phi(n) term rewritten as x^phi(n) - Phi_n.  Phi_n(x) is
    Phi_rad(n)(x^(n / rad(n))), so each has at most phi(rad(n)) terms."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    low = [(j, -c) for j, c in enumerate(phi[:-1]) if c]
    rows, power = [], dict(low)
    for _ in range(deg, n):
        rows.append(tuple(power.items()))
        top = power.pop(deg - 1, 0)
        power = {j + 1: c for j, c in power.items()}
        if top:
            for j, c in low:
                c = power.get(j, 0) + top * c
                if c:
                    power[j] = c
                else:
                    del power[j]
    return tuple(rows)


def root_sum(exponents, n: int) -> list[int]:
    """sum_k z_n^k over the exponents k (each in range(n)), exactly: the
    histogram of the exponents, as a polynomial in z_n, reduced modulo Phi_n
    by adding count * (x^k mod Phi_n) from ``_high_powers`` for each k of
    degree phi(n) or more.  Integer power-basis coefficients, trimmed: [] is
    0 and [c] the rational c."""
    histogram = [0] * n
    for k in exponents:
        histogram[k] += 1
    high = _high_powers(n)
    deg = n - len(high)
    out = histogram[:deg]
    for count, power in zip(histogram[deg:], high):
        if count:
            for j, c in power:
                out[j] += count * c
    return _trim(out)


def _is_group(rows, conductor: int) -> bool:
    """Whether the rows are distinct and form a group under addition mod N.
    It is grown from the zero row as ``groups._span`` grows a subgroup: by
    each row g outside the span H so far, through the cosets H + k g up to
    the first k g back in the span, and every sum met must be a row.  Then
    the span is exactly the set of rows."""
    members = set(rows)
    span = {(0,) * len(rows[0])}
    if len(members) != len(rows) or not span <= members:
        return False
    for row in rows:
        below, step = tuple(span), row
        while step not in span:
            coset = {tuple((x + y) % conductor for x, y in zip(step, h)) for h in below}
            if not coset <= members:
                return False
            span |= coset
            step = tuple((x + y) % conductor for x, y in zip(step, row))
    return True


def orthogonality_rank(rows, n: int) -> int | None:
    """The rank of the table of roots z_n^a over its distinct exponent rows a
    (each entry in range(n)), proved by character orthogonality, or None.

    Entry (i, j) of S S^H is sum_g z_n^(a_ig - a_jg).  When the rows form a
    group under addition mod n (``_is_group``), a_i - a_j is the row a_k, so
    entry (i, j) is the row sum of a_k.  One exact ``root_sum`` per row must
    give the width at the zero row and 0 elsewhere; then S S^H = width Id and
    the rank is the number of rows.  None when the rows are not a group or a
    row sum is not 0.
    """
    if _is_group(rows, n) and all(
        root_sum(a, n) == ([len(a)] if not any(a) else []) for a in rows
    ):
        return len(rows)
    return None


def _reduce_mod_phi(coeffs: list, n: int) -> tuple:
    """Reduce a rational polynomial in zeta_n modulo Phi_n; fixed length phi(n).
    Phi_n is monic with integer coefficients, so integers stay integers."""
    phi = cyclotomic_polynomial(n)
    deg = len(phi) - 1
    work = list(coeffs)
    for i in range(len(work) - 1, deg - 1, -1):
        lead = work[i]
        if lead:
            shift = i - deg
            for j in range(len(phi)):
                work[shift + j] -= lead * phi[j]
        work.pop()
    while len(work) < deg:
        work.append(0)
    return tuple(work)


# ----------------------------------------------------------------------
# Roots of unity.
# ----------------------------------------------------------------------

class RootOfUnity(Value):
    """e^(2*pi*i*exponent/order) in lowest terms; (1, 0) is the value 1."""

    __slots__ = _fields = ("order", "exponent")

    def __init__(self, order: int, exponent: int):
        setfield(self, "order", order)
        setfield(self, "exponent", exponent)
        if order < 1 or not 0 <= exponent < order:
            raise ParseError(f"root of unity out of range: {self}")
        if math.gcd(exponent, order) != 1 and order != 1:
            raise ParseError(f"root of unity not in canonical form: {self}")

    def __eq__(self, other):
        if other.__class__ is not RootOfUnity:
            return NotImplemented
        return self.order == other.order and self.exponent == other.exponent

    def __hash__(self) -> int:
        return hash((self.order, self.exponent))

    def __mul__(self, other: "RootOfUnity") -> "RootOfUnity":
        n = math.lcm(self.order, other.order)
        k = (self.exponent * (n // self.order) + other.exponent * (n // other.order)) % n
        return root_of_unity(n, k)

    def __pow__(self, m: int) -> "RootOfUnity":
        return root_of_unity(self.order, (self.exponent * m) % self.order)

    def inv(self) -> "RootOfUnity":
        return root_of_unity(self.order, (-self.exponent) % self.order)

    @property
    def is_one(self) -> bool:
        return self.order == 1

    def __str__(self) -> str:
        return format_root(self)


def root_of_unity(order: int, exponent: int) -> RootOfUnity:
    """Canonical root e^(2*pi*i*exponent/order); reduces (order, exponent) by gcd."""
    if order < 1:
        raise ParseError(f"order must be positive, got {order}")
    exponent %= order
    g = math.gcd(exponent, order)
    if exponent == 0:
        return RootOfUnity(1, 0)
    return RootOfUnity(order // g, exponent // g)


ONE = root_of_unity(1, 0)
MINUS_ONE = root_of_unity(2, 1)


@lru_cache(maxsize=None)
def roots_of_unity(n: int) -> tuple[RootOfUnity, ...]:
    """Entry k is z_n^k: turns exponents mod n into roots without arithmetic.
    Refused above MAX_CONDUCTOR, before the table is built."""
    if n > MAX_CONDUCTOR:
        raise ConductorCapExceeded(f"conductor {n} exceeds the cap {MAX_CONDUCTOR}")
    return tuple(root_of_unity(n, k) for k in range(n))


def parse_int(text: str) -> int:
    """A decimal integer: ASCII digits after an optional "-", else ValueError.
    int() alone also takes "+", "_", spaces and the digits of other scripts."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


def parse_root(text: str) -> RootOfUnity:
    """Parse the literal syntax "zN^k"; "1" and "-1" are accepted aliases."""
    s = text.strip()
    if s == "1":
        return ONE
    if s == "-1":
        return MINUS_ONE
    if s.startswith("z") and "^" in s:
        head, _, tail = s[1:].partition("^")
        try:
            return root_of_unity(parse_int(head), parse_int(tail))
        except ValueError:
            pass
    raise ParseError(f"cannot parse root-of-unity literal {text!r}")


def format_root(r: RootOfUnity) -> str:
    if r == ONE:
        return "1"
    if r == MINUS_ONE:
        return "-1"
    return f"z{r.order}^{r.exponent}"


# ----------------------------------------------------------------------
# Cyclotomic numbers.
# ----------------------------------------------------------------------

class CycloNumber(Value):
    """Element of Q(zeta_conductor) in the Phi-reduced power basis.

    Coefficients are ints, or Fractions once a division has made them; the
    two compare, hash and print alike at equal values."""

    __slots__ = _fields = ("conductor", "coeffs")

    __hash__ = None  # equality promotes conductors, so hashing is unsafe

    def __init__(self, conductor: int, coeffs: tuple):
        setfield(self, "conductor", conductor)
        setfield(self, "coeffs", coeffs)
        assert len(coeffs) == euler_phi(conductor)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_rational(value, conductor: int = 1) -> "CycloNumber":
        if type(value) is not int:
            from fractions import Fraction  # only a non-integer needs it

            value = Fraction(value)
        return CycloNumber(conductor, (value,) + (0,) * (euler_phi(conductor) - 1))

    @staticmethod
    def zero(conductor: int = 1) -> "CycloNumber":
        return CycloNumber.from_rational(0, conductor)

    @staticmethod
    def one(conductor: int = 1) -> "CycloNumber":
        return CycloNumber.from_rational(1, conductor)

    # -- representation -------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def promote(self, target: int) -> "CycloNumber":
        """Rewrite at a larger conductor; target must be a multiple of ours."""
        if target == self.conductor:
            return self
        if target % self.conductor != 0:
            raise ConductorMismatch(
                f"cannot promote conductor {self.conductor} into {target}"
            )
        step = target // self.conductor
        out = [0] * (len(self.coeffs) * step)
        for i, c in enumerate(self.coeffs):
            out[i * step] = c
        return CycloNumber(target, _reduce_mod_phi(out, target))

    # -- field operations ------------------------------------------------

    def _with(self, other: "CycloNumber"):
        n = _common_conductor(self.conductor, other.conductor)
        return self.promote(n), other.promote(n)

    def __add__(self, other: "CycloNumber") -> "CycloNumber":
        a, b = self._with(other)
        return CycloNumber(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other: "CycloNumber") -> "CycloNumber":
        return self + (-other)

    def __neg__(self) -> "CycloNumber":
        return CycloNumber(self.conductor, tuple(-c for c in self.coeffs))

    def __mul__(self, other: "CycloNumber") -> "CycloNumber":
        a, b = self._with(other)
        prod = _poly_mul(list(a.coeffs), list(b.coeffs))
        return CycloNumber(a.conductor, _reduce_mod_phi(prod, a.conductor))

    def inv(self) -> "CycloNumber":
        """Multiplicative inverse via the extended Euclidean algorithm in Q[x]."""
        if self.is_zero:
            raise DivisionByZero("inverse of zero in a cyclotomic field")
        u = _poly_inverse_mod(self.coeffs, cyclotomic_polynomial(self.conductor))
        return CycloNumber(self.conductor, _reduce_mod_phi(u, self.conductor))

    def __truediv__(self, other: "CycloNumber") -> "CycloNumber":
        return self * other.inv()

    def __pow__(self, m: int) -> "CycloNumber":
        if m < 0:
            return self.inv() ** (-m)
        result = CycloNumber.one(self.conductor)
        base = self
        while m:
            if m & 1:
                result = result * base
            base = base * base
            m >>= 1
        return result

    def conj(self) -> "CycloNumber":
        """Complex conjugation, the Galois map zeta -> zeta^(-1)."""
        n = self.conductor
        acc = [0] * euler_phi(n)
        for j, c in enumerate(self.coeffs):
            if c == 0:
                continue
            power = _root_powers(n)[(-j) % n]
            for i, p in enumerate(power):
                acc[i] += c * p
        return CycloNumber(n, tuple(acc))

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloNumber):
            return NotImplemented
        a, b = self._with(other)
        return a.coeffs == b.coeffs

    def __repr__(self) -> str:
        return f"CycloNumber({self.conductor}, {[str(c) for c in self.coeffs]})"


def _poly_inverse_mod(a, modulus) -> list:
    """u with u*a = 1 mod modulus, for gcd(a, modulus) = 1 in Q[x]; the
    quotients leave Z, so this is where Fractions are made."""
    from fractions import Fraction

    def degree(p):
        d = len(p) - 1
        while d >= 0 and p[d] == 0:
            d -= 1
        return d

    def divmod_frac(num, den):
        num = list(num)
        dd = degree(den)
        q = [Fraction(0)] * max(degree(num) - dd + 1, 1)
        while degree(num) >= dd:
            shift = degree(num) - dd
            factor = num[degree(num)] / den[dd]
            q[shift] += factor
            for i in range(dd + 1):
                num[shift + i] -= factor * den[i]
        return q, num

    r0, r1 = [Fraction(c) for c in modulus], [Fraction(c) for c in a]
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while degree(r1) > 0:
        q, r = divmod_frac(r0, r1)
        r0, r1 = r1, r
        qs = _poly_mul(q, s1)
        s_new = [Fraction(0)] * max(len(s0), len(qs))
        for i, c in enumerate(s0):
            s_new[i] += c
        for i, c in enumerate(qs):
            s_new[i] -= c
        s0, s1 = s1, s_new
    lead = r1[degree(r1)]
    assert degree(r1) == 0 and lead != 0, "element not invertible mod Phi_N"
    return [c / lead for c in s1]


@lru_cache(maxsize=None)
def _root_powers(n: int) -> tuple[tuple[int, ...], ...]:
    """Reduced coordinates of zeta_n^k for k = 0..n-1, all integers."""
    deg = euler_phi(n)
    powers = []
    current = [1] + [0] * (deg - 1)
    for _ in range(n):
        powers.append(tuple(current))
        shifted = [0] + list(current)
        current = list(_reduce_mod_phi(shifted, n))
    return tuple(powers)


def embed(r: RootOfUnity, target_conductor: int) -> CycloNumber:
    """The root as a CycloNumber at target_conductor; its order must divide it."""
    if target_conductor % r.order != 0:
        raise ConductorMismatch(
            f"order {r.order} does not divide target conductor {target_conductor}"
        )
    k = r.exponent * (target_conductor // r.order)
    return CycloNumber(target_conductor, _root_powers(target_conductor)[k % target_conductor])


# ----------------------------------------------------------------------
# Matrices.
# ----------------------------------------------------------------------

class CycloMatrix(Value):
    """Row-major matrix of CycloNumbers sharing one conductor.

    A table of roots (``from_roots``) keeps only its exponents mod the
    conductor N, row-major in ``exponents``; its ``entries`` are built on
    first read.  Other matrices hold their entries and no exponents."""

    __slots__ = ("rows", "cols", "conductor", "exponents", "_entries")
    _fields = ("rows", "cols", "entries")

    __hash__ = None

    def __init__(self, rows: int, cols: int, entries: tuple[CycloNumber, ...]):
        assert rows >= 1 and cols >= 1
        assert len(entries) == rows * cols
        assert len({e.conductor for e in entries}) == 1
        setfield(self, "rows", rows)
        setfield(self, "cols", cols)
        setfield(self, "conductor", entries[0].conductor)
        setfield(self, "exponents", None)
        setfield(self, "_entries", entries)

    @property
    def entries(self) -> tuple[CycloNumber, ...]:
        if self._entries is None:
            n, powers = self.conductor, _root_powers(self.conductor)
            setfield(self, "_entries", tuple(CycloNumber(n, powers[k]) for k in self.exponents))
        return self._entries

    @staticmethod
    def from_rows(rows: list[list[CycloNumber]]) -> "CycloMatrix":
        nrows = len(rows)
        ncols = len(rows[0])
        assert all(len(r) == ncols for r in rows)
        conductor = 1
        for row in rows:
            for e in row:
                conductor = _common_conductor(conductor, e.conductor)
        flat = tuple(e.promote(conductor) for row in rows for e in row)
        return CycloMatrix(nrows, ncols, flat)

    @staticmethod
    def from_roots(rows) -> "CycloMatrix":
        """The matrix of a table of roots, at the lcm N of their orders, kept
        as the exponents k of z_N^k (``from_exponents``)."""
        ncols = len(rows[0])
        assert all(len(row) == ncols for row in rows)
        conductor = math.lcm(*(r.order for row in rows for r in row))
        return CycloMatrix.from_exponents(ncols, conductor, (
            r.exponent * (conductor // r.order) for row in rows for r in row
        ))

    @staticmethod
    def from_exponents(ncols: int, conductor: int, exponents) -> "CycloMatrix":
        """The matrix of roots z_N^k from their exponents k mod N (row-major,
        ``ncols`` per row), refused above MAX_CONDUCTOR before an exponent
        is read.  N and every k are divided by their gcd, so N is the lcm of
        the roots' orders, as ``from_roots`` has it."""
        if conductor > MAX_CONDUCTOR:
            raise ConductorCapExceeded(
                f"conductor {conductor} exceeds the cap {MAX_CONDUCTOR}"
            )
        exponents = tuple(exponents)
        assert ncols >= 1 and exponents and len(exponents) % ncols == 0
        common = math.gcd(conductor, *exponents)
        if common > 1:
            conductor //= common
            exponents = tuple(k // common for k in exponents)
        matrix = object.__new__(CycloMatrix)
        setfield(matrix, "rows", len(exponents) // ncols)
        setfield(matrix, "cols", ncols)
        setfield(matrix, "conductor", conductor)
        setfield(matrix, "exponents", exponents)
        setfield(matrix, "_entries", None)
        return matrix

    @staticmethod
    def identity(n: int, conductor: int = 1) -> "CycloMatrix":
        one = CycloNumber.one(conductor)
        zero = CycloNumber.zero(conductor)
        return CycloMatrix.from_rows(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    def at(self, i: int, j: int) -> CycloNumber:
        return self.entries[i * self.cols + j]

    def row_list(self) -> list[list[CycloNumber]]:
        return [
            [self.at(i, j) for j in range(self.cols)] for i in range(self.rows)
        ]

    def transpose(self) -> "CycloMatrix":
        return CycloMatrix.from_rows(
            [[self.at(i, j) for i in range(self.rows)] for j in range(self.cols)]
        )

    def conj(self) -> "CycloMatrix":
        return CycloMatrix.from_rows(
            [[self.at(i, j).conj() for j in range(self.cols)] for i in range(self.rows)]
        )

    def matmul(self, other: "CycloMatrix") -> "CycloMatrix":
        assert self.cols == other.rows
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = CycloNumber.zero(1)
                for k in range(self.cols):
                    acc = acc + self.at(i, k) * other.at(k, j)
                row.append(acc)
            out.append(row)
        return CycloMatrix.from_rows(out)

    def scale(self, factor: CycloNumber) -> "CycloMatrix":
        return CycloMatrix.from_rows(
            [[self.at(i, j) * factor for j in range(self.cols)] for i in range(self.rows)]
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, CycloMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all(a == b for a, b in zip(self.entries, other.entries))

    def _eliminate(self):
        """Fraction-free (Bareiss) elimination; (rank, sign, last pivot)."""
        m = self.row_list()
        sign = 1
        prev = CycloNumber.one(self.conductor)
        pivot_row = 0
        last_pivot = prev
        for col in range(self.cols):
            if pivot_row >= self.rows:
                break
            found = None
            for r in range(pivot_row, self.rows):
                if not m[r][col].is_zero:
                    found = r
                    break
            if found is None:
                continue
            if found != pivot_row:
                m[pivot_row], m[found] = m[found], m[pivot_row]
                sign = -sign
            pivot = m[pivot_row][col]
            if pivot_row + 1 < self.rows:
                inv = prev.inv()  # x / prev is x * prev.inv(): invert once a step
            for r in range(pivot_row + 1, self.rows):
                for c in range(col + 1, self.cols):
                    m[r][c] = (pivot * m[r][c] - m[r][col] * m[pivot_row][c]) * inv
                m[r][col] = CycloNumber.zero(pivot.conductor)
            prev = pivot
            last_pivot = pivot
            pivot_row += 1
        return pivot_row, sign, last_pivot

    def rank(self) -> int:
        """Rank over Q(zeta_N), proved by the first of three means that
        certifies it:

        1. on a table of roots, character orthogonality over its distinct
           exponent rows (``orthogonality_rank``);
        2. elimination modulo primes (``_prime_rank``): a table of roots on
           its exponents (``root_matrix_rank``), any other matrix on its
           power-basis coefficients;
        3. exact Bareiss elimination (``_eliminate``).
        """
        if self.exponents is not None:
            width = self.cols
            rows = dict.fromkeys(
                self.exponents[i:i + width] for i in range(0, len(self.exponents), width)
            )
            rank = orthogonality_rank(tuple(rows), self.conductor)
            if rank is None:
                rank = root_matrix_rank(self.exponents, width, self.conductor)
        else:
            ids: dict[tuple, int] = {}
            cells = [ids.setdefault(e.coeffs, len(ids)) for e in self.entries]
            zero = ids.get((0,) * euler_phi(self.conductor))
            rank = _prime_rank(
                cells, self.cols, zero, self.conductor, lambda p, w: _residues(ids, p, w)
            )
        if rank is None:
            rank, _, _ = self._eliminate()
        return rank

    def det(self) -> CycloNumber:
        if self.rows != self.cols:
            raise NotSquare(f"determinant of a {self.rows}x{self.cols} matrix")
        rank, sign, last_pivot = self._eliminate()
        if rank < self.rows:
            return CycloNumber.zero(self.conductor)
        return -last_pivot if sign < 0 else last_pivot


# ----------------------------------------------------------------------
# Reduction modulo primes p = 1 (mod N), for certified ranks.
# ----------------------------------------------------------------------

_RANK_PRIMES = 3  # primes tried before the exact elimination decides
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve primes; exact for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _rank_prime(n: int, i: int) -> tuple[int, int]:
    """The i-th least prime p > 2^31 with p = 1 (mod n), counting from 0,
    paired with an element w of exact multiplicative order n mod p."""
    p = (_rank_prime(n, i - 1)[0] if i else 2**31 // n * n + 1) + n
    while not _is_prime(p):
        p += n
    prime_factors = [q for q in divisors(n) if q > 1 and _is_prime(q)]
    g = 2
    while True:
        w = pow(g, (p - 1) // n, p)
        if all(pow(w, n // q, p) != 1 for q in prime_factors):
            return p, w
        g += 1


def _prime_rank(cells, width: int, zero, n: int, residues) -> int | None:
    """Rank of a matrix over Q(zeta_n) given as entry ids ``cells`` (row-major,
    ``width`` per row, ``zero`` the id of 0), when a prime certifies it.

    For a prime p = 1 (mod n) and w of exact order n mod p, zeta -> w is a
    ring map from the p-integral part of Q(zeta_n) onto GF(p); ``residues(p,
    w)`` gives the image of each id, or None when p divides a denominator.  A
    minor nonzero mod p is nonzero, so the rank mod p is a lower bound.  The
    number of distinct nonzero rows, or of columns, is an upper bound.  When
    the two meet the rank is proved; for a bicharacter matrix both are |G/T|
    on the first prime.  None when no listed prime reaches the upper bound.
    """
    height = len(cells) // width
    distinct_rows = dict.fromkeys(
        tuple(cells[i * width:(i + 1) * width]) for i in range(height)
    )
    distinct_cols = {tuple(cells[j::width]) for j in range(width)}
    distinct_rows.pop((zero,) * width, None)
    distinct_cols.discard((zero,) * height)
    upper = min(len(distinct_rows), len(distinct_cols))
    if upper == 0:
        return 0
    for i in range(_RANK_PRIMES):
        # a prime is found only when the ones before it fail to certify
        p, w = _rank_prime(n, i)
        images = residues(p, w)
        if images is None:
            continue
        reduced = [[images[k] for k in row] for row in distinct_rows]
        if _rank_mod_p(reduced, p) == upper:
            return upper
    return None


def root_matrix_rank(exponents, width: int, n: int) -> int | None:
    """Rank of the matrix of roots z_n^k from the sequence of their exponents k
    (row-major, ``width`` per row), certified by ``_prime_rank`` with z_n^k ->
    w^k in GF(p) and no Fractions.  A root is never 0, so every row counts
    toward the upper bound.  None when no listed prime certifies."""
    return _prime_rank(
        exponents, width, None, n, lambda p, w: [pow(w, k, p) for k in range(n)]
    )


def _residues(coeff_tuples, p: int, w: int) -> list[int] | None:
    """Images mod p of power-basis coefficient tuples under zeta -> w, or
    None when p divides some denominator."""
    out = []
    for coeffs in coeff_tuples:
        acc = 0
        for i, c in enumerate(coeffs):
            if c:
                if c.denominator % p == 0:
                    return None
                acc += c.numerator * pow(c.denominator, -1, p) * pow(w, i, p)
        out.append(acc % p)
    return out


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    """Rank over GF(p) of rows of residues, by Gaussian elimination in place."""
    rank = 0
    for col in range(len(rows[0])):
        pivot_at = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot_at is None:
            continue
        rows[rank], rows[pivot_at] = rows[pivot_at], rows[rank]
        pivot = rows[rank]
        inv = pow(pivot[col], -1, p)
        tail = [x * inv % p for x in pivot[col:]]
        for row in rows[rank + 1:]:
            f = row[col]
            if f:
                row[col:] = [(x - f * y) % p for x, y in zip(row[col:], tail)]
        rank += 1
        if rank == len(rows):
            break
    return rank

"""Dense rows in and out of the sparse Howell engine in pointedcat.groups.

The tests state Howell forms, kernels and reductions on small dense systems;
these helpers hand the nonzeros to ``sparse_howell_form`` and
``sparse_howell_kernel`` as (column, value) pairs and write the rows back
at full width.  ``howell_reduce`` checks the form's pivots with
``groups._pivots`` and reduces with ``groups._reduce``, as ``classify_h3ab``
does."""

from pointedcat.groups import _pivots, _reduce, dense_rows, sparse_howell_form, sparse_howell_kernel


def howell_form(rows, modulus: int) -> list[list[int]]:
    rows = [list(row) for row in rows]
    width = len(rows[0]) if rows else 0
    return dense_rows(sparse_howell_form(map(enumerate, rows), modulus), width)


def howell_kernel(rows, ncols: int, modulus: int) -> list[list[int]]:
    return dense_rows(sparse_howell_kernel(map(enumerate, rows), ncols, modulus), ncols)


def howell_reduce(vec, form, modulus: int) -> list[int]:
    return _reduce(vec, form, _pivots(form, modulus), modulus)

"""Integer Gauss-Jordan elimination.

A row is a flat list [re0, im0, re1, im1, ...] of Python ints, one
(real, imaginary) pair per coordinate; purely rational input simply
carries zero imaginary halves.  ``linalg.rref`` clears denominators,
calls this loop and finishes the canonical form.
"""

from __future__ import annotations

from math import gcd

__all__ = ["rref_gauss"]


def rref_gauss(rows, ncols):
    """Row-reduce ``rows`` in place; return ``(rows, pivot_columns)``.

    Entries stay integral throughout: elimination uses the cross
    multiplication row := piv*row - row[c]*pivot_row, and every touched
    row is divided by the gcd of its entries to keep growth in check.
    Pivot rows end up ordered by pivot column with zero rows at the
    bottom.  Pivot entries are not scaled to one; the caller divides
    once, in exact field arithmetic, to finish the canonical form.
    """
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        p = -1
        for k in range(r, nrows):
            row = rows[k]
            if row[2 * c] or row[2 * c + 1]:
                p = k
                break
        if p < 0:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r]
        pr = piv[2 * c]
        pi = piv[2 * c + 1]
        for k in range(nrows):
            if k == r:
                continue
            row = rows[k]
            ar = row[2 * c]
            ai = row[2 * c + 1]
            if not ar and not ai:
                continue
            for j in range(0, 2 * ncols, 2):
                xr = row[j]
                xi = row[j + 1]
                yr = piv[j]
                yi = piv[j + 1]
                row[j] = pr * xr - pi * xi - (ar * yr - ai * yi)
                row[j + 1] = pr * xi + pi * xr - (ar * yi + ai * yr)
            g = 0
            for v in row:
                if v:
                    g = gcd(g, v)
            if g > 1:
                for j in range(2 * ncols):
                    row[j] //= g
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots

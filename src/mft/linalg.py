"""Small dense linear algebra over generic scalars.

Everything here works on plain nested lists and is agnostic to the scalar
type: with Fraction entries all results are exact, with floats they are the
usual numerics.  Small matrices are handled by cofactors: ``det`` is the
package's one determinant (division-free up to 3x3, pivoted elimination
above), every minor and every ``adjugate`` entry is one ``det``, and
``inverse`` is the adjugate over the determinant.  ``rref`` and ``rank``
are exact-only Gauss-Jordan references that the tests compare against.
``nullspace`` serves the recovery systems (up to 80x81) and is exact-only:
it works modulo primes and certifies the lifted result over the integers.
Its elimination modulo a prime p < 2**31 runs on int64 numpy arrays:
residues stay in [0, p), so every product of two is below 2**62 and the
arithmetic is exact integer arithmetic, never float or Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .scalars import div, is_exact, primitive


def identity(n, one=1):
    return [[one if i == j else 0 * one for j in range(n)] for i in range(n)]


def transpose(a):
    return [list(row) for row in zip(*a)]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
        for i in range(n)
    ]


def mat_vec(a, v):
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def det(a):
    """Determinant; exact when entries are exact.

    Up to 3x3 it is the division-free cofactor expansion, so int entries
    give an int; larger matrices use pivoted elimination.
    """
    n = len(a)
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if n == 3:
        return (
            a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
            - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
            + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0])
        )
    m = [list(row) for row in a]
    sign = 1
    result = 1
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0:
            return 0 * result
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            sign = -sign
        p = m[col][col]
        result = result * p
        for r in range(col + 1, n):
            factor = div(m[r][col], p)
            for c in range(col, n):
                m[r][c] = m[r][c] - factor * m[col][c]
    return sign * result


def rref(a):
    """Reduced row echelon form of an exact (int/Fraction) matrix; returns
    (rows, pivot column list).  Pivots on the first nonzero entry."""
    if not all(is_exact(x) for row in a for x in row):
        raise TypeError("rref needs int or Fraction entries")
    m = [list(row) for row in a]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    row = 0
    for col in range(ncols):
        if row >= nrows:
            break
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        p = m[row][col]
        m[row] = [div(x, p) for x in m[row]]
        for r in range(nrows):
            if r != row and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[row])]
        pivots.append(col)
        row += 1
    return m, pivots


def rank(a):
    if not a:
        return 0
    return len(rref(a)[1])


def nullspace(a):
    """Basis of the right nullspace of an exact (int/Fraction) matrix, one
    vector per free column of its reduced row echelon form: 1 on that free
    column, 0 on the other free columns, Fraction entries on the pivot
    columns.  This is the basis read off ``rref(a)``.

    Multi-modular: the kernel is computed modulo primes below 2**31, lifted
    by CRT and rational reconstruction, and returned only once
    ``_certified`` proves it exactly (Wang, Guy & Davenport 1982; Dixon
    1982).  Only finitely many primes are unlucky, so the loop ends.
    """
    if not a:
        return []
    ncols = len(a[0])
    rows = [r for r, _ in map(primitive, a) if any(r)]  # same kernel
    best = None
    for p in _primes():
        pivots, images = _kernel_mod(rows, ncols, p)
        if best is None or (-len(pivots), pivots) < (-len(best), best):
            # higher rank or earlier pivots: every prime kept so far was unlucky
            best, lifted, modulus = pivots, images, p
        elif pivots == best:
            inv = pow(modulus, -1, p)
            lifted = [
                [x + modulus * ((y - x) * inv % p) for x, y in zip(xs, ys)]
                for xs, ys in zip(lifted, images)
            ]
            modulus *= p
        else:
            continue
        free = sorted(set(range(ncols)) - set(best))
        basis = _reconstruct(lifted, modulus, best, free, ncols)
        if basis is not None and _certified(rows, free, basis):
            return basis


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)  # exact below 3.3e24


def _is_prime(n):
    """Deterministic Miller-Rabin for n below 3.3e24."""
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
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


def _primes():
    """The primes below 2**31 (the int64 bound of _kernel_mod), largest
    first, found lazily."""
    n = 2**31 - 1
    while True:
        if _is_prime(n):
            yield n
        n -= 2


def _kernel_mod(rows, ncols, p):
    """Pivot columns of the integer rows modulo p and, per free column f,
    the pivot-column entries (mod p) of the kernel vector that is 1 on f
    and 0 on the other free columns.

    Gauss-Jordan on an int64 array, exact: entries are reduced to [0, p)
    after every step and p < 2**31, so each update x - f * y lies in
    (-2**62, 2**31) and never wraps."""
    m = np.array([[x % p for x in row] for row in rows], dtype=np.int64).reshape(len(rows), ncols)
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        nonzero = np.flatnonzero(m[r:, col])
        if not len(nonzero):
            continue
        i = r + int(nonzero[0])
        m[[r, i]] = m[[i, r]]
        m[r] = m[r] * pow(int(m[r, col]), -1, p) % p
        f = m[:, col].copy()
        f[r] = 0
        m -= f[:, None] * m[r]
        m %= p
        pivots.append(col)
    free = sorted(set(range(ncols)) - set(pivots))
    images = (-m[: len(pivots), free].T % p).tolist()
    return pivots, images


def _reconstruct(lifted, modulus, pivots, free, ncols):
    """Basis vectors with the rationals whose residues mod modulus are the
    lifted pivot entries, or None if some residue has no small preimage."""
    bound = math.isqrt(modulus // 2)
    basis = []
    for f, residues in zip(free, lifted):
        v = [0] * ncols
        v[f] = 1
        for c, u in zip(pivots, residues):
            # half extended Euclid: the first remainder <= bound, over its cofactor
            r0, r1, s0, s1 = modulus, u, 0, 1
            while r1 > bound:
                q = r0 // r1
                r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
            if abs(s1) > bound:
                return None
            v[c] = Fraction(r1, s1)
        basis.append(v)
    return basis


def _certified(rows, free, basis):
    """Exact proof that basis is the RREF kernel basis of the integer rows.

    Each v must satisfy rows . v == 0, be 1 on its own free column, and be 0
    on the other free columns and on every column after its own.  The rank
    mod any prime is at most the rank over Q, so the kernel over Q has
    dimension at most len(basis); these independent kernel vectors span
    it.  A kernel vector whose last nonzero is at f makes f a free column
    of the RREF, so the free columns agree, and the one kernel vector that
    is 1 on f and 0 on the other free columns is the RREF one.
    """
    for f, v in zip(free, basis):
        if any(v[g] != (1 if g == f else 0) for g in free) or any(v[f + 1 :]):
            return False
        w = [(j, x) for j, x in enumerate(primitive(v)[0]) if x]
        if any(sum(row[j] * x for j, x in w) for row in rows):
            return False
    return True


def adjugate(a):
    """Transpose of the cofactor matrix, so a @ adjugate(a) == det(a) * I.
    Entry (i, j) is (-1)**(i + j) times the det of a without row j and
    column i."""
    n = len(a)
    return [[(-1) ** (i + j) * det([r[:i] + r[i + 1 :] for k, r in enumerate(a) if k != j])
             for j in range(n)] for i in range(n)]


def inverse(a):
    """adjugate(a) / det(a), the det expanded along the first row against
    the adjugate; raises ValueError when singular."""
    adj = adjugate(a)
    d = sum(a[0][j] * adj[j][0] for j in range(len(a)))
    if d == 0:
        raise ValueError("matrix is singular")
    return [[div(x, d) for x in row] for row in adj]

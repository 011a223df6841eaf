"""Exact arithmetic over finite chain rings Z/p^m and group rings (Z/p^m)[G].

Elements of ``ChainRing(p, m)`` are plain ints in ``[0, p**m)``.  Elements of
``GroupRing`` are tuples of ints of length ``|G|``, the coordinates in the
group basis (mixed-radix order on the generator exponents).  Every heavy
computation — canonical row forms, kernels, linear solving — is performed on
integer matrices over the base chain ring.  Group rings get there by
restriction of scalars, never by elimination over the group ring itself; a
chain ring is its own base, so its matrices and vectors are used as they are
(each ring class says how in ``matrix_to_base``, ``vec_to_base`` and
``vec_from_base``).

The canonical form used throughout is the Howell form: the unique reduced
row form attached to a row module over Z/p^m.  Two generating sets span the
same row module exactly when their Howell forms are identical, which is what
makes ideals and submodules comparable by simple equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from operator import mul


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def power_exponent(value: int, p: int):
    """The e with value = p^e, or None when value is not a power of p
    (no value below 1 is)."""
    if value < 1:
        return None
    e = 0
    while value % p == 0:
        value //= p
        e += 1
    return e if value == 1 else None


@dataclass(frozen=True)
class ChainRing:
    """The ring Z/p^m: a finite chain ring with maximal ideal (p)."""

    p: int
    m: int

    @cached_property
    def n(self) -> int:
        return self.p ** self.m

    @property
    def base(self) -> "ChainRing":
        return self

    # Number of group-basis coordinates per element (1: the ring is its own base).
    rank = 1
    orders: tuple = ()

    @property
    def size(self) -> int:
        return self.n

    @property
    def zero(self) -> int:
        return 0

    @property
    def one(self) -> int:
        return 1

    def reduce(self, x: int) -> int:
        return x % self.n

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.n

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.n

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.n

    def dot(self, xs, ys) -> int:
        """sum_i xs[i]*ys[i], reduced once; ``zero`` for empty vectors."""
        return sum(map(mul, xs, ys)) % self.n

    def neg(self, a: int) -> int:
        return (-a) % self.n

    def val(self, a: int) -> int:
        """p-adic valuation of a in [0, m]; val(0) = m."""
        a %= self.n
        if a == 0:
            return self.m
        v = 0
        while a % self.p == 0:
            a //= self.p
            v += 1
        return v

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def random_element(self, rng) -> int:
        return rng.randrange(self.n)

    def random_unit(self, rng) -> int:
        while True:
            x = rng.randrange(self.n)
            if x % self.p != 0:
                return x

    def to_vec(self, a: int) -> tuple:
        return (a % self.n,)

    def from_vec(self, vec) -> int:
        return vec[0] % self.n

    def action_matrix(self, a: int) -> list:
        """Base-ring matrix of multiplication by a (1x1 for a chain ring)."""
        return [[a % self.n]]

    # Restriction of scalars: the ring is its own base, so these copy.

    def matrix_to_base(self, rows, ncols: int) -> list:
        """The int matrix of a matrix with reduced entries: a copy."""
        return [row[:] for row in rows]

    def vec_to_base(self, vec) -> list:
        n = self.n
        return [x % n for x in vec]

    def vec_from_base(self, flat) -> list:
        n = self.n
        return [x % n for x in flat]

    def from_int(self, c: int) -> int:
        return c % self.n

    def augmentation(self, a: int) -> int:
        return a % self.n

    def __str__(self) -> str:
        return f"Z/{self.p}^{self.m}" if self.m > 1 else f"Z/{self.p}"


class _GroupRows(dict):
    """Rows of the multiplication table of one abelian group on mixed-radix
    indices, t[i][j] = index of g_i*g_j, each built on its first read.

    A product by a sparse element reads only the rows of its support, so a
    large group never pays for its |G|^2 table.  Row i comes from the block
    recurrence, least significant factor first: if r is the row of the part
    of i in the factors taken so far, of size S, and a is i's exponent in
    the next factor, of order d, then the row of i at column b*S + j is
    ((a+b) mod d)*S + r[j].  That is O(|G|) per row.
    """

    __slots__ = ("orders",)

    def __init__(self, orders: tuple):
        super().__init__()
        self.orders = orders

    def __missing__(self, i: int) -> tuple:
        row = [0]
        size = 1
        rest = i
        for d in reversed(self.orders):
            rest, a = divmod(rest, d)
            row = [((a + b) % d) * size + x for b in range(d) for x in row]
            size *= d
        row = tuple(row)
        self[i] = row
        return row


@cache
def _group_table(orders: tuple) -> _GroupRows:
    """The multiplication rows of the abelian group with cyclic factor
    ``orders``: one shared, lazily filled map from an index to its row, so
    every ring over the same group, whatever its modulus, reads one object."""
    return _GroupRows(orders)


@dataclass(frozen=True)
class GroupRing:
    """(Z/p^m)[G] for G a finite abelian p-group given by cyclic orders.

    ``orders`` lists the orders p^{e_i} of the cyclic factors.  Group elements
    are indexed 0..|G|-1 in mixed-radix order of their exponent tuples, so
    index 0 is the identity.  A ring element is the tuple of its |G|
    coordinates over the base ring.  Products read the group's shared
    multiplication rows, one row per nonzero coordinate of the first factor,
    so a sparse first factor (a group element, a short polynomial in one)
    costs O(|support|*|G|) and builds only the rows it reads.
    """

    base: ChainRing
    orders: tuple

    def __post_init__(self):
        for d in self.orders:
            if not power_exponent(d, self.base.p):
                raise ValueError(
                    f"group factor order {d} is not a positive power of p={self.base.p}"
                )

    @cached_property
    def rank(self) -> int:
        out = 1
        for d in self.orders:
            out *= d
        return out

    @property
    def p(self) -> int:
        return self.base.p

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def size(self) -> int:
        return self.base.n ** self.rank

    @cached_property
    def _radix(self) -> tuple:
        # Strides for mixed-radix packing of exponent tuples.
        strides = []
        acc = 1
        for d in reversed(self.orders):
            strides.append(acc)
            acc *= d
        return tuple(reversed(strides))

    def exp_to_index(self, exps) -> int:
        idx = 0
        for e, d, s in zip(exps, self.orders, self._radix):
            idx += (e % d) * s
        return idx

    @cached_property
    def _mul_index(self) -> _GroupRows:
        """Group multiplication on indices, t[i][j] = index of g_i*g_j, with
        each row built when first read (``_group_table``)."""
        return _group_table(self.orders)

    @property
    def zero(self) -> tuple:
        return (0,) * self.rank

    @cached_property
    def one(self) -> tuple:
        return (1,) + (0,) * (self.rank - 1)

    def group_element(self, exps) -> tuple:
        """The ring element that is the group element with the given exponents."""
        vec = [0] * self.rank
        vec[self.exp_to_index(exps)] = 1
        return tuple(vec)

    def generator(self, i: int = 0) -> tuple:
        """The i-th cyclic generator sigma_i as a ring element."""
        exps = [0] * len(self.orders)
        exps[i] = 1
        return self.group_element(exps)

    def reduce(self, x) -> tuple:
        n = self.base.n
        return tuple(c % n for c in x)

    def add(self, a, b) -> tuple:
        n = self.base.n
        return tuple((x + y) % n for x, y in zip(a, b))

    def sub(self, a, b) -> tuple:
        n = self.base.n
        return tuple((x - y) % n for x, y in zip(a, b))

    def neg(self, a) -> tuple:
        n = self.base.n
        return tuple((-x) % n for x in a)

    def mul(self, a, b) -> tuple:
        return self.dot((a,), (b,))

    def dot(self, xs, ys) -> tuple:
        """sum_i xs[i]*ys[i]: products accumulate in one int list through the
        group table, zero coordinates skipped, and are reduced once."""
        out = [0] * self.rank
        table = self._mul_index
        for a, b in zip(xs, ys):
            if any(a) and any(b):
                for i, x in enumerate(a):
                    if x:
                        row = table[i]
                        for j, y in enumerate(b):
                            if y:
                                out[row[j]] += x * y
        n = self.base.n
        return tuple([c % n for c in out])

    def augmentation(self, a) -> int:
        """Sum of coordinates: the image under G -> 1."""
        return sum(a) % self.base.n

    def is_unit(self, a) -> bool:
        # Local ring with maximal ideal (p, sigma_i - 1): units are exactly the
        # elements whose augmentation is a unit of the base.
        return self.base.is_unit(self.augmentation(a))

    def action_matrix(self, a) -> list:
        """Base matrix of multiplication by a: column t holds a*g_t in coordinates."""
        n = self.base.n
        d = self.rank
        table = self._mul_index
        mat = [[0] * d for _ in range(d)]
        for i, x in enumerate(a):
            if x == 0:
                continue
            row = table[i]
            for t in range(d):
                mat[row[t]][t] = (mat[row[t]][t] + x) % n
        return mat

    def to_vec(self, a) -> tuple:
        return tuple(c % self.base.n for c in a)

    def from_vec(self, vec) -> tuple:
        return tuple(c % self.base.n for c in vec)

    # Restriction of scalars: each element becomes |G| base coordinates.

    def matrix_to_base(self, rows, ncols: int) -> list:
        """Int matrix B with B.vec(x) = vec(A.x): the action matrix of each
        entry of A as a |G| x |G| block."""
        d = self.rank
        out = [[0] * (ncols * d) for _ in range(len(rows) * d)]
        for i, row in enumerate(rows):
            for j in range(ncols):
                block = self.action_matrix(row[j])
                for a in range(d):
                    orow = out[i * d + a]
                    brow = block[a]
                    for b in range(d):
                        orow[j * d + b] = brow[b]
        return out

    def vec_to_base(self, vec) -> list:
        out = []
        for x in vec:
            out.extend(self.to_vec(x))
        return out

    def vec_from_base(self, flat) -> list:
        d = self.rank
        return [self.from_vec(tuple(flat[i * d : (i + 1) * d]))
                for i in range(len(flat) // d)]

    def from_int(self, c: int) -> tuple:
        return (c % self.base.n,) + (0,) * (self.rank - 1)

    def random_element(self, rng) -> tuple:
        n = self.base.n
        return tuple(rng.randrange(n) for _ in range(self.rank))

    def random_unit(self, rng) -> tuple:
        while True:
            x = self.random_element(rng)
            if self.is_unit(x):
                return x

    def __str__(self) -> str:
        gens = "x".join(f"C{d}" for d in self.orders)
        return f"(Z/{self.p}^{self.m})[{gens}]"


def make_ring(p: int, m: int, orders=()):
    """Build Z/p^m, or (Z/p^m)[G] when cyclic factor orders are given.

    Rejects non-prime p, non-positive m, and group factor orders that are not
    powers of p (the theory lives over p-groups only).
    """
    if not _is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    if m < 1:
        raise ValueError(f"m = {m} must be a positive integer")
    base = ChainRing(p, m)
    orders = tuple(orders)
    if not orders:
        return base
    return GroupRing(base, orders)


# ---------------------------------------------------------------------------
# Integer-matrix core over Z/p^m.
#
# Matrices are lists of row lists of ints; all entries are kept reduced mod
# p^m.  Rows act as vectors; the "row module" of A is {c.A : c in R^k}, and
# the kernel of A is {x in R^g : A.x = 0} with x a column vector.
# ---------------------------------------------------------------------------


def _val(a: int, p: int, m: int) -> int:
    if a == 0:
        return m
    v = 0
    while a % p == 0:
        a //= p
        v += 1
    return v


def howell_int(rows, ncols: int, p: int, m: int) -> list:
    """Howell form of the row module spanned by ``rows`` inside (Z/p^m)^ncols.

    The result is the canonical generating matrix: no zero rows, one pivot
    per pivot column, pivots normalized to powers of p, entries above each
    pivot p^k reduced mod p^k, and the row module closed under the annihilator
    rows p^{m-k} * row.  Two row sets span the same module iff their Howell
    forms are equal, and the form is idempotent.
    """
    n = p ** m
    work = [[c % n for c in r] for r in rows]
    work = [r for r in work if any(r)]
    result = []  # (pivot_col, row) in increasing pivot_col order
    for j in range(ncols):
        rest = []
        pivot = None
        for r in work:
            if r[j] % n == 0:
                rest.append(r)
                continue
            if pivot is None:
                pivot = r
                continue
            # Ensure the pivot has the minimal valuation at column j, then
            # eliminate r[j] exactly (the quotient exists in a chain ring).
            if _val(r[j], p, m) < _val(pivot[j], p, m):
                pivot, r = r, pivot
            vp = _val(pivot[j], p, m)
            upin = pow(pivot[j] // (p ** vp), -1, n)
            q = (r[j] // (p ** vp)) * upin % n
            r = [(a - q * b) % n for a, b in zip(r, pivot)]
            if any(r):
                rest.append(r)
        work = rest
        if pivot is not None:
            vp = _val(pivot[j], p, m)
            u = pow(pivot[j] // (p ** vp), -1, n)
            pivot = [(u * a) % n for a in pivot]
            if vp > 0:
                ann = [(p ** (m - vp)) * a % n for a in pivot]
                if any(ann):
                    work.append(ann)
            result.append((j, pivot))
    # Reduce entries above each pivot modulo that pivot.  Per row, sweep the
    # later pivots left to right: each step only touches columns at or beyond
    # its own pivot, so earlier reductions stay intact.
    for idx2 in range(len(result)):
        _, above = result[idx2]
        for idx in range(idx2 + 1, len(result)):
            j, row = result[idx]
            q = above[j] // row[j]
            if q:
                for t in range(j, ncols):
                    above[t] = (above[t] - q * row[t]) % n
    return [row for _, row in result]


def membership_int(x, howell_rows, p: int, m: int) -> bool:
    """Whether vector x lies in the row module given by its Howell form."""
    n = p ** m
    x = [c % n for c in x]
    for row in howell_rows:
        j = next(t for t, c in enumerate(row) if c)
        if x[j]:
            k = _val(row[j], p, m)
            if _val(x[j], p, m) < k:
                return False
            q = x[j] // (p ** k)
            for t in range(j, len(x)):
                x[t] = (x[t] - q * row[t]) % n
    return not any(x)


def row_module_size(howell_rows, p: int, m: int) -> int:
    """Cardinality of the row module from its Howell form."""
    size = 1
    for row in howell_rows:
        j = next(t for t, c in enumerate(row) if c)
        size *= p ** (m - _val(row[j], p, m))
    return size


def smith_int(A, p: int, m: int, left: bool = True):
    """Smith form over Z/p^m: returns (exps, P, Q) with P.A.Q = diag(p^e).

    ``exps`` lists the exponents e of the nonzero-strip diagonal (an entry m
    denotes 0).  P (k x k) and Q (g x g) are invertible over Z/p^m.  Chain
    rings admit this form because the minimal-valuation entry divides every
    other entry, so elimination is exact.

    The row updates of P cost as much as the elimination itself, so callers
    that only read ``exps`` and Q (kernels, invariant factors) pass
    ``left=False`` and get None in place of P.
    """
    n = p ** m
    k = len(A)
    g = len(A[0]) if k else 0
    M = [[c % n for c in row] for row in A]
    P = [[int(i == j) for j in range(k)] for i in range(k)] if left else None
    Q = [[int(i == j) for j in range(g)] for i in range(g)]
    exps = []
    top = 0
    while top < min(k, g):
        # Find the entry of minimal valuation in the remaining block.
        best, bi, bj = m, -1, -1
        for i in range(top, k):
            for j in range(top, g):
                if M[i][j]:
                    v = _val(M[i][j], p, m)
                    if v < best:
                        best, bi, bj = v, i, j
                        if v == 0:
                            break
            if best == 0:
                break
        if bi < 0:
            break
        if bi != top:
            M[top], M[bi] = M[bi], M[top]
            if left:
                P[top], P[bi] = P[bi], P[top]
        if bj != top:
            for row in M:
                row[top], row[bj] = row[bj], row[top]
            for row in Q:
                row[top], row[bj] = row[bj], row[top]
        piv = M[top][top]
        v = _val(piv, p, m)
        u_inv = pow(piv // (p ** v), -1, n)
        M[top] = [(u_inv * c) % n for c in M[top]]
        if left:
            P[top] = [(u_inv * c) % n for c in P[top]]
        pk = p ** v
        for i in range(top + 1, k):
            if M[i][top]:
                q = M[i][top] // pk
                M[i] = [(a - q * b) % n for a, b in zip(M[i], M[top])]
                if left:
                    P[i] = [(a - q * b) % n for a, b in zip(P[i], P[top])]
        for j in range(top + 1, g):
            if M[top][j]:
                q = M[top][j] // pk
                for row in M:
                    row[j] = (row[j] - q * row[top]) % n
                for row in Q:
                    row[j] = (row[j] - q * row[top]) % n
        exps.append(v)
        top += 1
    return exps, P, Q


def kernel_int(A, p: int, m: int) -> list:
    """Generators of {x in (Z/p^m)^g : A.x = 0}, as a list of length-g rows."""
    n = p ** m
    k = len(A)
    g = len(A[0]) if k else 0
    if g == 0:
        return []
    if k == 0:
        return [[int(i == j) for j in range(g)] for i in range(g)]
    exps, _P, Q = smith_int(A, p, m, left=False)
    gens = []
    for i, e in enumerate(exps):
        if e > 0:
            c = p ** (m - e)
            col = [(c * Q[t][i]) % n for t in range(g)]
            if any(col):
                gens.append(col)
    for j in range(len(exps), g):
        gens.append([Q[t][j] % n for t in range(g)])
    return gens


def back_substitute(smith, b, p: int, m: int):
    """One x with A.x = b from the Smith data (exps, P, Q) of A, or None.

    The one back-substitution behind every solve: factor A once with
    ``smith_int`` and call this per right-hand side.  ``b`` must be reduced
    mod p^m.  With P.A.Q = D the system becomes D.y = P.b, solved entry by
    entry, and x = Q.y.
    """
    exps, P, Q = smith
    n = p ** m
    pb = [sum(map(mul, row, b)) % n for row in P]
    for i in range(len(exps), len(pb)):
        if pb[i]:
            return None
    y = []
    for i, e in enumerate(exps):
        if _val(pb[i], p, m) < e:
            return None
        # Solve p^e * y_i = pb[i]: any lift of the exact quotient works.
        y.append(pb[i] // (p ** e) % n)
    # y vanishes beyond the diagonal, so only the first len(y) columns of Q
    # contribute: a caller may keep Q cut to those columns, and to the rows
    # of the coordinates it wants.
    return [sum(map(mul, row, y)) % n for row in Q]


def solve_int(A, b, p: int, m: int):
    """One solution x of A.x = b over Z/p^m, or None if none exists."""
    n = p ** m
    k = len(A)
    g = len(A[0]) if k else 0
    if k == 0:
        return [0] * g
    return back_substitute(smith_int(A, p, m), [c % n for c in b], p, m)


def det_int(A, p: int, m: int) -> int:
    """Determinant over Z/p^m by exact chain-ring elimination."""
    n = p ** m
    size = len(A)
    if size == 0:
        return 1 % n
    M = [[c % n for c in row] for row in A]
    det_unit = 1
    det_valuation = 0
    for top in range(size):
        best, bi = m, -1
        for i in range(top, size):
            if M[i][top]:
                v = _val(M[i][top], p, m)
                if v < best:
                    best, bi = v, i
                    if v == 0:
                        break
        if bi < 0:
            return 0
        if bi != top:
            M[top], M[bi] = M[bi], M[top]
            det_unit = -det_unit
        piv = M[top][top]
        v = _val(piv, p, m)
        u = piv // (p ** v)
        det_unit = det_unit * u % n
        det_valuation += v
        if det_valuation >= m:
            return 0
        u_inv = pow(u, -1, n)
        pk = p ** v
        for i in range(top + 1, size):
            if M[i][top]:
                q = (M[i][top] // pk) * u_inv % n
                M[i] = [(a - q * b) % n for a, b in zip(M[i], M[top])]
    return det_unit * (p ** det_valuation) % n


def _det_small(A, n: int) -> int:
    """Determinant mod n of a square matrix of size 0 to 3, by cofactors."""
    size = len(A)
    if size == 0:
        return 1 % n
    if size == 1:
        return A[0][0] % n
    if size == 2:
        (a, b), (c, d) = A
        return (a * d - b * c) % n
    (a, b, c), (d, e, f), (g, h, i) = A
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % n


# ---------------------------------------------------------------------------
# Matrices over a chain ring or group ring.
# ---------------------------------------------------------------------------


class Matrix:
    """A dense matrix over a ChainRing or GroupRing with shape checking.

    ``Matrix(ring, rows)`` reduces every entry and rejects ragged rows, so
    rows from outside (JSON included) always pass through both.  ``mul``,
    ``transpose``, ``stack`` and ``sub`` build their result from rows they
    have just produced, already reduced and of one length, and pass
    ``reduced=True`` to skip that pass; such rows must be fresh lists the new
    matrix owns.
    """

    __slots__ = ("ring", "rows", "nrows", "ncols")

    def __init__(self, ring, rows, ncols: int | None = None, *,
                 reduced: bool = False):
        self.ring = ring
        if reduced:
            self.rows = rows
        else:
            self.rows = [[ring.reduce(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        if not reduced and any(len(row) != self.ncols for row in self.rows):
            raise ValueError("ragged matrix rows")

    @classmethod
    def zeros(cls, ring, nrows: int, ncols: int) -> "Matrix":
        z = ring.zero
        return cls(ring, [[z] * ncols for _ in range(nrows)], ncols=ncols)

    @classmethod
    def identity(cls, ring, size: int) -> "Matrix":
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(size)] for i in range(size)])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Matrix({self.ring}, {self.rows!r})"

    def transpose(self) -> "Matrix":
        return Matrix(
            self.ring,
            [[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)],
            ncols=self.nrows,
            reduced=True,
        )

    def sub(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        r = self.ring
        return Matrix(
            r,
            [
                [r.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.rows, other.rows)
            ],
            ncols=self.ncols,
            reduced=True,
        )

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape}: inner dims differ"
            )
        dot = self.ring.dot
        # Columns of ``other``; with no rows, zip would give no columns at all.
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        return Matrix(self.ring, [[dot(row, col) for col in cols]
                                  for row in self.rows], ncols=other.ncols,
                      reduced=True)

    def apply(self, vec) -> list:
        """Matrix-vector product A.x with x a length-ncols column vector."""
        if len(vec) != self.ncols:
            raise ValueError(f"vector length {len(vec)} != ncols {self.ncols}")
        dot = self.ring.dot
        return [dot(row, vec) for row in self.rows]

    def stack(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.ncols:
            raise ValueError("cannot stack matrices with different column counts")
        return Matrix(
            self.ring,
            [row[:] for row in self.rows] + [row[:] for row in other.rows],
            ncols=self.ncols,
            reduced=True,
        )

    def to_base(self) -> list:
        """Restriction of scalars: int matrix B with B.vec(x) = vec(A.x)."""
        return self.ring.matrix_to_base(self.rows, self.ncols)


def vec_to_base(ring, vec) -> list:
    """Flatten a vector over the ring to base-ring coordinates."""
    return ring.vec_to_base(vec)


def vec_from_base(ring, flat) -> list:
    """Reassemble a base-coordinate vector into ring elements."""
    return ring.vec_from_base(flat)


def translates_base(ring, vec) -> list:
    """Base rows spanning the same R-submodule as the single vector ``vec``.

    Over a chain ring this is the one row itself; over a group ring the rows
    are the coordinate vectors of g_t * vec for every group basis element, so
    the base-ring row span equals the R-span of vec.
    """
    if ring.rank == 1:
        return [[x % ring.n for x in vec]]
    n = ring.base.n
    xs = [[c % n for c in x] for x in vec]
    table = ring._mul_index
    rows = []
    for t in range(ring.rank):
        # g_t * g_j = g_table[t][j], so g_t * x has x[j] at coordinate
        # table[t][j]: read through the inverse permutation, the row of g_t^-1.
        inv = table[table[t].index(0)]
        rows.append([x[j] for x in xs for j in inv])
    return rows


def span_rows_base(ring, vectors) -> list:
    """Base rows whose span is the R-span of the given R-vectors."""
    rows = []
    for vec in vectors:
        rows.extend(translates_base(ring, vec))
    return rows


def submodule_howell(ring, vectors, ncols: int) -> list:
    """Canonical (Howell) base form of the R-submodule generated by vectors."""
    base = ring.base
    rows = span_rows_base(ring, vectors)
    return howell_int(rows, ncols * ring.rank, base.p, base.m)


def kernel_vectors(ring, system, ncols: int) -> list:
    """Generators of the kernel of a base system, cut to its first ``ncols``
    ring coordinates, as nonzero ring vectors.

    The package's one reader of a base kernel.  A module map's system
    (``ModuleMap.base_system``) is its matrix restricted to Z/p^m with the
    Howell rows of the target's relations appended as columns: the system
    ``solve_map`` factors, whose kernel cut to the source coordinates is
    the set of x with f(x) = 0 in the target.  The base kernel of an empty
    system (a map into no generators) is the base identity.
    """
    base = ring.base
    width = ncols * ring.rank
    out = []
    for row in kernel_int(system or [[0] * width], base.p, base.m):
        vec = vec_from_base(ring, row[:width])
        if any(x != ring.zero for x in vec):
            out.append(vec)
    return out


def kernel_matrix(A: Matrix) -> Matrix:
    """A Matrix over the ring of A whose rows generate {x : A.x = 0}; with
    no rows, the identity over the ring."""
    ring = A.ring
    if A.nrows == 0:
        return Matrix.identity(ring, A.ncols)
    return Matrix(ring, kernel_vectors(ring, A.to_base(), A.ncols),
                  ncols=A.ncols, reduced=True)


def howell_form(A: Matrix):
    """Canonical form of the row module of A, plus a kernel basis.

    Returns ``(H, kernel_matrix(A))``.  For a chain ring H is a Matrix over
    the same ring, the unique Howell form of the row span.  For a group ring
    the row module is canonicalized through restriction of scalars and H is
    a Matrix over the base ring with ncols * |G| columns.  Callers that only
    need the kernel call ``kernel_matrix`` directly.
    """
    ring = A.ring
    base = ring.base
    H_rows = submodule_howell(ring, A.rows, A.ncols)
    if ring.rank == 1:
        H = Matrix(ring, H_rows) if H_rows else Matrix.zeros(ring, 0, A.ncols)
    else:
        H = Matrix(base, H_rows) if H_rows else Matrix.zeros(base, 0, A.ncols * ring.rank)
    return H, kernel_matrix(A)


def det_ring(ring, rows) -> object:
    """Determinant of a square matrix over the ring.

    Chain rings expand minors of size up to 3 by cofactors and use exact
    elimination (``det_int``, the reference) beyond; group rings use a
    division-free subset expansion (Laplace over column subsets with
    memoization), which is exact over any commutative ring and fast at the
    sizes that occur here.
    """
    size = len(rows)
    if size and len(rows[0]) != size:
        raise ValueError("determinant of a non-square matrix")
    if ring.rank == 1:
        if size <= 3:
            return _det_small(rows, ring.n)
        return det_int(rows, ring.p, ring.m)
    if size == 0:
        return ring.one
    full = (1 << size) - 1
    memo = {0: ring.one}

    def rec(cols_mask: int) -> object:
        # Determinant of the lower-right block: rows from ``depth`` on, with
        # the columns still available in cols_mask.
        if cols_mask in memo:
            return memo[cols_mask]
        depth = size - bin(cols_mask).count("1")
        row = rows[depth]
        acc = ring.zero
        sign = 0
        rest = cols_mask
        while rest:
            low = rest & (-rest)
            j = low.bit_length() - 1
            entry = row[j]
            if entry != ring.zero:
                sub = rec(cols_mask ^ low)
                term = ring.mul(entry, sub)
                acc = ring.add(acc, term) if sign % 2 == 0 else ring.sub(acc, term)
            sign += 1
            rest ^= low
        memo[cols_mask] = acc
        return acc

    return rec(full)


# ---------------------------------------------------------------------------
# Serialization (JSON-friendly plain structures).
# ---------------------------------------------------------------------------


def ring_to_json(ring) -> dict:
    return {"p": ring.base.p, "m": ring.base.m, "orders": list(ring.orders)}


def int_from_json(value, what: str) -> int:
    """A serialized integer: a JSON int, never a float, a string or a bool."""
    if type(value) is not int:
        raise ValueError(f"{what} {value!r} is not an int")
    return value


def ring_from_json(data) -> object:
    return make_ring(int_from_json(data["p"], "p"), int_from_json(data["m"], "m"),
                     tuple(int_from_json(d, "group order")
                           for d in data.get("orders", ())))


def element_to_json(ring, x):
    if ring.rank == 1:
        return x % ring.n
    return [c % ring.base.n for c in x]


def element_from_json(ring, data):
    """A ring element as serialized: an int, or a list of exactly
    ``ring.rank`` int coordinates for a group ring."""
    if ring.rank == 1:
        return int_from_json(data, "ring element") % ring.n
    if len(data) != ring.rank:
        raise ValueError(f"group-ring element has {len(data)} "
                         f"coordinates, not {ring.rank}")
    return tuple(int_from_json(c, "coordinate") % ring.base.n for c in data)


def matrix_to_json(A: Matrix) -> list:
    return [[element_to_json(A.ring, x) for x in row] for row in A.rows]


def matrix_from_json(ring, data) -> Matrix:
    return Matrix(ring, [[element_from_json(ring, x) for x in row] for row in data])

"""Exact arithmetic over finite chain rings Z/p^m and group rings (Z/p^m)[G].

Elements of ``ChainRing(p, m)`` are plain ints in ``[0, p**m)``.  Elements of
``GroupRing`` are tuples of ints of length ``|G|``, the coordinates in the
group basis (mixed-radix order on the generator exponents).  Every heavy
computation — canonical row forms, kernels, linear solving — is performed on
integer matrices over the base chain ring.  Group rings get there by
restriction of scalars, never by elimination over the group ring itself,
and ``span_rows_base`` is its one construction.  For spans, an R-vector v
becomes its translates, the base coordinates of g_t*v for each group
element g_t; for maps, ``Matrix.to_base`` is the transpose of the
translates of the columns.  A chain ring is its own base: its matrices and
vectors are used as they are.

The canonical form used throughout is the Howell form: the unique reduced
row form attached to a row module over Z/p^m.  Two generating sets span the
same row module exactly when their Howell forms are identical, which is what
makes ideals and submodules comparable by simple equality.
"""

from __future__ import annotations

from functools import cache, cached_property
from itertools import combinations
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


class ChainRing:
    """The ring Z/p^m: a finite chain ring with maximal ideal (p).

    Rings compare and hash by (p, m), so equal rings built apart are
    interchangeable as dict keys and in ``Matrix`` equality.
    """

    def __init__(self, p: int, m: int):
        self.p = p
        self.m = m

    def __eq__(self, other):
        if other.__class__ is not ChainRing:
            return NotImplemented
        return self.p == other.p and self.m == other.m

    def __hash__(self):
        return hash((self.p, self.m))

    def __repr__(self) -> str:
        return f"ChainRing(p={self.p!r}, m={self.m!r})"

    @cached_property
    def n(self) -> int:
        return self.p ** self.m

    @property
    def base(self) -> "ChainRing":
        return self

    # Number of group-basis coordinates per element (1: the ring is its own base).
    rank = 1
    orders: tuple = ()

    def exp_to_index(self, exps) -> int:
        """The index of a group element: the trivial group has one, at 0."""
        return 0

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
        return _val(a % self.n, self.p, self.m)

    def is_unit(self, a: int) -> bool:
        return a % self.p != 0

    def random_element(self, rng) -> int:
        return rng.randrange(self.n)

    def random_unit(self, rng) -> int:
        while True:
            x = rng.randrange(self.n)
            if x % self.p != 0:
                return x

    # Restriction of scalars: the ring is its own base, so these copy.

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


class GroupRing:
    """(Z/p^m)[G] for G a finite abelian p-group given by cyclic orders.

    ``orders`` lists the orders p^{e_i} of the cyclic factors.  Group elements
    are indexed 0..|G|-1 in mixed-radix order of their exponent tuples, so
    index 0 is the identity.  A ring element is the tuple of its |G|
    coordinates over the base ring.  Products read the group's shared
    multiplication rows, one row per nonzero coordinate of the first factor,
    so a sparse first factor (a group element, a short polynomial in one)
    costs O(|support|*|G|) and builds only the rows it reads.  Rings compare
    and hash by (base, orders).
    """

    def __init__(self, base: ChainRing, orders: tuple):
        for d in orders:
            if not power_exponent(d, base.p):
                raise ValueError(
                    f"group factor order {d} is not a positive power of p={base.p}"
                )
        self.base = base
        self.orders = orders

    def __eq__(self, other):
        if other.__class__ is not GroupRing:
            return NotImplemented
        return self.base == other.base and self.orders == other.orders

    def __hash__(self):
        return hash((self.base, self.orders))

    def __repr__(self) -> str:
        return f"GroupRing(base={self.base!r}, orders={self.orders!r})"

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

    # Restriction of scalars: each element becomes its |G| coordinates.

    def vec_to_base(self, vec) -> list:
        n = self.base.n
        return [c % n for x in vec for c in x]

    def vec_from_base(self, flat) -> list:
        d = self.rank
        return [self.reduce(flat[i * d:(i + 1) * d])
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

    Each row's first nonzero entry is its pivot, exactly p^k: the final
    reductions only touch the columns past a row's own pivot.  So
    ``membership_int`` and ``row_module_size`` read the pivots as they are.
    """
    n = p ** m
    work = [[c % n for c in r] for r in rows]
    work = [r for r in work if any(r)]
    result = []  # (pivot_col, row) in increasing pivot_col order
    for j in range(ncols):
        if not work:
            break
        rest = []
        pivot = None
        for r in work:
            x = r[j]
            if not x:
                rest.append(r)
                continue
            # Keep the entry of minimal valuation at column j as the pivot,
            # valued once, then eliminate the other row exactly (the
            # quotient exists in a chain ring).
            v = 0 if x % p else _val(x, p, m)
            if pivot is None or v < vp:
                pivot, r = r, pivot
                vp, pk = v, p ** v
                unit_inv = pow(x // pk, -1, n)
                if r is None:
                    continue
            q = (r[j] // pk) * unit_inv % n
            r = [(a - q * b) % n for a, b in zip(r, pivot)]
            if any(r):
                rest.append(r)
        work = rest
        if pivot is not None:
            pivot = [(unit_inv * a) % n for a in pivot]
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
    """Whether vector x lies in the row module given by its Howell form.

    ``howell_rows`` must be a ``howell_int`` form: each row's first nonzero
    entry is its pivot, an exact power of p, and the pivot columns
    increase.  The pivots are read, not valued.
    """
    n = p ** m
    x = [c % n for c in x]
    j = 0
    for row in howell_rows:
        while not row[j]:
            j += 1
        if x[j]:
            pivot = row[j]
            if x[j] % pivot:
                return False
            q = x[j] // pivot
            for t in range(j, len(x)):
                x[t] = (x[t] - q * row[t]) % n
        j += 1
    return not any(x)


def row_module_size(howell_rows, p: int, m: int) -> int:
    """Cardinality of the row module from its Howell form.

    ``howell_rows`` must be a ``howell_int`` form, whose pivots are exact
    powers of p: a pivot p^k contributes a factor p^(m-k) = p^m / p^k.
    """
    n = p ** m
    size = 1
    j = 0
    for row in howell_rows:
        while not row[j]:
            j += 1
        size *= n // row[j]
        j += 1
    return size


def smith_int(A, p: int, m: int, left: bool = True):
    """Smith form over Z/p^m: returns (exps, log, Q) with P.A.Q = diag(p^e).

    ``exps`` lists the exponents e of the nonzero-strip diagonal (an entry m
    denotes 0).  Q (g x g) is invertible over Z/p^m.  Chain rings admit this
    form because the minimal-valuation entry divides every other entry, so
    elimination is exact.

    The invertible left transform P (k x k) is never built: ``log`` records
    the row operations that make it, one entry ``(row, unit, eliminations)``
    per pivot, in order.  At the t-th pivot, rows t and ``row`` are swapped,
    row t is scaled by ``unit``, and for each ``(i, q)`` of
    ``eliminations`` q times row t is subtracted from row i > t.
    ``back_substitute`` replays it on a right-hand side, which gives P.b in
    O(eliminations) instead of O(k^2).  Callers that only read ``exps`` and
    Q (kernels) pass ``left=False`` and get None in place of the log.

    Only ``exps``, ``log`` and Q are meaningful.  The working copy of A is
    not left in Smith form: column operations are applied to Q alone, so
    each pivot row keeps its entries past the pivot.
    """
    n = p ** m
    k = len(A)
    g = len(A[0]) if k else 0
    M = [[c % n for c in row] for row in A]
    Q = [[int(i == j) for j in range(g)] for i in range(g)]
    log = [] if left else None
    exps = []
    top = 0
    while top < min(k, g):
        # Find the entry of minimal valuation in the remaining block.
        # The first unit ends the search; other entries are valued.
        best, bi, bj = m, -1, -1
        for i in range(top, k):
            row = M[i]
            for j in range(top, g):
                x = row[j]
                if x:
                    if x % p:
                        best, bi, bj = 0, i, j
                        break
                    v = _val(x, p, m)
                    if v < best:
                        best, bi, bj = v, i, j
            if best == 0:
                break
        if bi < 0:
            break
        if bi != top:
            M[top], M[bi] = M[bi], M[top]
        # Rows above ``top`` are never read again, so the column swap only
        # touches the rows from ``top`` down.  (They are not zero past
        # their pivots: M gets no column operations, see below.)
        if bj != top:
            for row in M[top:]:
                row[top], row[bj] = row[bj], row[top]
            for row in Q:
                row[top], row[bj] = row[bj], row[top]
        v = best
        pk = p ** v
        u_inv = pow(M[top][top] // pk, -1, n)
        pivot_row = M[top] = [(u_inv * c) % n for c in M[top]]
        eliminations = []
        for i in range(top + 1, k):
            if M[i][top]:
                q = M[i][top] // pk
                M[i] = [(a - q * b) % n for a, b in zip(M[i], pivot_row)]
                eliminations.append((i, q))
        if left:
            log.append((bi, u_inv, eliminations))
        # After the eliminations column ``top`` of M is zero but for the
        # pivot, so a column operation of M would only change the pivot
        # row, which nothing reads again: only Q is updated, and the pivot
        # row keeps its entries past the pivot.
        for j in range(top + 1, g):
            if pivot_row[j]:
                q = pivot_row[j] // pk
                for row in Q:
                    row[j] = (row[j] - q * row[top]) % n
        exps.append(v)
        top += 1
    return exps, log, Q


def kernel_int(A, p: int, m: int) -> list:
    """Generators of {x in (Z/p^m)^g : A.x = 0}, as a list of length-g rows."""
    n = p ** m
    k = len(A)
    g = len(A[0]) if k else 0
    if g == 0:
        return []
    if k == 0:
        return [[int(i == j) for j in range(g)] for i in range(g)]
    exps, _log, Q = smith_int(A, p, m, left=False)
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
    """One x with A.x = b from the Smith data (exps, log, Q) of A, or None.

    The one back-substitution behind every solve: factor A once with
    ``smith_int`` and call this per right-hand side.  ``b`` must be reduced
    mod p^m.  With P.A.Q = D the system becomes D.y = P.b, solved entry by
    entry, and x = Q.y; P.b comes from replaying the row operations of the
    log on b.
    """
    exps, log, Q = smith
    n = p ** m
    pb = list(b)
    for top, (row, unit, eliminations) in enumerate(log):
        if row != top:
            pb[top], pb[row] = pb[row], pb[top]
        x = pb[top] = pb[top] * unit % n
        if x:
            for i, q in eliminations:
                pb[i] = (pb[i] - q * x) % n
    for i in range(len(exps), len(pb)):
        if pb[i]:
            return None
    y = []
    for i, e in enumerate(exps):
        pe = p ** e
        if pb[i] % pe:
            return None
        # Solve p^e * y_i = pb[i]: any lift of the exact quotient works.
        y.append(pb[i] // pe % n)
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
    """Determinant over Z/p^m by exact chain-ring elimination.  No package
    code calls it: it is the tests' chain-ring reference for ``minors``, and
    perfbench's tracer still wraps it."""
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


@cache
def _laplace_plan(n: int, k: int) -> tuple:
    """Per k-subset C of range(n), in lexicographic order, the triples
    (c, sign, b) over the columns c of C: the cofactor sign of c's place in
    C, and the index b of C without c among the (k-1)-subsets.
    ``biduals._contraction_plan(n, k, 1)`` holds the same incidences,
    grouped by the (k-1)-subset instead."""
    smaller = {B: b for b, B in enumerate(combinations(range(n), k - 1))}
    return tuple(
        tuple((c, -1 if t % 2 else 1, smaller[C[:t] + C[t + 1:]])
              for t, c in enumerate(C))
        for C in combinations(range(n), k))


def minors(ring, rows, ncols: int) -> list:
    """The k x k minors of k rows on every k-subset of range(ncols), in
    lexicographic order (``biduals.r_subsets``): the coordinates of
    row_1 wedge ... wedge row_k.

    Laplace expansion along the first row, built from the last row up: the
    minors of the rows from j on are row j against the minors of the rows
    after it on the subsets one smaller, so each smaller minor is computed
    once.  Over a chain ring each sum accumulates in one int, reduced once;
    over a group ring in one ``ring.dot``.  No rows give the one empty minor
    1; more rows than columns give none.
    """
    out = [ring.one]
    k = len(rows)
    for j in range(k - 1, -1, -1):
        row = rows[j]
        plan = _laplace_plan(ncols, k - j)
        if ring.rank == 1:
            modulus = ring.n
            prev, out = out, []
            for terms in plan:
                acc = 0
                for c, s, b in terms:
                    acc += s * row[c] * prev[b]
                out.append(acc % modulus)
        else:
            signed = {1: row, -1: [ring.neg(x) for x in row]}
            out = [ring.dot([signed[s][c] for c, s, _ in terms],
                            [out[b] for _, _, b in terms])
                   for terms in plan]
    return out


# ---------------------------------------------------------------------------
# Matrices over a chain ring or group ring.
# ---------------------------------------------------------------------------


class Matrix:
    """A dense matrix over a ChainRing or GroupRing with shape checking.

    ``Matrix(ring, rows)`` reduces every entry and rejects ragged rows, so
    rows from outside (JSON included) always pass through both.  ``zeros``,
    ``identity``, ``mul``, ``transpose``, ``stack`` and ``sub`` build their
    result from rows they have just produced, already reduced and of one
    length, and pass ``reduced=True`` to skip that pass; such rows must be
    fresh lists the new matrix owns.  ``to_base`` restricts scalars to Z/p^m: the transpose of
    the translates of its columns (``span_rows_base``).
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
        return cls(ring, [[z] * ncols for _ in range(nrows)], ncols=ncols,
                   reduced=True)

    @classmethod
    def identity(cls, ring, size: int) -> "Matrix":
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(size)]
                          for i in range(size)], ncols=size, reduced=True)

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

    def columns(self) -> list:
        """The columns as tuples, read without building the transpose; with
        no rows, ``ncols`` empty columns."""
        return list(zip(*self.rows)) if self.rows else [()] * self.ncols

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
        cols = other.columns()
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
        """Restriction of scalars: the int matrix B with B.vec(x) = vec(A.x).
        Its column (j, t) is g_t times column j of A, so B is the transpose
        of ``span_rows_base`` of the columns (a copy of A over a chain ring);
        with no columns, B still has nrows*|G| (empty) rows."""
        ring = self.ring
        if ring.rank == 1:
            return [row[:] for row in self.rows]
        if not self.ncols:
            return [[] for _ in range(self.nrows * ring.rank)]
        return [list(col) for col in
                zip(*span_rows_base(ring, zip(*self.rows)))]


def span_rows_base(ring, vectors) -> list:
    """Base rows whose span is the R-span of the given R-vectors: the
    restriction of scalars behind every span and every ``Matrix.to_base``.

    Over a chain ring each vector is its own row.  Over a group ring a
    vector v gives |G| rows, row t the base coordinates of g_t * v in the
    group basis, so the base-ring row span equals the R-span of v.
    """
    if ring.rank == 1:
        n = ring.n
        return [[x % n for x in vec] for vec in vectors]
    n = ring.base.n
    table = ring._mul_index
    # g_t * g_j = g_table[t][j], so g_t * x has x[j] at coordinate
    # table[t][j]: read through the inverse permutation, the row of g_t^-1.
    inverses = [table[table[t].index(0)] for t in range(ring.rank)]
    rows = []
    for vec in vectors:
        xs = [[c % n for c in x] for x in vec]
        rows.extend([x[j] for x in xs for j in inv] for inv in inverses)
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
        vec = ring.vec_from_base(row[:width])
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
    """Determinant of a square matrix over the ring: its one maximal minor
    (``minors``)."""
    size = len(rows)
    if size and len(rows[0]) != size:
        raise ValueError("determinant of a non-square matrix")
    return minors(ring, rows, size)[0]


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
    if type(data) is not list:
        raise ValueError(f"group-ring element {data!r} is not a list of "
                         f"{ring.rank} coordinates")
    if len(data) != ring.rank:
        raise ValueError(f"group-ring element has {len(data)} "
                         f"coordinates, not {ring.rank}")
    return tuple(int_from_json(c, "coordinate") % ring.base.n for c in data)


def matrix_to_json(A: Matrix) -> list:
    return [[element_to_json(A.ring, x) for x in row] for row in A.rows]


def matrix_from_json(ring, data) -> Matrix:
    return Matrix(ring, [[element_from_json(ring, x) for x in row] for row in data])

"""Exact linear algebra over Z or Z/m and bounded chain complexes of
finite-rank free modules.

Cohomological convention throughout: the differential raises degree,
d^n : C^n -> C^(n+1).  The tensor differential follows the Koszul rule
d(x (x) y) = dx (x) y + (-1)^|x| x (x) dy.  Duality uses the plain
transpose for the dual differential and puts the compensating signs
(-1)^(p(p+1)/2) into the evaluation and coevaluation maps; this is the
unique distribution of signs (given the Koszul rule above) for which
evaluation/coevaluation are chain maps, the triangle composites are the
strict identity, the categorical trace is the alternating trace, and
dualizing twice returns the original matrices on the nose.

In degree n, a (x) b is the sum of the summands (p, q), p + q = n, by q
ascending, each with the row-major basis (i, j) -> i * rank_b(q) + j.
`tensor_layout` works out every degree's rank and summand offsets in one
pass, once per pair of rank profiles; cx_tensor, map_tensor and the
structure maps read it rather than rescan the ranks.

The structure maps depend on the ranks and the ring alone, not on the
differentials, so their matrices are built once per rank profile and shared
by every complex that has it: the permutations of swap_map, assoc_map and
assoc_map_inv, and the one matrix of ev_map and coev_map.  map_tensor's are
shared by every pair of maps with the same ranks and component values.
Each public function wraps them in a ChainMap with its own endpoints.  The
ring is in every key: it fixes how the signs normalise, and over Z/1 every
permutation is the zero matrix.  map_identity is cached by its complex.
At points with one stalk corrcat repeats each operation on the same
objects, so `memo(fn, a, b)`, one LRU keyed by fn and the identities of its
two operands, keeps chain-map tensors (map_tensor), composites
(map_compose_shared), products over the base (finspan.prod_over_base) and
pullbacks (basefunc.pull_space).
Matrix products are not kept; map_compose, the one composite body, reads
no memo.  There is one Ring per modulus, so rings compare by identity, and
built values are handed on: the direct sum of one summand is that summand,
and map_direct_sum takes the sums its caller holds.

Matrix, Complex and ChainMap, like the values of finspan, sheafops and
corrcat, are plain dataclasses, read-only by convention: nothing assigns to
a value once it is built.  They are built per instance, and a frozen
dataclass pays an object.__setattr__ call for every field it stores.  Each
hashes as a frozen one would: ChainMap as the tuple of its compared fields,
Matrix and Complex by their cached hashes.  ChainMap.component(n) finds
n's position in a degree -> position map built once per pair of rank
profiles.

Each invariant is checked once, where its value is built.  A constructor
checks shape: Matrix its rows, Complex and ChainMap the degrees, shapes and
ring of their blocks.  The make_* helpers convert raw input (rows through
`mat`, an absent block zero) and check the identities: d.d = 0 in
sheafops.make_sheaf, commutation in make_chain_map.  The kernels build
through the constructors; only their matrices skip Matrix's scan.

A Matrix stores each row as a dict from the column of each nonzero entry to
that entry, normalised, with no zero stored; that one form is what every
kernel reads and writes, so a kernel's cost follows the nonzeros and the
row count, not rows x cols.  `mat` is the normalising entry point for
dense rows from outside (the parser, the generator, tests), and `entries`
is the dense view, built only when read (by the emitter and the tests).
Rows are never changed once built, so kernels share them: a product row
that is one row of the right factor is that row.  A signed permutation
(mat_identity, the symmetries, the reassociations and their inverses) is a
matrix with one entry per row, each row a row of one identity matrix or
of its negative, so building one copies references and multiplying by it
picks rows.  One kernel, _placed, lays rows out at offsets, building each
once: tensor differentials, components and mat_block (b (x) [1]); mat_kron
is its one-block case, kept for the tests and the benchmark's kernel layer.
`cx_tensor` knows its ranks at once and builds each differential when
first read, and `map_tensor` each component: the rank-r^3 tensors that the
triangle certificates pass through stay unbuilt, and a trace, which reads
e (x) 1 after the unit, builds its degree 0 alone.
Equality and hashes are by value, and an object equals itself without
reading anything.  Hashing a tensor builds its differentials, so cx_tensor
keys a tensor by its factors (Complex.key), and the program asks the other
kernel caches only about eager complexes: no lookup hashes a tensor.
"""

from __future__ import annotations

import copyreg
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, compress
from typing import Callable, Iterable, Mapping, Sequence, Union


@dataclass(frozen=True, init=False, eq=False)
class Ring:
    """Coefficient ring: modulus 0 means Z, modulus m > 0 means Z/m.  One
    Ring per modulus, kept once validated: rings compare by identity."""

    modulus: int

    def __new__(cls, modulus: int) -> Ring:
        ring = _RINGS.get(modulus)
        if ring is None:
            if modulus < 0:
                raise ValueError("modulus must be non-negative")
            ring = _RINGS[modulus] = object.__new__(cls)
            object.__setattr__(ring, "modulus", modulus)
        return ring

    def __hash__(self) -> int:  # the kernel caches hash a ring on every lookup
        return self.modulus

    def norm(self, x: int) -> int:
        return x % self.modulus if self.modulus else x


_RINGS: dict[int, Ring] = {}  # not a cache: emptying it would split Z in two
copyreg.pickle(Ring, lambda ring: (Ring, (ring.modulus,)))  # a copy or an unpickled ring is the kept one
ZZ = Ring(0)


@dataclass(init=False, eq=False, repr=False)
class Matrix:
    """rows x cols matrix over a Ring, stored by its nonzero entries alone:
    nonzero[i] maps the column of each nonzero entry of row i to that entry,
    normalised.  No zero is stored, so equal matrices have equal rows.

    Matrix(ring, rows, cols, entries) takes dense rows, checks their shape
    and normalisation and keeps their nonzeros.  `entries` is the dense
    view, built when first read.  Equality, hash and repr are by value.  A
    row is never changed once built, so the kernels share rows between
    matrices.
    """

    ring: Ring
    rows: int
    cols: int
    nonzero: tuple[dict[int, int], ...]

    def __init__(self, ring: Ring, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> None:
        ent, m = entries, ring.modulus
        if type(ent) is not tuple or len(ent) != rows:
            raise ValueError(f"a {rows}x{cols} matrix needs a tuple of {rows} rows")
        if ent and (set(map(type, ent)) != {tuple} or set(map(len, ent)) != {cols}):
            raise ValueError(f"rows of a {rows}x{cols} matrix must be tuples of length {cols}")
        if m and ent and cols and (min(map(min, ent)) < 0 or max(map(max, ent)) >= m):
            raise ValueError(f"entries over Z/{m} must lie in 0..{m - 1}")
        self.ring, self.rows, self.cols = ring, rows, cols
        self.nonzero = tuple({j: x for j, x in enumerate(row) if x} for row in ent)

    @cached_property
    def entries(self) -> tuple[tuple[int, ...], ...]:
        zero = (0,) * self.cols
        return tuple(tuple(map(row.get, range(self.cols), zero)) if row else zero for row in self.nonzero)

    @cached_property
    def _hash(self) -> int:  # computed once: the kernel caches hash their arguments on every lookup
        return hash((self.ring, self.rows, self.cols, tuple(frozenset(row.items()) for row in self.nonzero)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        shape = (self.ring, self.rows, self.cols)
        return self is other or shape == (other.ring, other.rows, other.cols) and self.nonzero == other.nonzero

    def __repr__(self) -> str:
        return f"Matrix(ring={self.ring!r}, rows={self.rows}, cols={self.cols}, entries={self.entries!r})"


def mat(ring: Ring, rows: Sequence[Sequence[int]], cols: int | None = None) -> Matrix:
    """The matrix of raw rows, entries normalised; Matrix checks the shape.
    cols defaults to the length of the first row, or 0 with no rows."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    return Matrix(ring, len(rows), cols, tuple(tuple(map(ring.norm, r)) for r in rows))


def _kernel_matrix(ring: Ring, rows: int, cols: int, nonzero: Iterable[dict[int, int]]) -> Matrix:
    """The trusted constructor of the kernels below, which build the shape
    they state and store only normalised nonzeros (through _normed and
    _scaled, or as entries of normalised matrices); the tests hold each
    kernel to an independent oracle.  It skips Matrix()'s checks, which
    would cost as much as the kernel."""
    m = object.__new__(Matrix)
    m.ring, m.rows, m.cols, m.nonzero = ring, rows, cols, tuple(nonzero)
    return m


def _normed(row: dict[int, int], modulus: int) -> dict[int, int]:
    """row with its values normalised over Z/modulus and its zeros dropped."""
    if modulus:
        return {j: r for j, x in row.items() if (r := x % modulus)}
    return {j: x for j, x in row.items() if x}


def _scaled(row: dict[int, int], x: int, modulus: int) -> dict[int, int]:
    """x times a row, for a normalised nonzero x (mat_mul keeps the row
    itself for 1).  Over Z a product of nonzeros is nonzero, so only Z/m
    normalises."""
    out = {j: x * y for j, y in row.items()}
    return _normed(out, modulus) if modulus else out


def mat_zero(ring: Ring, rows: int, cols: int) -> Matrix:
    return _kernel_matrix(ring, rows, cols, ({},) * rows)


@lru_cache(maxsize=4096)
def mat_identity(ring: Ring, n: int) -> Matrix:
    one = ring.norm(1)  # 0 over Z/1
    return _kernel_matrix(ring, n, n, [{i: one} for i in range(n)] if one else [{}] * n)


def _same_ring(a: Matrix | Complex, b: Matrix | Complex) -> Ring:
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    return a.ring


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    ring = _same_ring(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} + {b.rows}x{b.cols}")
    m = ring.modulus
    return _kernel_matrix(ring, a.rows, a.cols, (
        _normed({**ra, **{j: ra.get(j, 0) + y for j, y in rb.items()}}, m) if ra and rb else ra or rb
        for ra, rb in zip(a.nonzero, b.nonzero)))


def mat_scale(c: int, a: Matrix) -> Matrix:
    c, m = a.ring.norm(c), a.ring.modulus
    if not c:
        return mat_zero(a.ring, a.rows, a.cols)
    return _kernel_matrix(a.ring, a.rows, a.cols, (_scaled(row, c, m) for row in a.nonzero))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ring = _same_ring(a, b)
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    m, brows = ring.modulus, b.nonzero
    rows = []
    for arow in a.nonzero:
        if len(arow) == 1:  # a row of b times x: a permutation picks b's rows
            k, = arow
            x = arow[k]
            rows.append(brows[k] if x == 1 else _scaled(brows[k], x, m))
            continue
        acc = {}
        for k, x in arow.items():
            for j, y in brows[k].items():
                acc[j] = acc.get(j, 0) + x * y
        rows.append(_normed(acc, m))
    return _kernel_matrix(ring, a.rows, b.cols, rows)


def mat_trace(a: Matrix) -> int:
    if a.rows != a.cols:
        raise ValueError(f"trace of non-square {a.rows}x{a.cols} matrix")
    return a.ring.norm(sum(row.get(i, 0) for i, row in enumerate(a.nonzero)))


def mat_transpose(a: Matrix) -> Matrix:
    rows = [{} for _ in range(a.cols)]
    for i, row in enumerate(a.nonzero):
        for j, x in row.items():
            rows[j][i] = x
    return _kernel_matrix(a.ring, a.cols, a.rows, rows)


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product, index (i,k) -> i*b.rows + k: _placed's one-block case."""
    return _placed(_same_ring(a, b), a.rows * b.rows, a.cols * b.cols, ((0, 0, a, b),))


def _placed(ring: Ring, rows: int, cols: int, blocks: Iterable[tuple[int, int, Matrix, Matrix]]) -> Matrix:
    """The rows x cols matrix holding a (x) b with its corner at (r0, c0) for
    each (r0, c0, a, b) of blocks, and zero elsewhere.  Each row of each
    a (x) b is built once, at its offset; blocks do not overlap, and a row
    that two blocks reach holds the entries of both.  Over Z no product of
    nonzeros is zero, so only Z/m normalises."""
    m, out = ring.modulus, [{}] * rows  # zero rows share one empty dict
    for r0, c0, a, b in blocks:
        bc, live = b.cols, [(k, row) for k, row in enumerate(b.nonzero) if row]  # rows of b not zero
        for i in compress(range(a.rows), a.nonzero):
            arow, t0 = a.nonzero[i], r0 + i * b.rows
            for k, brow in live:
                row = {c0 + j * bc + l: x * z for j, x in arow.items() for l, z in brow.items()}
                row, t = _normed(row, m) if m else row, t0 + k
                out[t] = {**out[t], **row} if out[t] else row
    return _kernel_matrix(ring, rows, cols, out)


def mat_block(
    ring: Ring,
    row_parts: Sequence[int],
    col_parts: Sequence[int],
    blocks: Mapping[tuple[int, int], Matrix],
) -> Matrix:
    """Assemble a block matrix, absent blocks zero: _placed lays each block out as block (x) [1]."""
    row_off, col_off = [0, *accumulate(row_parts)], [0, *accumulate(col_parts)]
    one, placed = mat_identity(ring, 1), []
    for (bi, bj), m in blocks.items():
        if (m.rows, m.cols) != (row_parts[bi], col_parts[bj]):
            raise ValueError("block shape mismatch")
        placed.append((row_off[bi], col_off[bj], m, one))
    return _placed(ring, row_off[-1], col_off[-1], placed)


Blocks = Union[Matrix, Sequence[Sequence[int]], None]  # a block as given: a matrix, raw rows, or absent


def _filled(ring: Ring, blocks: Mapping[int, Blocks], shapes: Mapping[int, tuple[int, int]]) -> tuple:
    """(n, block) at each degree of shapes and of blocks, ascending: raw rows
    go through mat(), a block absent at a degree of shapes is zero of its
    shape.  The constructor they are for checks their degrees and shapes."""
    out = []
    for n in sorted({*shapes, *blocks}):
        m, (rows, cols) = blocks.get(n), shapes.get(n, (0, 0))
        if m is None:
            m = mat_zero(ring, rows, cols)
        elif not isinstance(m, Matrix):
            m = mat(ring, m, None if m else cols)
        out.append((n, m))
    return tuple(out)


def _checked_block(ring: Ring, m: Matrix, rows: int, cols: int, what: str, n: int) -> Matrix:
    """m, once checked to be the rows x cols block at degree n over ring."""
    if (m.rows, m.cols) != (rows, cols):
        raise ValueError(f"{what} at degree {n} has shape {m.rows}x{m.cols}, expected {rows}x{cols}")
    if m.ring is not ring:
        raise ValueError(f"ring mismatch in {what} at degree {n}")
    return m


# ---------------------------------------------------------------------------
# complexes


class OnDemand(Sequence):
    """The entries compute(0), ..., compute(n - 1), each computed when first
    read and kept; a slice reads its entries and gives their tuple.
    Comparing and hashing read them all as a slice does (an IndexError in
    compute raises, where iteration would stop), so it equals and hashes
    like their tuple, but equals itself without reading any.  Once all are
    read it drops compute, and what compute holds."""

    def __init__(self, n: int, compute: Callable[[int], object]):
        self._compute = compute if n else None
        self._done: list = [None] * n
        self._missing = n

    def __len__(self) -> int:
        return len(self._done)

    def __getitem__(self, i: int | slice):
        u = self._done[i]
        if u is None:
            u = self._done[i] = self._compute(range(len(self._done))[i])
            self._missing -= 1
            if not self._missing:
                self._compute = None
        elif type(i) is slice:  # the tuple of the slice's entries, each read
            return tuple(map(self.__getitem__, range(len(self._done))[i]))
        return u

    def __eq__(self, other):
        if not isinstance(other, (tuple, OnDemand)):
            return NotImplemented
        return self is other or self[:] == other[:]

    def __hash__(self):
        return hash(self[:])

    def __repr__(self) -> str:
        return repr(self[:])


@dataclass
class Complex:
    """Bounded complex of finite-rank free modules.

    ranks holds (degree, rank) pairs with rank > 0, sorted by degree; diff
    holds (n, d^n) for every degree n where both rank(n) and rank(n+1) are
    positive (zero matrices included, so equality of complexes is plain
    structural equality).  cx_tensor's is an OnDemand: each differential is
    built and checked when first read.

    `key` says how it was built: a tensor's is the pair of its factors'
    keys, any other complex is its own.  Equal keys mean equal values, so
    cx_tensor keys a tensor by its factors and never hashes its
    differentials; complexes equal in value but built otherwise just miss.
    """

    ring: Ring
    ranks: tuple[tuple[int, int], ...]
    diff: Sequence[tuple[int, Matrix]]
    _rank: dict = field(default=None, init=False, compare=False, repr=False)
    _at: dict = field(default=None, init=False, compare=False, repr=False)
    _key: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        rank = dict(self.ranks)
        below = None
        for n, r in self.ranks:
            if r < 1 or below is not None and n <= below:
                raise ValueError(f"ranks {self.ranks} need strictly increasing degrees and positive ranks")
            below = n
        at = {n: i for i, n in enumerate(n for n, _ in self.ranks if n + 1 in rank)}  # d^n is diff[at[n]]
        self._rank, self._at = rank, at
        if not isinstance(self.diff, OnDemand):  # cx_tensor checks each as it builds it
            degrees = [n for n, _ in self.diff]
            if degrees != list(at):
                raise ValueError(f"differentials at degrees {degrees} for ranks {self.ranks}")
            for n, m in self.diff:
                _checked_block(self.ring, m, rank[n + 1], rank[n], "differential", n)

    @cached_property
    def _hash(self) -> int:  # computed once, as for Matrix
        return hash((self.ring, self.ranks, self.diff))

    def __hash__(self) -> int:
        return self._hash

    @property
    def key(self) -> Complex | tuple:
        return self if self._key is None else self._key

    def rank(self, n: int) -> int:
        return self._rank.get(n, 0)

    def d(self, n: int) -> Matrix:
        i = self._at.get(n)
        if i is None:
            return mat_zero(self.ring, self.rank(n + 1), self.rank(n))
        return self.diff[i][1]


def make_complex(ring: Ring, ranks: Mapping[int, int], diff: Mapping[int, Blocks] | None = None) -> Complex:
    """The complex of the nonzero ranks; an absent differential is zero."""
    rk = tuple(sorted((int(n), r) for n, r in ranks.items() if r != 0))
    rank = dict(rk)
    shapes = {n: (rank[n + 1], r) for n, r in rk if n + 1 in rank}
    return Complex(ring, rk, _filled(ring, diff or {}, shapes))


@lru_cache(maxsize=64)
def unit_complex(ring: Ring) -> Complex:
    return make_complex(ring, {0: 1})


def cx_validate(c: Complex) -> None:
    """Check d.d = 0; raises with the first failing degree."""
    for n, _ in c.ranks:
        if c.rank(n + 1) and c.rank(n + 2):
            prod = mat_mul(c.d(n + 1), c.d(n))
            if prod != mat_zero(c.ring, c.rank(n + 2), c.rank(n)):
                raise ValueError(f"d.d != 0 at degree {n}")


@lru_cache(maxsize=4096)
def tensor_layout(a_ranks: tuple, b_ranks: tuple) -> tuple[dict, dict]:
    """The layout of a (x) b from the ranks of a and b, in one pass: degree ->
    rank, and degree -> {summand (p, q): offset}, both by degree ascending.
    Callers share the dicts, and only read them."""
    ranks, offsets = {}, {}
    for q, rq in b_ranks:  # q ascending, so each degree's summands are too
        for p, rp in a_ranks:
            n = p + q
            offsets.setdefault(n, {})[(p, q)] = ranks.get(n, 0)
            ranks[n] = ranks.get(n, 0) + rp * rq
    degrees = sorted(ranks)
    return {n: ranks[n] for n in degrees}, {n: offsets[n] for n in degrees}


def cx_tensor(a: Complex, b: Complex) -> Complex:
    """The tensor complex, cached by its factors' keys."""
    return _tensor_by_key(a.key, b.key)


@lru_cache(maxsize=4096)
def _tensor_by_key(ka: Complex | tuple, kb: Complex | tuple) -> Complex:
    # a tensor factor is looked up again by its key, so it is the one cached
    a, b = (k if isinstance(k, Complex) else _tensor_by_key(*k) for k in (ka, kb))
    return tensor_complex(a, b)


cx_tensor.cache_info, cx_tensor.cache_clear = _tensor_by_key.cache_info, _tensor_by_key.cache_clear


def tensor_complex(a: Complex, b: Complex) -> Complex:
    """cx_tensor uncached: its ranks at once, each differential when first read."""
    ring = _same_ring(a, b)
    if a.ranks == ((0, 1),) or b.ranks == ((0, 1),):  # the unit: 1 (x) b is b, basis and all
        return b if a.ranks == ((0, 1),) else a
    ranks, offsets = tensor_layout(a.ranks, b.ranks)
    stored = [n for n in ranks if n + 1 in ranks]

    def build(i: int) -> tuple[int, Matrix]:
        n = stored[i]
        tgt_off = offsets[n + 1]
        blocks = []
        for (p, q), co in offsets[n].items():
            if (p + 1, q) in tgt_off:  # d_a (x) 1
                blocks.append((tgt_off[(p + 1, q)], co, a.d(p), mat_identity(ring, b.rank(q))))
            if (p, q + 1) in tgt_off:  # (-1)^p 1 (x) d_b
                blocks.append((tgt_off[(p, q + 1)], co, mat_identity(ring, a.rank(p)),
                               mat_scale(-1 if p % 2 else 1, b.d(q))))
        d = _placed(ring, ranks[n + 1], ranks[n], blocks)
        return n, _checked_block(ring, d, ranks[n + 1], ranks[n], "differential", n)

    t = Complex(ring, tuple(ranks.items()), OnDemand(len(stored), build))
    t._key = (a.key, b.key)
    return t


@lru_cache(maxsize=4096)
def cx_dual(a: Complex) -> Complex:
    """Dual complex: rank(n) = rank(-n), differential the plain transpose.

    With the signed evaluation below this is an involution on the nose.
    """
    diff = {-n - 1: mat_transpose(m) for n, m in a.diff}
    return make_complex(a.ring, {-n: r for n, r in a.ranks}, diff)


def cx_direct_sum(parts: Sequence[Complex], ring: Ring) -> Complex:
    """The direct sum, summands in order; the sum of one summand is that summand."""
    for p in parts:
        if p.ring != ring:
            raise ValueError("ring mismatch")
    if len(parts) == 1:
        return parts[0]
    degrees = sorted({n for p in parts for n, _ in p.ranks})
    ranks = {n: sum(p.rank(n) for p in parts) for n in degrees}
    diff = {}
    for n in degrees:
        if ranks.get(n + 1, 0) == 0:
            continue
        blocks = {
            (i, i): parts[i].d(n)
            for i in range(len(parts))
            if parts[i].rank(n) and parts[i].rank(n + 1)
        }
        diff[n] = mat_block(
            ring, [p.rank(n + 1) for p in parts], [p.rank(n) for p in parts], blocks
        )
    return make_complex(ring, ranks, diff)


# ---------------------------------------------------------------------------
# chain maps


@dataclass(unsafe_hash=True)
class ChainMap:
    """Degree-zero map of complexes commuting with the differentials.

    components holds (n, f^n) for every degree n where both source and target
    have positive rank, by degree; make_chain_map checks commutation.
    map_tensor's is an OnDemand: each component is built and checked when
    first read.  component(n) reads one by its position among the degrees
    of both complexes, from the map _positions keeps per pair of rank
    profiles, so an OnDemand builds no other."""

    source: Complex
    target: Complex
    components: Sequence[tuple[int, Matrix]]

    def __post_init__(self) -> None:
        ring, src, tgt = _same_ring(self.source, self.target), self.source._rank, self.target._rank
        if type(self.components) is not tuple and isinstance(self.components, OnDemand):
            return  # map_tensor checks each as it builds it
        degrees = [n for n, _ in self.components]
        if degrees != [n for n in src if n in tgt]:
            raise ValueError(f"components at degrees {degrees} for ranks {self.source.ranks} -> {self.target.ranks}")
        for n, m in self.components:
            _checked_block(ring, m, tgt[n], src[n], "component", n)

    def component(self, n: int) -> Matrix:
        i = _positions(self.source.ranks, self.target.ranks).get(n)
        if i is None:
            return mat_zero(self.source.ring, self.target.rank(n), self.source.rank(n))
        return self.components[i][1]


@lru_cache(maxsize=4096)
def _positions(src_ranks: tuple, tgt_ranks: tuple) -> dict[int, int]:
    """Degree -> position among the degrees that both rank profiles have:
    where a chain map between complexes of these ranks keeps its component."""
    tgt = dict(tgt_ranks)
    return {n: i for i, n in enumerate(n for n, _ in src_ranks if n in tgt)}


def make_chain_map(source: Complex, target: Complex, components: Mapping[int, Blocks] | None = None) -> ChainMap:
    """The chain map of the given components, absent ones zero; raises
    unless it commutes with the differentials."""
    shapes = {n: (target.rank(n), r) for n, r in source.ranks if target.rank(n)}
    f = ChainMap(source, target, _filled(source.ring, components or {}, shapes))
    for n, _ in source.ranks:
        if target.rank(n + 1) and mat_mul(target.d(n), f.component(n)) != mat_mul(f.component(n + 1), source.d(n)):
            raise ValueError(f"not a chain map at degree {n}")
    return f


@lru_cache(maxsize=4096)
def map_identity(c: Complex) -> ChainMap:
    return ChainMap(c, c, tuple((n, mat_identity(c.ring, r)) for n, r in c.ranks))


def map_compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if f.target != g.source:
        raise ValueError("composition boundary mismatch")
    comps = tuple((n, mat_mul(g.component(n), f.component(n))) for n, _ in f.source.ranks if g.target.rank(n))
    return ChainMap(f.source, g.target, comps)


def map_compose_shared(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f, kept by memo."""
    return memo(map_compose, g, f)


@lru_cache(maxsize=256)
def _kept(key: tuple) -> list:
    """The slot of key, a function and the ids of its operands: memo fills
    it with the operands and the result, so that no id is reused while the
    slot is kept."""
    return []


def memo(fn: Callable, a, b):
    """fn(a, b), kept for the latest 256 keys of all memos together."""
    kept = _kept((fn, id(a), id(b)))
    if not kept:
        kept += a, b, fn(a, b)
    return kept[-1]


def map_add(f: ChainMap, g: ChainMap) -> ChainMap:
    if f.source != g.source or f.target != g.target:
        raise ValueError("sum of maps with different endpoints")
    return ChainMap(f.source, f.target, tuple((n, mat_add(m, g.component(n))) for n, m in f.components))


def alt_trace(e: ChainMap) -> int:
    """Alternating sum of the degreewise matrix traces of an endomorphism."""
    if e.source != e.target:
        raise ValueError("endomorphism required")
    ring = e.source.ring
    total = 0
    for n, _ in e.source.ranks:
        t = mat_trace(e.component(n))
        total += t if n % 2 == 0 else -t
    return ring.norm(total)


def map_tensor(f: ChainMap, g: ChainMap) -> ChainMap:
    """Tensor of degree-zero chain maps, kept by memo; no Koszul signs arise."""
    return memo(_tensor_map, f, g)


def _tensor_map(f: ChainMap, g: ChainMap) -> ChainMap:
    src, tgt = cx_tensor(f.source, g.source), cx_tensor(f.target, g.target)
    return ChainMap(src, tgt, _tensor_components(src.ring, f.source.ranks, f.target.ranks, f.components,
                                                 g.source.ranks, g.target.ranks, g.components))


@lru_cache(maxsize=256)
def _tensor_components(ring: Ring, fs: tuple, ft: tuple, fc: tuple, gs: tuple, gt: tuple, gc: tuple) -> OnDemand:
    """map_tensor's components, from the ranks and components of its
    factors: each degree's built and checked when first read."""
    src_ranks, src_off = tensor_layout(fs, gs)
    tgt_ranks, tgt_offsets = tensor_layout(ft, gt)
    f, g = dict(fc), dict(gc)
    degrees = [n for n in src_ranks if n in tgt_ranks]

    def build(i: int) -> tuple[int, Matrix]:
        n = degrees[i]
        tgt_off, rows, cols = tgt_offsets[n], tgt_ranks[n], src_ranks[n]
        blocks = [(tgt_off[pq], co, f[pq[0]], g[pq[1]]) for pq, co in src_off[n].items() if pq in tgt_off]
        return n, _checked_block(ring, _placed(ring, rows, cols, blocks), rows, cols, "component", n)

    return OnDemand(len(degrees), build)


def map_direct_sum(
    blocks: Mapping[tuple[int, int], ChainMap],
    sources: Sequence[Complex],
    targets: Sequence[Complex],
    ring: Ring,
    src: Complex | None = None,
    tgt: Complex | None = None,
) -> ChainMap:
    """Map between direct sums assembled from blocks (ti, si) -> ChainMap;
    src and tgt, when given, are the sums of sources and of targets."""
    src = src or cx_direct_sum(sources, ring)
    tgt = tgt or cx_direct_sum(targets, ring)
    comps = []
    for n, rs in src.ranks:
        if tgt.rank(n) == 0:
            continue
        mats = {
            (ti, si): f.component(n)
            for (ti, si), f in blocks.items()
            if targets[ti].rank(n) and sources[si].rank(n)
        }
        comps.append((n, mat_block(ring, [t.rank(n) for t in targets], [s.rank(n) for s in sources], mats)))
    return ChainMap(src, tgt, tuple(comps))


# ---------------------------------------------------------------------------
# homotopies


def homotopy_perturb(e: ChainMap, blocks: Mapping[int, Blocks]) -> ChainMap:
    """e + d.h + h.d for the degree -1 map h with h^n = blocks[n] :
    source^n -> target^(n-1), absent blocks zero; the alternating trace is
    unchanged."""
    src, tgt = e.source, e.target
    read = {n + i for n, _ in e.components for i in (0, 1)}
    shapes = {n: (tgt.rank(n - 1), src.rank(n)) for n in {*blocks, *read}}
    h = {n: _checked_block(src.ring, m, *shapes[n], "homotopy component", n)
         for n, m in _filled(src.ring, blocks, shapes)}
    comps = {}
    for n, m in e.components:
        comps[n] = mat_add(m, mat_add(mat_mul(tgt.d(n - 1), h[n]), mat_mul(h[n + 1], src.d(n))))
    return make_chain_map(src, tgt, comps)


# ---------------------------------------------------------------------------
# duality structure maps

# Sign placed on the evaluation pairing in dual degree p.  Together with the
# plain-transpose dual differential these satisfy: chain-map property of
# ev/coev, strict triangle identities, trace = alternating trace, and
# strict involutivity of the dual.


def pair_sign(p: int) -> int:
    return -1 if (p * (p + 1) // 2) % 2 else 1


@lru_cache(maxsize=4096)
def ev_map(c: Complex) -> ChainMap:
    """Evaluation dual(c) (x) c -> unit, phi (x) x -> sign * phi(x)."""
    src = cx_tensor(cx_dual(c), c)
    comps = {0: _pairing(c.ring, c.ranks, True)} if src.rank(0) else {}
    return make_chain_map(src, unit_complex(c.ring), comps)


@lru_cache(maxsize=4096)
def coev_map(c: Complex) -> ChainMap:
    """Coevaluation unit -> c (x) dual(c), 1 -> sum of sign * e_i (x) e_i*."""
    tgt = cx_tensor(c, cx_dual(c))
    comps = {0: _pairing(c.ring, c.ranks, False)} if tgt.rank(0) else {}
    return make_chain_map(unit_complex(c.ring), tgt, comps)


@lru_cache(maxsize=4096)
def _pairing(ring: Ring, ranks: tuple, ev: bool) -> Matrix:
    """The degree-0 component of ev_map (a row) or coev_map (a column) of a
    complex of these ranks: on the diagonal of each summand, the sign of
    its dual factor's degree."""
    rank, dual = dict(ranks), tuple((-n, r) for n, r in reversed(ranks))
    width, offsets = tensor_layout(*((dual, ranks) if ev else (ranks, dual)))
    diagonal = {}
    for (p, q), off in offsets.get(0, {}).items():
        d = p if ev else q
        r = rank[-d]
        diagonal.update(dict.fromkeys(range(off, off + r * r, r + 1), pair_sign(d)))
    row = _kernel_matrix(ring, 1, width.get(0, 0), (_normed(diagonal, ring.modulus),))
    return row if ev else mat_transpose(row)


@lru_cache(maxsize=4096)
def swap_map(a: Complex, b: Complex) -> ChainMap:
    """Symmetry a (x) b -> b (x) a with Koszul sign (-1)^(pq)."""
    return ChainMap(cx_tensor(a, b), cx_tensor(b, a), _swap_perms(a.ring, a.ranks, b.ranks))


@lru_cache(maxsize=4096)
def _swap_perms(ring: Ring, a_ranks: tuple, b_ranks: tuple) -> tuple:
    """swap_map's components, from the ranks of its factors: each row is a
    row of one identity matrix or of its negative, shared."""
    src_ranks, src_off = tensor_layout(a_ranks, b_ranks)
    tgt_off = tensor_layout(b_ranks, a_ranks)[1]
    a, b = dict(a_ranks), dict(b_ranks)
    unit = mat_identity(ring, max(src_ranks.values(), default=0))
    signed = {1: unit.nonzero, -1: mat_scale(-1, unit).nonzero}  # the rows +-e_c, shared
    comps = []
    for n, rs in src_ranks.items():
        rows = [None] * rs
        for (p, q), off in src_off[n].items():
            ra, rb = a[p], b[q]
            to = tgt_off[n][(q, p)]
            units = signed[-1 if (p * q) % 2 else 1]
            # row (j, i) of the summand takes column (i, j)
            for j in range(rb):
                rows[to + j * ra:to + (j + 1) * ra] = units[off + j:off + ra * rb:rb]
        comps.append((n, _kernel_matrix(ring, rs, rs, rows)))
    return tuple(comps)


@lru_cache(maxsize=4096)
def assoc_map(a: Complex, b: Complex, c: Complex) -> ChainMap:
    """Reassociation a (x) (b (x) c) -> (a (x) b) (x) c; a sign-free permutation."""
    return ChainMap(cx_tensor(a, cx_tensor(b, c)), cx_tensor(cx_tensor(a, b), c),
                    _assoc_perms(a.ring, a.ranks, b.ranks, c.ranks, False))


@lru_cache(maxsize=4096)
def assoc_map_inv(a: Complex, b: Complex, c: Complex) -> ChainMap:
    return ChainMap(cx_tensor(cx_tensor(a, b), c), cx_tensor(a, cx_tensor(b, c)),
                    _assoc_perms(a.ring, a.ranks, b.ranks, c.ranks, True))


@lru_cache(maxsize=4096)
def _assoc_perms(ring: Ring, a_ranks: tuple, b_ranks: tuple, c_ranks: tuple, inverse: bool) -> tuple:
    """assoc_map's components, or assoc_map_inv's, from the ranks of the
    factors: each row is a row of one identity matrix, shared."""
    bc_rank, bc_off = tensor_layout(b_ranks, c_ranks)
    ab_rank, ab_off = tensor_layout(a_ranks, b_ranks)
    src_ranks, src_off = tensor_layout(a_ranks, tuple(bc_rank.items()))
    tgt_off = tensor_layout(tuple(ab_rank.items()), c_ranks)[1]
    unit = mat_identity(ring, max(src_ranks.values(), default=0)).nonzero
    rows = {n: [None] * rs for n, rs in src_ranks.items()}
    for q, rb in b_ranks:
        for r, rc in c_ranks:
            rbc, block = bc_rank[q + r], rb * rc
            inner = bc_off[q + r][(q, r)]
            for p, ra in a_ranks:
                # basis vector (i, j, k) of summand (p, q, r): column
                # so + i * rbc + j * rc + k, row to + (i * rb + j) * rc + k, so
                # for each i the rb * rc rows and columns are both contiguous
                n = p + q + r
                so = src_off[n][(p, q + r)] + inner
                to = tgt_off[n][(p + q, r)] + ab_off[p + q][(p, q)] * rc
                out = rows[n]
                for i in range(ra):
                    row, col = to + i * block, so + i * rbc
                    if inverse:
                        row, col = col, row
                    out[row:row + block] = unit[col:col + block]
    return tuple((n, _kernel_matrix(ring, len(out), len(out), out)) for n, out in rows.items())

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
permutation is the zero matrix.

Each invariant is checked once, where its value is built.  A constructor
checks shape: Matrix its rows, Complex and ChainMap the degrees, shapes and
ring of their blocks.  The make_* helpers convert raw input (rows through
`mat`, an absent block zero) and check the identities: d.d = 0 in
sheafops.make_sheaf, commutation in make_chain_map.  The kernels build
through the constructors; only their matrices skip Matrix's scan.

Matrix entries are always normalised.  `mat` is the normalising entry point
for matrices from outside (the parser, the generator, tests); the kernels
place their already normalised entries into a zero grid or, through
`_place_kron`, a Kronecker block a whole row slice at a time.
`mat_identity`, the symmetries and the reassociations (and their inverses)
are signed permutations that keep only that record on their `Matrix`:
`mat_mul` picks rows of its right factor by a record on its left,
`mat_transpose` inverts it, `_place_kron` reads it on either factor, and the
dense rows are built only if `entries` is read.  `cx_tensor` knows its ranks
at once and builds each differential when first read.  So the rank-r^3
tensors that duality's triangle certificates pass through, of which only
components of maps are read, stay unbuilt.  Products and tensors of
permutations are dense, with no record.  Equality and hashes are by value,
and an object equals itself without reading anything.  Hashing a tensor
builds its differentials, so the kernel caches key a tensor by its
factors (Complex.key) and a lookup hashes only eager complexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence, Union


@dataclass(frozen=True)
class Ring:
    """Coefficient ring: modulus 0 means Z, modulus m > 0 means Z/m."""

    modulus: int

    def __post_init__(self) -> None:
        if self.modulus < 0:
            raise ValueError("modulus must be non-negative")

    def __hash__(self) -> int:  # the kernel caches hash a ring on every lookup
        return self.modulus

    def __eq__(self, other) -> bool:
        return self is other or (self.modulus == other.modulus if isinstance(other, Ring) else NotImplemented)

    def norm(self, x: int) -> int:
        return x % self.modulus if self.modulus else x


ZZ = Ring(0)


@dataclass(frozen=True)
class Matrix:
    """Dense matrix with normalized entries; rows x cols over a Ring.

    A square signed permutation may carry the record `_perm = (cols, signs)`:
    row i's one nonzero sits in column cols[i] and is signs[i], or 1 when
    signs is None.  Only mat_identity and the structure maps set it, never
    over Z/1, where 1 is 0, and then entries is built from it when first
    read.  mat_mul reads it on the left, _place_kron on either side, and
    products and tensors are dense.  It is not in ==, hash, repr.
    """

    ring: Ring
    rows: int
    cols: int
    entries: tuple[tuple[int, ...], ...]
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)
    _perm: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        ent, m = self.entries, self.ring.modulus
        if type(ent) is not tuple or len(ent) != self.rows:
            raise ValueError(f"a {self.rows}x{self.cols} matrix needs a tuple of {self.rows} rows")
        if ent and (set(map(type, ent)) != {tuple} or set(map(len, ent)) != {self.cols}):
            raise ValueError(f"rows of a {self.rows}x{self.cols} matrix must be tuples of length {self.cols}")
        if m and ent and self.cols and (min(map(min, ent)) < 0 or max(map(max, ent)) >= m):
            raise ValueError(f"entries over Z/{m} must lie in 0..{m - 1}")

    def __hash__(self) -> int:
        # the dataclass hash of the field tuple, computed once: the kernel
        # caches hash their arguments on every lookup
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ring, self.rows, self.cols, self.entries)))
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        shape = (self.ring, self.rows, self.cols)
        return self is other or shape == (other.ring, other.rows, other.cols) and self.entries == other.entries

    def __getattr__(self, name: str):
        # only a permutation's rows are ever missing: build them from its record
        if name != "entries" or self._perm is None:
            raise AttributeError(name)
        cols, signs = self._perm
        zero = (0,) * self.cols
        rows = tuple(zero[:c] + (1 if signs is None else signs[i],) + zero[c + 1:]
                     for i, c in enumerate(cols))
        object.__setattr__(self, "entries", rows)
        return rows


def mat(ring: Ring, rows: Sequence[Sequence[int]], cols: int | None = None) -> Matrix:
    """The matrix of raw rows, entries normalised; Matrix checks the shape.
    cols defaults to the length of the first row, or 0 with no rows."""
    if cols is None:
        cols = len(rows[0]) if rows else 0
    return Matrix(ring, len(rows), cols, tuple(tuple(map(ring.norm, r)) for r in rows))


def _kernel_matrix(ring: Ring, rows: int, cols: int, entries: tuple[tuple[int, ...], ...]) -> Matrix:
    """The trusted constructor of the kernels below, which build the shape
    they state and normalise their entries as they compute them (through
    Ring.norm, or as entries of normalised matrices); the tests hold each
    kernel to an independent oracle.  It skips Matrix()'s checks: the scan
    of every entry costs about as much as building a rank-r^3 certificate
    tensor, and the shape check doubles the cost of a small matrix."""
    m = object.__new__(Matrix)
    vars(m).update(ring=ring, rows=rows, cols=cols, entries=entries)
    return m


def _grid_matrix(ring: Ring, grid: list[list[int]], cols: int) -> Matrix:
    """Wrap a grid whose entries are already normalised, without mat()'s pass."""
    return _kernel_matrix(ring, len(grid), cols, tuple(map(tuple, grid)))


def mat_zero(ring: Ring, rows: int, cols: int) -> Matrix:
    return _kernel_matrix(ring, rows, cols, ((0,) * cols,) * rows)


def _perm_matrix(ring: Ring, cols: Sequence[int], signs: Sequence[int] | None = None) -> Matrix:
    """The signed permutation whose row i has its nonzero, signs[i] (already
    normalised; 1 when signs is None), in column cols[i]: its record alone,
    in O(n).  Over Z/1, where 1 is 0, it is the zero matrix, with no record."""
    n = len(cols)
    if not ring.norm(1):
        return mat_zero(ring, n, n)
    signs = None if signs is None or all(s == 1 for s in signs) else tuple(signs)
    m = object.__new__(Matrix)
    vars(m).update(ring=ring, rows=n, cols=n, _perm=(tuple(cols), signs))
    return m


def _perm_inverse(perm: tuple) -> tuple:
    """The record of a signed permutation's transpose, which is its inverse."""
    cols, signs = perm
    inv = sorted(range(len(cols)), key=cols.__getitem__)
    return tuple(inv), None if signs is None else tuple(map(signs.__getitem__, inv))


@lru_cache(maxsize=4096)
def mat_identity(ring: Ring, n: int) -> Matrix:
    return _perm_matrix(ring, range(n))


def _same_ring(a: Matrix | Complex, b: Matrix | Complex) -> Ring:
    if a.ring != b.ring:
        raise ValueError("ring mismatch")
    return a.ring


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    ring = _same_ring(a, b)
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} + {b.rows}x{b.cols}")
    norm = ring.norm
    return _kernel_matrix(
        ring,
        a.rows,
        a.cols,
        tuple(
            tuple(norm(x + y) for x, y in zip(ra, rb))
            for ra, rb in zip(a.entries, b.entries)
        ),
    )


def mat_scale(c: int, a: Matrix) -> Matrix:
    c = a.ring.norm(c)
    if c == 1:
        return a
    m = a.ring.modulus
    return _kernel_matrix(a.ring, a.rows, a.cols, tuple(_scale_row(row, c, m) for row in a.entries))


def _scale_row(row: tuple[int, ...], x: int, modulus: int) -> tuple[int, ...]:
    """x * row for a normalised x over Z/modulus, entry by entry at C speed."""
    out = map(x.__mul__, row)
    return tuple(map(modulus.__rmod__, out) if modulus else out)


def _signed_rows(rows: tuple, cols: Sequence[int], signs: Sequence[int] | None, modulus: int) -> tuple:
    """signs[i] times rows[cols[i]] for each i, sharing the rows whose sign is 1."""
    if signs is None:
        return tuple(map(rows.__getitem__, cols))
    return tuple(rows[c] if s == 1 else _scale_row(rows[c], s, modulus) for c, s in zip(cols, signs))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    ring = _same_ring(a, b)
    if a.cols != b.rows:
        raise ValueError(f"shape mismatch: {a.rows}x{a.cols} times {b.rows}x{b.cols}")
    if a.cols == 0:
        return mat_zero(ring, a.rows, b.cols)
    bent = b.entries
    if a._perm is not None:
        # row i of the product is signs[i] times row cols[i] of b
        return _kernel_matrix(ring, a.rows, b.cols, _signed_rows(bent, *a._perm, ring.modulus))
    norm = ring.norm
    ncols = b.cols
    rows = []
    for arow in a.entries:
        acc = [0] * ncols
        for k, x in enumerate(arow):
            if x:
                brow = bent[k]
                for j in range(ncols):
                    y = brow[j]
                    if y:
                        acc[j] += x * y
        rows.append(tuple(norm(v) for v in acc))
    return _kernel_matrix(ring, a.rows, ncols, tuple(rows))


def mat_trace(a: Matrix) -> int:
    if a.rows != a.cols:
        raise ValueError(f"trace of non-square {a.rows}x{a.cols} matrix")
    return a.ring.norm(sum(a.entries[i][i] for i in range(a.rows)))


def mat_transpose(a: Matrix) -> Matrix:
    if a._perm is not None:
        return _perm_matrix(a.ring, *_perm_inverse(a._perm))
    # zip(*()) has no rows, so a 0 x k matrix needs its k empty rows spelled out
    rows = tuple(zip(*a.entries)) if a.rows else ((),) * a.cols
    return _kernel_matrix(a.ring, a.cols, a.rows, rows)


def mat_kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in row-major block layout: index (i,k) -> i*b.rows + k."""
    ring = _same_ring(a, b)
    cols = a.cols * b.cols
    grid = [[0] * cols for _ in range(a.rows * b.rows)]
    _place_kron(grid, 0, 0, a, b)
    return _grid_matrix(ring, grid, cols)


def mat_block(
    ring: Ring,
    row_parts: Sequence[int],
    col_parts: Sequence[int],
    blocks: Mapping[tuple[int, int], Matrix],
) -> Matrix:
    """Assemble a block matrix; absent blocks are zero."""
    grid = [[0] * sum(col_parts) for _ in range(sum(row_parts))]
    row_off = _offsets(row_parts)
    col_off = _offsets(col_parts)
    for (bi, bj), m in blocks.items():
        if (m.rows, m.cols) != (row_parts[bi], col_parts[bj]):
            raise ValueError("block shape mismatch")
        c0 = col_off[bj]
        for i, row in enumerate(m.entries, row_off[bi]):
            grid[i][c0:c0 + m.cols] = row
    return _grid_matrix(ring, grid, sum(col_parts))


def _offsets(parts: Sequence[int]) -> list[int]:
    out, acc = [], 0
    for p in parts:
        out.append(acc)
        acc += p
    return out


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
    if m.ring is not ring and m.ring != ring:  # identity first: this runs per block
        raise ValueError(f"ring mismatch in {what} at degree {n}")
    return m


# ---------------------------------------------------------------------------
# complexes


class OnDemand(Sequence):
    """The entries compute(0), ..., compute(n - 1), each computed when first
    read and kept; a slice reads its entries and gives their tuple.
    Iterating, comparing and hashing read them all, so it equals and hashes
    like their tuple, but equals itself without reading any.  Once all are
    read it drops compute, and what compute holds."""

    def __init__(self, n: int, compute: Callable[[int], object]):
        self._compute = compute if n else None
        self._done: list = [None] * n
        self._missing = n

    def __len__(self) -> int:
        return len(self._done)

    def __iter__(self):
        return iter(self._done) if not self._missing else map(self.__getitem__, range(len(self._done)))

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
        return self is other or tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class Complex:
    """Bounded complex of finite-rank free modules.

    ranks holds (degree, rank) pairs with rank > 0, sorted by degree; diff
    holds (n, d^n) for every degree n where both rank(n) and rank(n+1) are
    positive (zero matrices included, so equality of complexes is plain
    structural equality).  cx_tensor's is an OnDemand: each differential is
    built and checked when first read.

    `key` says how it was built: a tensor's is the pair of its factors'
    keys, any other complex is its own.  Equal keys mean equal values, so
    the kernel caches key a tensor by its factors and never hash its
    differentials; complexes equal in value but built otherwise just miss.
    """

    ring: Ring
    ranks: tuple[tuple[int, int], ...]
    diff: Sequence[tuple[int, Matrix]]
    _hash: int | None = field(default=None, init=False, compare=False, repr=False)
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
        vars(self).update(_rank=rank, _at=at)
        if not isinstance(self.diff, OnDemand):  # cx_tensor checks each as it builds it
            degrees = [n for n, _ in self.diff]
            if degrees != list(at):
                raise ValueError(f"differentials at degrees {degrees} for ranks {self.ranks}")
            for n, m in self.diff:
                _checked_block(self.ring, m, rank[n + 1], rank[n], "differential", n)

    def __hash__(self) -> int:
        # cached as for Matrix
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ring, self.ranks, self.diff)))
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
        grid = [[0] * ranks[n] for _ in range(ranks[n + 1])]
        for (p, q), co in offsets[n].items():
            if (p + 1, q) in tgt_off:  # d_a (x) 1
                _place_kron(grid, tgt_off[(p + 1, q)], co, a.d(p), mat_identity(ring, b.rank(q)))
            if (p, q + 1) in tgt_off:  # (-1)^p 1 (x) d_b
                _place_kron(grid, tgt_off[(p, q + 1)], co, mat_identity(ring, a.rank(p)),
                            mat_scale(-1 if p % 2 else 1, b.d(q)))
        d = _grid_matrix(ring, grid, ranks[n])
        return n, _checked_block(ring, d, ranks[n + 1], ranks[n], "differential", n)

    t = Complex(ring, tuple(ranks.items()), OnDemand(len(stored), build))
    object.__setattr__(t, "_key", (a.key, b.key))
    return t


@lru_cache(maxsize=4096)
def cx_dual(a: Complex) -> Complex:
    """Dual complex: rank(n) = rank(-n), differential the plain transpose.

    With the signed evaluation below this is an involution on the nose.
    """
    diff = {-n - 1: mat_transpose(m) for n, m in a.diff}
    return make_complex(a.ring, {-n: r for n, r in a.ranks}, diff)


def cx_direct_sum(parts: Sequence[Complex], ring: Ring) -> Complex:
    for p in parts:
        if p.ring != ring:
            raise ValueError("ring mismatch")
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


@dataclass(frozen=True)
class ChainMap:
    """Degree-zero map of complexes commuting with the differentials.

    components holds (n, f^n) for every degree n where both source and target
    have positive rank, by degree; make_chain_map checks commutation."""

    source: Complex
    target: Complex
    components: tuple[tuple[int, Matrix], ...]

    def __post_init__(self) -> None:
        ring, src, tgt = _same_ring(self.source, self.target), self.source._rank, self.target._rank
        degrees = [n for n, _ in self.components]
        if degrees != [n for n in src if n in tgt]:
            raise ValueError(f"components at degrees {degrees} for ranks {self.source.ranks} -> {self.target.ranks}")
        for n, m in self.components:
            _checked_block(ring, m, tgt[n], src[n], "component", n)

    def component(self, n: int) -> Matrix:
        for d, m in self.components:
            if d == n:
                return m
        return mat_zero(self.source.ring, self.target.rank(n), self.source.rank(n))


def make_chain_map(source: Complex, target: Complex, components: Mapping[int, Blocks] | None = None) -> ChainMap:
    """The chain map of the given components, absent ones zero; raises
    unless it commutes with the differentials."""
    shapes = {n: (target.rank(n), r) for n, r in source.ranks if target.rank(n)}
    f = ChainMap(source, target, _filled(source.ring, components or {}, shapes))
    for n, _ in source.ranks:
        if target.rank(n + 1) and mat_mul(target.d(n), f.component(n)) != mat_mul(f.component(n + 1), source.d(n)):
            raise ValueError(f"not a chain map at degree {n}")
    return f


def map_identity(c: Complex) -> ChainMap:
    return ChainMap(c, c, tuple((n, mat_identity(c.ring, r)) for n, r in c.ranks))


def map_compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f."""
    if f.target != g.source:
        raise ValueError("composition boundary mismatch")
    comps = tuple((n, mat_mul(g.component(n), f.component(n))) for n, _ in f.source.ranks if g.target.rank(n))
    return ChainMap(f.source, g.target, comps)


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


def _place_kron(grid: list[list[int]], r0: int, c0: int, a: Matrix, b: Matrix) -> None:
    """Write the Kronecker product of a and b into grid from (r0, c0): row (i, k)
    holds a[i][j] * b[k][l] in column (j, l), with (i, k) -> i * b.rows + k,
    (j, l) -> j * b.cols + l."""
    br, bc = b.rows, b.cols
    if b._perm is not None:
        # row (i, k) is row i of a times signs[k], at stride bc from column cols[k]
        cols, signs = b._perm
        stop = c0 + a.cols * bc
        by_sign = {1: a.entries}
        for k, l in enumerate(cols):
            s = 1 if signs is None else signs[k]
            if s not in by_sign:
                by_sign[s] = mat_scale(s, a).entries
            for i, arow in enumerate(by_sign[s]):
                grid[r0 + i * br + k][c0 + l:stop:bc] = arow
        return
    if a._perm is not None:
        # block (i, cols[i]) is b times signs[i], so b's rows go in turn from row r0
        cols, signs = a._perm
        for i, j in enumerate(cols):
            c = c0 + j * bc
            for brow in b.entries if signs is None else mat_scale(signs[i], b).entries:
                grid[r0][c:c + bc] = brow
                r0 += 1
        return
    # otherwise from a's nonzeros: each a[i][j] puts b scaled by it at block (i, j)
    by_value = {}
    for arow in a.entries:
        for j, x in enumerate(arow):
            if x:
                if x not in by_value:
                    by_value[x] = mat_scale(x, b).entries
                c = c0 + j * bc
                for k, brow in enumerate(by_value[x]):
                    grid[r0 + k][c:c + bc] = brow
        r0 += br


def map_tensor(f: ChainMap, g: ChainMap) -> ChainMap:
    """Tensor of degree-zero chain maps; no Koszul signs arise."""
    src, tgt = cx_tensor(f.source, g.source), cx_tensor(f.target, g.target)
    return ChainMap(src, tgt, _tensor_components(src.ring, f.source.ranks, f.target.ranks, f.components,
                                                 g.source.ranks, g.target.ranks, g.components))


@lru_cache(maxsize=4096)
def _tensor_components(ring: Ring, fs: tuple, ft: tuple, fc: tuple, gs: tuple, gt: tuple, gc: tuple) -> tuple:
    """map_tensor's components, from the ranks and components of its factors."""
    src_ranks, src_off = tensor_layout(fs, gs)
    tgt_ranks, tgt_offsets = tensor_layout(ft, gt)
    f, g = dict(fc), dict(gc)
    comps = []
    for n, rs in src_ranks.items():
        if n not in tgt_ranks:
            continue
        tgt_off = tgt_offsets[n]
        grid = [[0] * rs for _ in range(tgt_ranks[n])]
        for (p, q), co in src_off[n].items():
            ro = tgt_off.get((p, q))
            if ro is not None:
                _place_kron(grid, ro, co, f[p], g[q])
        comps.append((n, _grid_matrix(ring, grid, rs)))
    return tuple(comps)


def map_direct_sum(
    blocks: Mapping[tuple[int, int], ChainMap],
    sources: Sequence[Complex],
    targets: Sequence[Complex],
    ring: Ring,
) -> ChainMap:
    """Map between direct sums assembled from blocks (ti, si) -> ChainMap."""
    src = cx_direct_sum(sources, ring)
    tgt = cx_direct_sum(targets, ring)
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
    out = [0] * width.get(0, 0)
    for (p, q), off in offsets.get(0, {}).items():
        d = p if ev else q
        r = rank[-d]
        out[off:off + r * r:r + 1] = [ring.norm(pair_sign(d))] * r
    return _kernel_matrix(ring, 1, len(out), (tuple(out),)) if ev else _grid_matrix(ring, [[x] for x in out], 1)


@lru_cache(maxsize=4096)
def swap_map(a: Complex, b: Complex) -> ChainMap:
    """Symmetry a (x) b -> b (x) a with Koszul sign (-1)^(pq)."""
    return ChainMap(cx_tensor(a, b), cx_tensor(b, a), _swap_perms(a.ring, a.ranks, b.ranks))


@lru_cache(maxsize=4096)
def _swap_perms(ring: Ring, a_ranks: tuple, b_ranks: tuple) -> tuple:
    """swap_map's components, from the ranks of its factors."""
    src_ranks, src_off = tensor_layout(a_ranks, b_ranks)
    tgt_off = tensor_layout(b_ranks, a_ranks)[1]
    a, b = dict(a_ranks), dict(b_ranks)
    comps = []
    for n, rs in src_ranks.items():
        cols, signs = [0] * rs, [ring.norm(1)] * rs
        for (p, q), off in src_off[n].items():
            ra, rb = a[p], b[q]
            to = tgt_off[n][(q, p)]
            # row (j, i) of the summand takes column (i, j)
            for j in range(rb):
                cols[to + j * ra:to + (j + 1) * ra] = range(off + j, off + ra * rb, rb)
            if (p * q) % 2:
                signs[to:to + ra * rb] = [ring.norm(-1)] * (ra * rb)
        comps.append((n, _perm_matrix(ring, cols, signs)))
    return tuple(comps)


@lru_cache(maxsize=4096)
def assoc_map(a: Complex, b: Complex, c: Complex) -> ChainMap:
    """Reassociation a (x) (b (x) c) -> (a (x) b) (x) c; a sign-free permutation."""
    return ChainMap(cx_tensor(a, cx_tensor(b, c)), cx_tensor(cx_tensor(a, b), c),
                    _assoc_perms(a.ring, a.ranks, b.ranks, c.ranks))


@lru_cache(maxsize=4096)
def assoc_map_inv(a: Complex, b: Complex, c: Complex) -> ChainMap:
    return ChainMap(cx_tensor(cx_tensor(a, b), c), cx_tensor(a, cx_tensor(b, c)),
                    _assoc_inv_perms(a.ring, a.ranks, b.ranks, c.ranks))


@lru_cache(maxsize=4096)
def _assoc_perms(ring: Ring, a_ranks: tuple, b_ranks: tuple, c_ranks: tuple) -> tuple:
    """assoc_map's components, from the ranks of its factors."""
    bc_rank, bc_off = tensor_layout(b_ranks, c_ranks)
    ab_rank, ab_off = tensor_layout(a_ranks, b_ranks)
    src_ranks, src_off = tensor_layout(a_ranks, tuple(bc_rank.items()))
    tgt_off = tensor_layout(tuple(ab_rank.items()), c_ranks)[1]
    cols = {n: [0] * rs for n, rs in src_ranks.items()}
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
                out = cols[n]
                for i in range(ra):
                    out[to + i * block:to + (i + 1) * block] = range(so + i * rbc, so + i * rbc + block)
    return tuple((n, _perm_matrix(ring, out)) for n, out in cols.items())


@lru_cache(maxsize=4096)
def _assoc_inv_perms(ring: Ring, a_ranks: tuple, b_ranks: tuple, c_ranks: tuple) -> tuple:
    return tuple((n, mat_transpose(m)) for n, m in _assoc_perms(ring, a_ranks, b_ranks, c_ranks))

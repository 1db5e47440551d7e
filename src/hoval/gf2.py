"""Exact arithmetic in GF(2^m) and in the tower GF(2) < GF(2^h) < GF(2^hk).

Field elements are plain Python ints: bit i of the int is the coefficient
of x^i in the polynomial representative, so the constant term is the least
significant bit.  A :class:`Field` carries the modulus and lookup tables and
never wraps elements; hot loops therefore stay allocation-free.

Degrees 1..24 are supported.  Fields of degree <= 16 multiply through
exp/log tables over a primitive element; larger degrees fall back to
shift-and-reduce polynomial multiplication.

Linear algebra over GF(2) works on the same packed ints.  Every linear map
of the package is a LinearMap, given by the images of the unit vectors and
applied one byte at a time: the tower's embedding and vec/unvec, the
coordinate changes of the pseudoregulus fit and the collineation of the
cyclic-group path.  LinearMap.inverse is the one matrix inversion:
Gauss-Jordan over GF(2).
"""

from __future__ import annotations

import random
from collections.abc import Iterable

from .errors import (
    DivisionByZero,
    IrreducibleCheckFailed,
    SingularMatrix,
    UnsupportedDegree,
)

MAX_DEGREE = 24
TABLE_LIMIT = 16  # exp/log tables up to this degree


# ---------------------------------------------------------------------------
# polynomial arithmetic over GF(2), ints as coefficient bit-vectors
# ---------------------------------------------------------------------------

def _poly_deg(a: int) -> int:
    return a.bit_length() - 1


def _poly_rem(a: int, b: int) -> int:
    """Remainder of a modulo b, both coefficient bit-vectors, b != 0."""
    db = _poly_deg(b)
    while a and _poly_deg(a) >= db:
        a ^= b << (_poly_deg(a) - db)
    return a


def _poly_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _poly_rem(a, b)
    return a


def _poly_mulmod(a: int, b: int, modulus: int) -> int:
    """Shift-and-reduce product of two reduced representatives."""
    dm = _poly_deg(modulus)
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> dm:
            a ^= modulus
    return r


def _x_pow2_mod(j: int, modulus: int) -> int:
    """x^(2^j) modulo the given polynomial."""
    r = _poly_rem(2, modulus)
    for _ in range(j):
        r = _poly_mulmod(r, r, modulus)
    return r


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_irreducible(modulus: int, m: int) -> bool:
    """Exact irreducibility test for a degree-m polynomial over GF(2).

    Uses the derandomized criterion: x^(2^m) == x (mod f) and, for every
    prime p dividing m, gcd(x^(2^(m/p)) - x, f) == 1.
    """
    if modulus <= 0 or _poly_deg(modulus) != m:
        return False
    if m == 1:
        return True
    if _x_pow2_mod(m, modulus) != _poly_rem(2, modulus):
        return False
    for p in _prime_factors(m):
        if _poly_gcd(_x_pow2_mod(m // p, modulus) ^ 2, modulus) != 1:
            return False
    return True


_DEFAULT_MODULI: dict[int, int] = {}


def default_modulus(m: int) -> int:
    """Lowest-lexicographic irreducible of degree m with nonzero constant term."""
    mod = _DEFAULT_MODULI.get(m)
    if mod is None:
        cand = (1 << m) | 1
        while not is_irreducible(cand, m):
            cand += 2
        _DEFAULT_MODULI[m] = mod = cand
    return mod


# ---------------------------------------------------------------------------
# linear algebra over GF(2), ints as bit-vectors
# ---------------------------------------------------------------------------

def f2_reduce(v: int, rows) -> int:
    """v with the pivot bits of GF(2) echelon rows cleared."""
    for r in rows:
        if v & r & -r:
            v ^= r
    return v


def f2_echelon(vectors) -> tuple:
    """Reduced echelon basis over GF(2) of packed bit vectors.

    A row's pivot is its lowest set bit, clear in every other row; rows are
    sorted by pivot, so the basis of a subspace is unique.
    """
    rows: list = []
    for v in vectors:
        v = f2_reduce(v, rows)
        if v:
            low = v & -v
            rows = [r ^ v if r & low else r for r in rows]
            rows.append(v)
    return tuple(sorted(rows, key=lambda r: r & -r))


def _byte_tables(columns) -> tuple[list[int], ...]:
    """Table t holds the XOR of every subset of columns 8t .. 8t + 7: by
    doubling, entry v has column 8t + b iff bit b of v is set."""
    tables = []
    for lo in range(0, len(columns), 8):
        tab = [0]
        for c in columns[lo:lo + 8]:
            tab += [x ^ c for x in tab]
        tables.append(tab)
    return tuple(tables)


class LinearMap:
    """A GF(2)-linear map of packed vectors, applied by byte-sliced tables.

    ``columns[b]`` is the image of the unit vector 1 << b.  Table t holds the
    XOR of every subset of columns 8t .. 8t + 7, so a vector is mapped with
    one lookup per byte instead of one GF(q) product per matrix entry.  A
    GF(q)-linear map is GF(2)-linear too (from_columns); so is "the map,
    then any GF(2)-linear relabelling of its output" (then).  Inputs must
    have no bit at or above len(columns).
    """

    __slots__ = ("columns", "_tables")

    def __init__(self, columns: Iterable[int]):
        self.columns = tuple(columns)
        self._tables = _byte_tables(self.columns)

    @classmethod
    def from_columns(cls, cols, space) -> LinearMap:
        """The GF(q)-linear map of `space`'s packed vectors (a ProjSpace)
        that sends coordinate j's unit vector to the packed vector cols[j].

        Bit b of chunk j is the scalar 2^b in coordinate j, so its image is
        space.smul(1 << b, cols[j]).
        """
        smul = space.smul
        return cls(smul(1 << b, c) for c in cols for b in range(space.h))

    def then(self, f) -> LinearMap:
        """v -> f(self(v)) for a GF(2)-linear f on the images."""
        return LinearMap(f(c) for c in self.columns)

    def inverse(self) -> LinearMap:
        """The inverse map, by GF(2) Gauss-Jordan on (image, preimage) pairs.

        Image bits sit below preimage bits in one int, so the reduced
        echelon rows of a bijection of the n low bits are 1 << b beside the
        preimage of 1 << b.  Raises SingularMatrix for any other map.
        """
        n = len(self.columns)
        if any(c >> n for c in self.columns):
            raise SingularMatrix("the map is not square")
        rows = f2_echelon(c | 1 << (n + b) for b, c in enumerate(self.columns))
        low = (1 << n) - 1
        if [r & low for r in rows] != [1 << b for b in range(n)]:
            raise SingularMatrix("the map has no inverse")
        return LinearMap(r >> n for r in rows)

    def __call__(self, v: int) -> int:
        out = 0
        for tab in self._tables:
            out ^= tab[v & 0xFF]
            v >>= 8
        return out


# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------

class Field:
    """GF(2^m) in polynomial basis modulo a fixed irreducible.

    Parameters
    ----------
    m : int
        Extension degree over GF(2), between 1 and 24.
    modulus : int, optional
        Degree-m irreducible as a coefficient bit-vector.  Defaults to the
        lowest-lexicographic irreducible with nonzero constant term.
    """

    __slots__ = ("m", "modulus", "q", "_exp", "_log", "_generator")

    def __init__(self, m: int, modulus: int | None = None):
        if not 1 <= m <= MAX_DEGREE:
            raise UnsupportedDegree(f"degree {m} outside 1..{MAX_DEGREE}")
        if modulus is None:
            modulus = default_modulus(m)
        elif not is_irreducible(modulus, m):
            raise IrreducibleCheckFailed(
                f"0x{modulus:x} is not an irreducible of degree {m}"
            )
        self.m = m
        self.modulus = modulus
        self.q = 1 << m
        self._generator: int | None = None
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if m <= TABLE_LIMIT:
            self._build_tables()

    # -- construction helpers -------------------------------------------

    def _order(self, a: int) -> int:
        n = self.q - 1
        order = n
        for p in _prime_factors(n):
            while order % p == 0 and self._pow_raw(a, order // p) == 1:
                order //= p
        return order

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = _poly_mulmod(r, a, self.modulus)
            a = _poly_mulmod(a, a, self.modulus)
            e >>= 1
        return r

    @property
    def generator(self) -> int:
        """Smallest primitive element (deterministic)."""
        if self._generator is None:
            for g in range(2, self.q):
                if self._order(g) == self.q - 1:
                    self._generator = g
                    break
            else:  # q == 2
                self._generator = 1
        return self._generator

    def _build_tables(self) -> None:
        n = self.q - 1
        exp = [1] * (2 * n)
        log = [0] * self.q
        g = self.generator
        acc = 1
        for idx in range(n):
            exp[idx] = acc
            log[acc] = idx
            acc = _poly_mulmod(acc, g, self.modulus)
        for idx in range(n, 2 * n):
            exp[idx] = exp[idx - n]
        self._exp = exp
        self._log = log

    # -- arithmetic ------------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        if self._exp is not None:
            return self._exp[self._log[a] + self._log[b]]
        return _poly_mulmod(a, b, self.modulus)

    def inv(self, a: int) -> int:
        if a == 0:
            raise DivisionByZero("inverse of 0")
        if self._exp is not None:
            return self._exp[self.q - 1 - self._log[a]]
        return self._pow_raw(a, self.q - 2)

    def pow(self, a: int, e: int) -> int:
        if a == 0:
            if e == 0:
                return 1
            if e < 0:
                raise DivisionByZero("negative power of 0")
            return 0
        e %= self.q - 1
        if self._exp is not None:
            return self._exp[self._log[a] * e % (self.q - 1)]
        return self._pow_raw(a, e)

    def frob(self, a: int, i: int = 1) -> int:
        """Frobenius power a^(2^i); i is reduced modulo m."""
        i %= self.m
        if a == 0 or i == 0:
            return a
        if self._exp is not None:
            return self._exp[(self._log[a] << i) % (self.q - 1)]
        for _ in range(i):
            a = _poly_mulmod(a, a, self.modulus)
        return a

    # -- identity --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Field)
            and other.m == self.m
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash((self.m, self.modulus))

    def __repr__(self) -> str:
        return f"Field(m={self.m}, modulus=0x{self.modulus:x})"


_FIELD_CACHE: dict[tuple[int, int], Field] = {}


def field_create(m: int, modulus: int | None = None) -> Field:
    """Memoized Field constructor; identical parameters share tables."""
    if modulus is None:
        modulus = default_modulus(m) if 1 <= m <= MAX_DEGREE else -1
    f = _FIELD_CACHE.get((m, modulus))
    if f is None:
        f = Field(m, modulus)
        _FIELD_CACHE[(m, modulus)] = f
    return f


# ---------------------------------------------------------------------------
# field tower GF(2) < GF(2^h) < GF(2^hk)
# ---------------------------------------------------------------------------

class Tower:
    """The tower GF(2^h) inside GF(2^hk) with a fixed GF(2^h)-basis.

    The embedding sends x (class of the small modulus) to the numerically
    smallest root of the small modulus inside the big field; the basis of
    the big field over the small one is 1, beta, ..., beta^(k-1) where beta
    is the class of x modulo the big modulus.

    vec_packed(t) packs t's coordinates in that basis as k chunks of h bits
    and unvec_packed undoes it.  Both are GF(2)-linear: unvec_packed is the
    LinearMap whose column j h + b is the embedded 2^b times basis[j], and
    vec_packed is its inverse, read from a list while the big field has
    exp/log tables.
    """

    __slots__ = (
        "h", "k", "hk", "small", "big", "root",
        "_embed_table", "basis", "vec_packed", "unvec_packed",
    )

    def __init__(self, h: int, k: int, small: Field, big: Field):
        self.h = h
        self.k = k
        self.hk = h * k
        self.small = small
        self.big = big
        self.root = self._find_root()
        powers = [1] * h
        for b in range(1, h):
            powers[b] = big.mul(powers[b - 1], self.root)
        embed = LinearMap(powers)
        self._embed_table = [embed(a) for a in range(small.q)]
        beta = 2 if self.hk > 1 else 1
        self.basis = tuple(big.pow(beta, j) for j in range(k))
        self.unvec_packed = LinearMap(
            big.mul(self._embed_table[1 << b], bj) for bj in self.basis for b in range(h)
        )
        vec = self.unvec_packed.inverse()
        # below the table limit a list lookup beats the byte tables
        self.vec_packed = (
            [vec(t) for t in range(big.q)].__getitem__ if big.m <= TABLE_LIMIT else vec
        )
        self._self_check()

    # -- construction ----------------------------------------------------

    def _find_root(self) -> int:
        small, big = self.small, self.big
        if small.m == big.m:
            # degenerate tower (k == 1) over identical moduli: identity embed
            if small.modulus == big.modulus:
                return 2 if small.m > 1 else 1
        g = big.generator
        step = (big.q - 1) // (small.q - 1)
        base = big.pow(g, step)
        roots = []
        cand = 1
        for _ in range(small.q - 1):
            # evaluate the small modulus at cand with big-field arithmetic
            acc = 0
            for d in range(_poly_deg(self.small.modulus), -1, -1):
                acc = big.mul(acc, cand)
                if (small.modulus >> d) & 1:
                    acc ^= 1
            if acc == 0:
                roots.append(cand)
            cand = big.mul(cand, base)
        if not roots:
            raise IrreducibleCheckFailed(
                f"small modulus 0x{small.modulus:x} has no root in GF(2^{big.m})"
            )
        return min(roots)

    def _self_check(self) -> None:
        small, big = self.small, self.big
        if small.q <= 16:
            pairs = [(a, b) for a in range(small.q) for b in range(small.q)]
        else:
            rng = random.Random(0xC0FFEE)
            pairs = [
                (rng.randrange(small.q), rng.randrange(small.q)) for _ in range(64)
            ]
        emb = self._embed_table
        for a, b in pairs:
            if emb[a ^ b] != emb[a] ^ emb[b]:
                raise IrreducibleCheckFailed("embedding is not additive")
            if emb[small.mul(a, b)] != big.mul(emb[a], emb[b]):
                raise IrreducibleCheckFailed("embedding is not multiplicative")
        if big.q <= 1 << 12:
            sample: Iterable[int] = range(big.q)
        else:
            rng = random.Random(0xBEEF)
            sample = [rng.randrange(big.q) for _ in range(256)]
        for t in sample:
            if self.unvec_packed(self.vec_packed(t)) != t:
                raise IrreducibleCheckFailed("vec/unvec are not inverse")

    # -- maps --------------------------------------------------------------

    def embed(self, a: int) -> int:
        """Image of a small-field element in the big field."""
        return self._embed_table[a]

    def in_subfield(self, t: int) -> bool:
        return self.big.frob(t, self.h) == t

    def __repr__(self) -> str:
        return f"Tower(h={self.h}, k={self.k})"


_TOWER_CACHE: dict[tuple[int, int, int, int], Tower] = {}


def tower_create(
    h: int,
    k: int,
    small_modulus: int | None = None,
    big_modulus: int | None = None,
) -> Tower:
    """Build (memoized) the tower GF(2^h) < GF(2^hk)."""
    if h < 1 or k < 1 or h * k > MAX_DEGREE:
        raise UnsupportedDegree(f"tower degrees h={h}, k={k} unsupported")
    small = field_create(h, small_modulus)
    big = field_create(h * k, big_modulus)
    key = (h, k, small.modulus, big.modulus)
    t = _TOWER_CACHE.get(key)
    if t is None:
        t = Tower(h, k, small, big)
        _TOWER_CACHE[key] = t
    return t


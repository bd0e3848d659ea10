"""Independent oracle for the benchmark's results.

Everything here works on raw value tuples and raw multiplication tables. It
calls nothing from groupdet: no ``recompose``, ``compose`` or
``is_bijective``, so a fast path in the program is never checked against
itself. Products use mixed-radix coordinates with the last factor varying
fastest, the encoding ``groupdet.direct_product`` documents;
``Product.matches`` confirms that the program's product table agrees.
"""
from __future__ import annotations

import itertools


def _identity(table):
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    raise ValueError("table has no identity")


def bijective(values) -> bool:
    return len(set(values)) == len(values)


def inverse_map(values) -> list[int]:
    out = [0] * len(values)
    for x, y in enumerate(values):
        out[y] = x
    return out


class Factor:
    """One factor's raw table with its identity and inverse table."""

    def __init__(self, table):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.identity = _identity(self.table)
        self.inverse = tuple(row.index(self.identity) for row in self.table)


class Product:
    """Coordinates of a direct product of raw factors."""

    def __init__(self, tables):
        self.factors = tuple(Factor(t) for t in tables)
        self.n = len(self.factors)
        orders = [f.order for f in self.factors]
        self.coords = tuple(itertools.product(*(range(o) for o in orders)))
        self.order = len(self.coords)
        strides = [1] * self.n
        for i in range(self.n - 2, -1, -1):
            strides[i] = strides[i + 1] * orders[i + 1]
        self.strides = tuple(strides)
        ids = [f.identity for f in self.factors]
        # embed[j][x]: product index of x placed in coordinate j
        self.embed = tuple(
            tuple(
                sum(
                    (x if i == j else ids[i]) * self.strides[i]
                    for i in range(self.n)
                )
                for x in range(self.factors[j].order)
            )
            for j in range(self.n)
        )

    def encode(self, coords) -> int:
        return sum(c * s for c, s in zip(coords, self.strides))

    def matches(self, product_table) -> bool:
        """True when a program product table multiplies coordinatewise."""
        if len(product_table) != self.order:
            return False
        for a, ca in enumerate(self.coords):
            row = product_table[a]
            for b, cb in enumerate(self.coords):
                want = self.encode(
                    [f.table[x][y] for f, x, y in zip(self.factors, ca, cb)]
                )
                if row[b] != want:
                    return False
        return True

    def recompose(self, entries) -> tuple[int, ...]:
        """(x_j) -> (prod_j entries[i][j](x_j))_i from raw value tuples."""
        out = []
        for cs in self.coords:
            image = []
            for i, f in enumerate(self.factors):
                acc = f.identity
                row = entries[i]
                for j in range(self.n):
                    acc = f.table[acc][row[j][cs[j]]]
                image.append(acc)
            out.append(self.encode(image))
        return tuple(out)

    def decompose(self, phi) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """Entry (i, j) is x -> coordinate i of phi(x placed in coordinate j)."""
        return tuple(
            tuple(
                tuple(self.coords[phi[e]][i] for e in self.embed[j])
                for j in range(self.n)
            )
            for i in range(self.n)
        )

    def identity_values(self) -> tuple[int, ...]:
        return tuple(range(self.order))

    def block(self, idx) -> "Product":
        return Product([self.factors[i].table for i in idx])


def compose(f, g) -> tuple[int, ...]:
    """x -> f(g(x)) on raw value tuples."""
    return tuple(f[v] for v in g)


def entry_values(m) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The value tuples of a matrix's entries, read as plain data."""
    return tuple(tuple(e.values for e in row) for row in m.entries)


def has_pivot_route(prod: Product, entries) -> bool:
    """Whether some elimination order finds a bijective pivot at every step.

    Eliminating pivot p replaces entry (i, j) by
    m(i, j)(x) * m(i, p)(m(p, p)^-1(m(p, j)(x)))^-1, for the surviving i, j.
    """
    n = prod.n
    start = {(i, j): entries[i][j] for i in range(n) for j in range(n)}
    for order in itertools.permutations(range(n), n - 1):
        maps = start
        alive = list(range(n))
        ok = True
        for p in order:
            piv = maps[(p, p)]
            if not bijective(piv):
                ok = False
                break
            piv_inv = inverse_map(piv)
            alive.remove(p)
            nxt = {}
            for i in alive:
                f = prod.factors[i]
                t, inv = f.table, f.inverse
                for j in alive:
                    a, b, c = maps[(i, j)], maps[(i, p)], maps[(p, j)]
                    nxt[(i, j)] = tuple(
                        t[a[x]][inv[b[piv_inv[c[x]]]]] for x in range(len(a))
                    )
            maps = nxt
        if ok:
            return True
    return False


def block_route_exists(prod: Product, entries) -> bool:
    """Whether some factor s leaves a complementary 2 x 2 block that inverts.

    That block inverts by formula when one of its diagonal entries is
    bijective and the block's own recomposition is bijective.
    """
    n = prod.n
    for s in range(n):
        rest = [i for i in range(n) if i != s]
        sub = prod.block(rest)
        sub_entries = tuple(tuple(entries[i][j] for j in rest) for i in rest)
        if not any(bijective(sub_entries[d][d]) for d in range(len(rest))):
            continue
        if bijective(sub.recompose(sub_entries)):
            return True
    return False


# Remak decomposition of each catalog group into directly indecomposable
# factors, by isomorphism type; the abelian ones are exactly the central ones.
COMPONENTS = {
    "C2": ("C2",),
    "C3": ("C3",),
    "C4": ("C4",),
    "C5": ("C5",),
    "C6": ("C2", "C3"),
    "C8": ("C8",),
    "C12": ("C3", "C4"),
    "S3": ("S3",),
    "D8": ("D8",),
    "Q8": ("Q8",),
}
ABELIAN = {"C2", "C3", "C4", "C5", "C8"}
COMPONENT_ORDER = {"C2": 2, "C3": 3, "C4": 4, "C5": 5, "C8": 8, "S3": 6, "D8": 8, "Q8": 8}


def expected_pair_report(h_spec: str, k_spec: str) -> dict:
    """The pair verdicts that follow from the factors the two groups share.

    Krull-Remak-Schmidt makes common direct factors a matter of common
    components. Incompatibility means no common factor, central
    incompatibility means no common abelian factor; A is a subgroup exactly
    for centrally incompatible pairs, and Aut(H x K) = A exactly for
    incompatible ones (Bidwell, Curran and McCaughan, Arch. Math. 86, 2006).
    The first common factor found has the least order among common factors.
    """
    common = set(COMPONENTS[h_spec]) & set(COMPONENTS[k_spec])
    incompatible = not common
    centrally = not (common & ABELIAN)
    return {
        "incompatible": incompatible,
        "centrally_incompatible": centrally,
        "a_is_subgroup": centrally,
        "a_equals_aut": incompatible,
        "common_factor_order": min((COMPONENT_ORDER[c] for c in common), default=None),
        "incomplete": False,
    }

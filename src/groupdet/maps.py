"""Total maps between finite groups and the operations the matrix calculus needs.

A ``GroupMap`` is a total function stored as a value array.  Composition
applies the right-hand map first, matching the usual reading of a juxtaposed
product of maps.  The pointwise sum (f + g)(x) = f(x) * g(x) and difference
(f - g)(x) = f(x) * g(x)^-1 multiply images left to right; call sites that
evaluate identities relying on commuting images pass ``require_commuting=True``
so the assumption is checked rather than silently used.
"""
from __future__ import annotations

from itertools import count
from math import prod
from typing import Iterator, Optional, Sequence

from .errors import (
    InversionError,
    PreconditionError,
    ResourceLimitError,
    StructuralError,
    NoncommutingImagesError,
)
from .groups import DirectFactorization, FiniteGroup, Subgroup, _composer, _exact_ints, _memoised

__all__ = [
    "GroupMap",
    "identity_map",
    "zero_map",
    "compose",
    "pointwise_sum",
    "pointwise_diff",
    "negate",
    "is_bijective",
    "invert",
    "is_central_automorphism",
    "is_normal_endo",
    "enumerate_homs",
    "enumerate_endos",
    "enumerate_autos",
    "aut_order",
    "central_aut_group",
    "AUT_LIST_LIMIT",
    "power_map",
    "fitting_decomposition",
]

# enumerate_autos and central_aut_group refuse to list more maps than this:
# a million automorphisms of a group of order 64 take about 0.6 GB as maps.
AUT_LIST_LIMIT = 1_000_000
# GroupMap ids: one per map made, never reused, so a memo keyed by ids
# cannot hit a map that has gone.
_map_ids = count()


class GroupMap:
    """A total function ``domain -> codomain`` held as a tuple of images.

    The homomorphism property is a tri-state cache: unknown until queried,
    then pinned.  A ``hom`` claim passed to the constructor is checked, and a
    false one raises StructuralError.  Instances are value-immutable and safe
    to share.  ``_id`` is a small int unique to the map; ``_composites`` and
    ``_sums`` are the memos ``matrix_multiply`` keeps on a left operand,
    None until its first miss (``matrices._composite`` and ``_sum``).
    """

    __slots__ = ("domain", "codomain", "values", "_hom", "_image", "_id", "_composites", "_sums")

    def __init__(
        self,
        domain: FiniteGroup,
        codomain: FiniteGroup,
        values: Sequence[int],
        hom: Optional[bool] = None,
    ):
        vals = _exact_ints(values, "map values")
        if len(vals) != domain.order:
            raise StructuralError(
                f"value array has length {len(vals)}, domain has order {domain.order}"
            )
        if vals and (min(vals) < 0 or max(vals) >= codomain.order):
            raise StructuralError("map values fall outside the codomain")
        self.domain = domain
        self.codomain = codomain
        self.values = vals
        self._hom = None
        self._image: Optional[frozenset[int]] = None
        self._id = next(_map_ids)
        self._composites = self._sums = None
        if hom is not None and self.is_homomorphism() != hom:
            verdict = "is not" if hom else "is"
            raise StructuralError(f"map claims hom={hom}, but {verdict} a homomorphism")

    def __call__(self, x: int) -> int:
        return self.values[x]

    def image(self) -> frozenset[int]:
        if self._image is None:
            self._image = frozenset(self.values)
        return self._image

    def is_homomorphism(self) -> bool:
        if self._hom is None:
            td, tc = self.domain.table, self.codomain.table
            v = self.values
            self._hom = all(
                v[td[a][b]] == tc[v[a]][v[b]]
                for a in range(self.domain.order)
                for b in range(self.domain.order)
            )
        return self._hom

    @property
    def hom_flag(self) -> Optional[bool]:
        return self._hom

    def is_endo(self) -> bool:
        return self.domain is self.codomain

    def key(self) -> tuple:
        return (id(self.domain), id(self.codomain), self.values)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupMap)
            and self.domain is other.domain
            and self.codomain is other.codomain
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return (
            f"GroupMap({self.domain.name} -> {self.codomain.name}, "
            f"values={list(self.values)})"
        )


def _derived_map(
    domain: FiniteGroup,
    codomain: FiniteGroup,
    values: tuple[int, ...],
    hom: Optional[bool] = None,
) -> GroupMap:
    """A map whose values were read from validated maps or group tables.

    ``values`` must be a tuple of codomain indices, one per domain element; it
    is stored as given, without the public constructor's coercion, range and
    ``hom`` checks.  Callers are the identity and zero maps, the map algebra
    and the hom/auto search below, the product code (``ProductGroup``,
    ``recompose``, ``decompose``), the maps ``determinant`` returns from its
    value-tuple elimination chain (determinants and inverse entries), and the
    chain walk of ``autcompare``.
    """
    f = object.__new__(GroupMap)
    f.domain = domain
    f.codomain = codomain
    f.values = values
    f._hom = hom
    f._image = None
    f._id = next(_map_ids)
    f._composites = f._sums = None
    return f


def identity_map(g: FiniteGroup) -> GroupMap:
    return _derived_map(g, g, tuple(range(g.order)), hom=True)


def zero_map(domain: FiniteGroup, codomain: FiniteGroup) -> GroupMap:
    """The constant map onto the codomain identity."""
    return _derived_map(domain, codomain, (codomain.identity,) * domain.order, hom=True)


def _check_composable(f: GroupMap, g: GroupMap) -> None:
    if g.codomain is not f.domain:
        raise StructuralError(
            f"cannot compose: right map lands in {g.codomain.name}, "
            f"left map starts at {f.domain.name}"
        )


def compose(f: GroupMap, g: GroupMap) -> GroupMap:
    """The composite x -> f(g(x)); the right-hand map applies first."""
    _check_composable(f, g)
    fv = f.values
    hom = True if (f._hom and g._hom) else None
    return _derived_map(g.domain, f.codomain, tuple(fv[v] for v in g.values), hom)


def _check_parallel(f: GroupMap, g: GroupMap) -> None:
    if f.domain is not g.domain or f.codomain is not g.codomain:
        raise StructuralError("pointwise operations need identical domain and codomain")


def _check_commuting(g: FiniteGroup, xs: Sequence[int], ys: Sequence[int]) -> None:
    """Raise unless xs[k] and ys[k] commute in g for every k."""
    t = g.table
    for a, b in zip(xs, ys):
        if t[a][b] != t[b][a]:
            raise NoncommutingImagesError(f"images {a} and {b} do not commute in {g.name}")


def pointwise_sum(f: GroupMap, g: GroupMap, require_commuting: bool = False) -> GroupMap:
    """x -> f(x) * g(x), multiplying images left to right."""
    _check_parallel(f, g)
    t = f.codomain.table
    if require_commuting:
        _check_commuting(f.codomain, f.values, g.values)
    return _derived_map(
        f.domain, f.codomain, tuple(t[a][b] for a, b in zip(f.values, g.values))
    )


def pointwise_diff(f: GroupMap, g: GroupMap, require_commuting: bool = False) -> GroupMap:
    """x -> f(x) * g(x)^-1, multiplying images left to right."""
    _check_parallel(f, g)
    t = f.codomain.table
    inv = f.codomain.inverse
    if require_commuting:
        _check_commuting(f.codomain, f.values, g.values)
    return _derived_map(
        f.domain, f.codomain, tuple(t[a][inv[b]] for a, b in zip(f.values, g.values))
    )


def negate(f: GroupMap) -> GroupMap:
    """x -> f(x)^-1."""
    inv = f.codomain.inverse
    return _derived_map(f.domain, f.codomain, tuple(inv[v] for v in f.values))


def is_bijective(f: GroupMap) -> bool:
    """Bijectivity test: equal orders and pairwise distinct images."""
    if f.domain.order != f.codomain.order:
        return False
    v = f.values
    return len(set(v)) == len(v)


def _inverse(values: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a bijection held as a value tuple."""
    out = [0] * len(values)
    for x, y in enumerate(values):
        out[y] = x
    return tuple(out)


def invert(f: GroupMap) -> GroupMap:
    """Functional inverse of a bijection, built by swapping the graph.

    The inverse of a bijective homomorphism is marked as a homomorphism.
    """
    if not is_bijective(f):
        raise InversionError(f"map is not bijective: {f!r}")
    hom = True if f._hom else None
    return _derived_map(f.codomain, f.domain, _inverse(f.values), hom)


def is_central_automorphism(f: GroupMap) -> bool:
    """True when f is an automorphism with f(x) * x^-1 central for every x."""
    if not f.is_endo():
        raise PreconditionError("central automorphisms are endomorphisms")
    if not (f.is_homomorphism() and is_bijective(f)):
        return False
    g = f.domain
    center = g.center_set()
    t, inv = g.table, g.inverse
    return all(t[f.values[x]][inv[x]] in center for x in range(g.order))


def is_normal_endo(f: GroupMap) -> bool:
    """True when f is an endomorphism commuting with every inner automorphism."""
    if not f.is_endo():
        raise StructuralError("normality is defined for endomorphisms only")
    if not f.is_homomorphism():
        return False
    g = f.domain
    if g.is_abelian:
        return True
    t, inv, vals = g.table, g.inverse, f.values
    # Conjugations by the generators generate Inn(g), and f commutes with a
    # composite of maps it commutes with, so the generators suffice.  The
    # conjugate a^-1 x a is read as t[row[x]][a] with row = t[a^-1].
    for a in g.generators():
        row = t[inv[a]]
        if any(vals[t[row[x]][a]] != t[row[v]][a] for x, v in enumerate(vals)):
            return False
    return True


def _candidate_images(
    domain: FiniteGroup,
    codomain: FiniteGroup,
    allowed: Optional[Sequence[int]],
    exact_order: bool,
) -> list[list[int]]:
    """The candidate images of each generator of ``domain``, in ``allowed`` order.

    A generator's image is an element whose order divides the generator's.
    With ``exact_order`` (for isomorphisms, so between groups of equal order)
    it has the generator's order and class size, since an isomorphism maps
    conjugacy classes onto classes of the same size.  The candidates cut
    that way extend to no isomorphism, so every search over these pools
    finds the same maps in the same order, the first completion included.
    """
    pool = range(codomain.order) if allowed is None else allowed
    orders = codomain.element_orders
    pools = []
    for g in domain.generators():
        d = domain.element_orders[g]
        if exact_order:
            size, sizes = domain.class_sizes[g], codomain.class_sizes
            pools.append([y for y in pool if orders[y] == d and sizes[y] == size])
        else:
            pools.append([y for y in pool if d % orders[y] == 0])
    return pools


@_memoised
def _prefix_layers(domain: FiniteGroup):
    """Search steps for the generator prefixes, one step list per level.

    Level i sets the image of gens[i] and extends the map over the elements
    that enter the closure at step i (the closure of gens[:i+1] less that of
    gens[:i]).  Each step (target, source, j, new) reads
    f(source) * f(gens[j]), where target = source * gens[j] in the domain.
    A ``new`` step assigns that value to target, the first time target is
    defined; its source is always defined earlier.  Every other step compares
    it with the value target already has.  The compare steps of level i are
    the products that level newly defines: every x of the previous closure
    with gens[i], and every x of the new layer with each gens[j], j <= i,
    less the products that assign a layer element, which hold by
    construction.  Over levels 0..i they cover every element of the closure
    with every generator so far, each once.  Each compare step comes right
    after the later of its two ends is assigned, so a failing candidate
    stops as early as the level allows.

    Some compare steps are implied by the others: the products of the
    previous closure K with gens[i] follow from the new-layer steps, the map
    being a homomorphism on K, and one defining product (walk x * gens[i],
    x * gens[i]^2, ... through the new layer until it re-enters K).  They
    stay.  Without them every enumerated map was the same and the speed
    difference was within run-to-run noise, and no test could tell the two
    apart; so the removal would buy nothing measurable and would make the
    correctness of every search rest on that argument alone.
    """
    gens = domain.generators()
    t = domain.table
    seen = [False] * domain.order
    seen[domain.identity] = True
    members = [domain.identity]
    levels = []
    for i in range(len(gens)):
        old = len(members)
        new: list[tuple[int, int, int]] = []
        queue = list(members)
        while queue:
            x = queue.pop()
            for j in range(i + 1):
                y = t[x][gens[j]]
                if not seen[y]:
                    seen[y] = True
                    new.append((y, x, j))
                    members.append(y)
                    queue.append(y)
        defining = {(x, j) for _, x, j in new}
        pairs = [(x, i) for x in members[:old]]
        pairs += [(x, j) for x in members[old:] for j in range(i + 1)]
        # ready[m] holds the compare steps whose later end is the m-th
        # new element; ready[0] those with both ends in the old closure.
        rank = {y: m for m, (y, _, _) in enumerate(new, 1)}
        ready: list[list[tuple[int, int, int, bool]]] = [[] for _ in range(len(new) + 1)]
        for x, j in pairs:
            if (x, j) not in defining:
                xg = t[x][gens[j]]
                ready[max(rank.get(x, 0), rank.get(xg, 0))].append((xg, x, j, False))
        steps = ready[0]
        for m, (y, x, j) in enumerate(new, 1):
            steps.append((y, x, j, True))
            steps += ready[m]
        levels.append(tuple(steps))
    return gens, tuple(levels)


def _maps_from_generator_images(
    domain: FiniteGroup,
    codomain: FiniteGroup,
    pools: Sequence[Sequence[int]],
    injective: bool = False,
) -> Iterator[tuple[int, ...]]:
    """Yield the values of every homomorphism with gens[i] -> some c in pools[i].

    A depth-first search over generator images, in pool order.  Level i sets
    the image of gens[i] and runs the level's steps (``_prefix_layers``); it
    stops at the first compare step with f(x * g) != f(x) * f(g).  Levels
    0..i together check every element of the closure with every generator so
    far, which makes a map that passes them a homomorphism on that closure.

    With ``injective``, a candidate is also dropped as soon as a step assigns
    the identity to a new element.  The values a step assigns are fixed by the
    generator images, so if the candidate completes, the completed map is a
    homomorphism that sends that non-identity element to the identity: its
    kernel is not trivial and it is not injective.  Conversely a completed
    map that never assigned the identity has trivial kernel, so it is
    injective.  A caller that needs only one extension takes the first value
    and drops the generator.
    """
    gens, levels = _prefix_layers(domain)
    tc = codomain.table
    e = codomain.identity
    k = len(gens)
    values = [-1] * domain.order
    values[domain.identity] = e
    if k == 0:
        yield tuple(values)
        return
    images = [-1] * k
    kernel = e if injective else -1  # -1 is no element, so homs never stop here

    def descend(i: int) -> Iterator[tuple[int, ...]]:
        steps = levels[i]
        last = i + 1 == k
        for c in pools[i]:
            images[i] = c
            for target, source, j, new in steps:
                v = tc[values[source]][images[j]]
                if new:
                    if v == kernel:
                        break
                    values[target] = v
                elif values[target] != v:
                    break
            else:
                if last:
                    yield tuple(values)
                else:
                    yield from descend(i + 1)

    yield from descend(0)


def enumerate_homs(
    domain: FiniteGroup,
    codomain: FiniteGroup,
    restrict_codomain: Optional[Subgroup] = None,
) -> tuple[GroupMap, ...]:
    """Every homomorphism domain -> codomain, optionally with image inside a subgroup.

    Candidates assign each generator an image whose order divides the
    generator's.  The search extends a candidate one generator at a time and
    checks, at each level, only the (element, generator) products that level
    newly defines (``_prefix_layers``), so every product is checked once.
    Homomorphisms do not form a group, so the whole search tree is walked.
    The listing is sorted by value tuple and kept on the domain, one per
    codomain and restriction (``_hom_listing``).
    """
    allowed: Optional[tuple[int, ...]] = None
    if restrict_codomain is not None:
        if restrict_codomain.parent is not codomain:
            raise PreconditionError("restriction subgroup must live in the codomain")
        allowed = restrict_codomain.elements
    return _hom_listing(domain, codomain, allowed)


@_memoised
def _hom_listing(
    domain: FiniteGroup, codomain: FiniteGroup, allowed: Optional[tuple[int, ...]]
) -> tuple[GroupMap, ...]:
    """``enumerate_homs`` with images in ``allowed`` (None for anywhere)."""
    pools = _candidate_images(domain, codomain, allowed, exact_order=False)
    found = sorted(_maps_from_generator_images(domain, codomain, pools))
    return tuple(_derived_map(domain, codomain, v, hom=True) for v in found)


def enumerate_endos(g: FiniteGroup) -> tuple[GroupMap, ...]:
    return enumerate_homs(g, g)


@_memoised
def _aut_chain(g: FiniteGroup, central: bool) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Coset representatives of the stabiliser chain of the generators.

    Let A_i be the automorphisms that fix gens[:i] pointwise, so A_0 = Aut(g)
    and A_k = {1}.  For each d in the orbit of gens[i] under A_i pick one r_d
    in A_i with r_d(gens[i]) = d.  Every a in A_i with a(gens[i]) = d has
    r_d^-1 a in A_{i+1}, and every r_d s with s in A_{i+1} lies in A_i and
    sends gens[i] to d, so

        A_i = disjoint union over d of  r_d A_{i+1}.

    Level i holds the value tuples of the r_d, in pool order.  Aut(g) is
    therefore the set of products r_0 r_1 ... r_{k-1}, one representative per
    level, each automorphism met exactly once, and |Aut(g)| is the product
    of the level sizes.

    The orbit is found from the deepest level up (the orbit half of
    Schreier-Sims).  It starts as {gens[i]}, represented by the identity.
    The movers are the automorphisms found by search at the deeper levels,
    which generate A_{i+1}, and those found so far at level i; all lie in
    A_i.  The candidates are the elements of the order and class size of
    gens[i] (``_candidate_images``), which include every image of gens[i]
    under an automorphism.  A candidate c not yet in the orbit gets one
    search, with gens[:i] pinned to themselves and gens[i] sent to c.  The
    search either stops at its first completion t_c, an element of A_i that
    becomes a mover, or ends without one, which proves that no member of A_i
    sends gens[i] to c.  After each hit the orbit is closed under the
    movers: a point d with representative r_d and a mover s give the point
    s(d) with representative s r_d, composed as value tuples, which lies in
    A_i and sends gens[i] to s(d).  So the closure stays inside the orbit
    under A_i, and never reaches a candidate whose search failed.  A
    candidate in that orbit is either reached by the closure or found by its
    own search, so at the end the orbit is complete.

    With ``central`` the chain is that of Aut_c(g), the central automorphisms
    (f(x) x^-1 in Z(g) for every x): the pool of each generator x keeps only
    the c with c x^-1 central.  That is exact, because an automorphism f is
    central iff f(x) x^-1 is central for each generator x:
    f(xy)(xy)^-1 = f(x) x^-1 . f(y) y^-1 once f(y) y^-1 is central, and every
    element is a product of generators.  Aut_c(g) is a subgroup, so the
    arguments above hold with A_i the central automorphisms fixing gens[:i].
    """
    gens = g.generators()
    pools = _candidate_images(g, g, None, exact_order=True)
    if central:
        z, tg, inv = g.center_set(), g.table, g.inverse
        pools = [[c for c in pool if tg[c][inv[x]] in z] for x, pool in zip(gens, pools)]
    movers: list[tuple[int, ...]] = []
    levels = []
    for i in reversed(range(len(gens))):
        pinned = [(x,) for x in gens[:i]]
        orbit = {gens[i]: tuple(range(g.order))}
        for c in pools[i]:
            if c in orbit:
                continue
            search = _maps_from_generator_images(
                g, g, pinned + [(c,)] + pools[i + 1:], injective=True
            )
            t = next(search, None)
            if t is None:
                continue
            movers.append(t)
            queue = list(orbit)
            while queue:
                d = queue.pop()
                for s in movers:
                    e = s[d]
                    if e not in orbit:
                        orbit[e] = _composer(orbit[d])(s)  # s r
                        queue.append(e)
        levels.append(tuple(orbit[c] for c in pools[i] if c in orbit))
    return tuple(reversed(levels))


def _chain_order(g: FiniteGroup, central: bool) -> int:
    """|Aut(g)|, or |Aut_c(g)|: the product of the level sizes of ``_aut_chain``."""
    return prod(len(reps) for reps in _aut_chain(g, central))


def aut_order(g: FiniteGroup) -> int:
    """|Aut(g)| from ``_aut_chain``; lists nothing."""
    return _chain_order(g, False)


def _chain_products(g: FiniteGroup, central: bool) -> Iterator[tuple[int, ...]]:
    """Yield the value tuple of every member of Aut(g), or Aut_c(g), one at a time.

    Each is a product r_0 r_1 ... r_{k-1} of ``_aut_chain`` representatives,
    composed as value tuples, (r s)(x) = r(s(x)), not through ``compose``.
    The level-0 representative varies fastest; the partial product
    r_{i+1} ... r_{k-1} of the slower levels is formed once per prefix.
    """
    levels = _aut_chain(g, central)
    if not levels:
        yield tuple(range(g.order))
        return

    def walk(i: int, right: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
        get = _composer(right)  # get(t) is t right
        if i == 0:
            for t in levels[0]:
                yield get(t)
        else:
            for t in levels[i]:
                yield from walk(i - 1, get(t))

    yield from walk(len(levels) - 1, tuple(range(g.order)))


@_memoised
def _chain_listing(g: FiniteGroup, central: bool) -> tuple[GroupMap, ...]:
    """Aut(g), or Aut_c(g), sorted: the products of ``_aut_chain`` representatives.

    Raises ResourceLimitError over AUT_LIST_LIMIT members, before any product.
    """
    order = _chain_order(g, central)
    if order > AUT_LIST_LIMIT:
        raise ResourceLimitError(
            f"{g.name} has {order} {'central ' * central}automorphisms, "
            f"over the listing bound {AUT_LIST_LIMIT}"
        )
    values = sorted(_chain_products(g, central))
    return tuple(_derived_map(g, g, v, hom=True) for v in values)


def enumerate_autos(g: FiniteGroup) -> tuple[GroupMap, ...]:
    """Every automorphism, sorted; at most AUT_LIST_LIMIT (``_chain_listing``)."""
    return _chain_listing(g, False)


def central_aut_group(g: FiniteGroup) -> tuple[GroupMap, ...]:
    """The automorphisms trivial on g modulo its center, sorted (``_chain_listing``)."""
    return _chain_listing(g, True)


def power_map(f: GroupMap, k: int) -> GroupMap:
    """k-fold composite of an endomorphism with itself (k >= 1)."""
    if not f.is_endo():
        raise PreconditionError("powers are defined for endomorphisms only")
    if k < 1:
        raise PreconditionError(f"power must be >= 1, got {k}")
    acc = f
    for _ in range(k - 1):
        acc = compose(f, acc)
    return acc


def fitting_decomposition(f: GroupMap) -> tuple[int, DirectFactorization]:
    """Split the group along a normal endomorphism.

    Returns the least r >= 1 with im f^r = im f^(r+1) and ker f^r = ker f^(r+1),
    together with the validated factorization  G = im f^r x ker f^r.
    """
    if not is_normal_endo(f):
        raise PreconditionError("fitting decomposition needs a normal endomorphism")
    g = f.domain
    e = g.identity
    power = f
    r = 1
    while True:
        im_r = frozenset(power.values)
        ker_r = frozenset(x for x in range(g.order) if power.values[x] == e)
        nxt = compose(f, power)
        im_n = frozenset(nxt.values)
        ker_n = frozenset(x for x in range(g.order) if nxt.values[x] == e)
        if im_r == im_n and ker_r == ker_n:
            break
        power = nxt
        r += 1
        if r > g.order:
            raise StructuralError("image/kernel chains failed to stabilize")
    factorization = DirectFactorization(g, Subgroup(g, im_r), Subgroup(g, ker_r))
    return r, factorization

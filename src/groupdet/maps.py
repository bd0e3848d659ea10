"""Total maps between finite groups and the operations the matrix calculus needs.

A ``GroupMap`` is a total function stored as a value array.  Composition
applies the right-hand map first, matching the usual reading of a juxtaposed
product of maps.  The pointwise sum (f + g)(x) = f(x) * g(x) and difference
(f - g)(x) = f(x) * g(x)^-1 multiply images left to right, and raise
NoncommutingImagesError unless f(x) and g(x) commute for every x: only then
is a sum of homomorphisms a homomorphism.  The library keeps one map per
(domain, codomain, values), made by ``_interned``: every operation reads its
operands as those maps (``_adopted``) and returns one, kept on its left
operand, and so do the listings, identity, zero and product maps.
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
    to share.  ``_id`` is a small int unique to the map; ``_composites``,
    ``_sums`` and ``_diffs`` are the memos of the map algebra on a left
    operand, keyed by the right one's id, None until its first miss
    (``_composite``, ``_sum`` and ``_diff`` below).  ``_inv`` is the inverse
    ``_pivot_inverse`` found, an interned map, or False when the map is not
    bijective; None until asked.  A map built here is outside the intern
    table until an operation or ``EndoMatrix`` adopts it (``_adopted``).
    """

    __slots__ = ("domain", "codomain", "values", "_hom", "_image", "_id",
                 "_composites", "_sums", "_diffs", "_inv")

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
        self._composites = self._sums = self._diffs = self._inv = None
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
    ``hom`` checks.  The maps the library keeps are made here by ``_interned``
    alone.  The other callers' maps are never kept or never reach the map
    algebra, so interning them would only grow the tables: ``recompose``'s
    result (interned, it would live as long as its product), the composites
    of ``pairs._CompositeFacts`` and ``autcompare``'s walk over Aut(H x K).
    """
    f = object.__new__(GroupMap)
    f.domain = domain
    f.codomain = codomain
    f.values = values
    f._hom = hom
    f._image = None
    f._id = next(_map_ids)
    f._composites = f._sums = f._diffs = f._inv = None
    return f


# Read in place of a memo not yet made; never written.
_NO_MEMO: dict = {}


@_memoised
def _intern_table(dom: FiniteGroup, cod: FiniteGroup) -> dict:
    """The one map per value tuple dom -> cod that the library has made,
    listed or been handed (``_adopted``)."""
    return {}


def _interned(dom: FiniteGroup, cod: FiniteGroup, values: tuple, hom: Optional[bool]) -> GroupMap:
    """The interned map dom -> cod with these values, made on first sight: the
    one maker of the maps the library keeps.  A known ``hom`` flag is
    recorded on a map found unflagged."""
    table = _intern_table(dom, cod)
    f = table.get(values)
    if f is None:
        f = table[values] = _derived_map(dom, cod, values, hom)
    elif f._hom is None:
        f._hom = hom
    return f


@_memoised
def identity_map(g: FiniteGroup) -> GroupMap:
    """The identity of g: the interned one, kept on g."""
    return _interned(g, g, tuple(range(g.order)), True)


@_memoised
def zero_map(domain: FiniteGroup, codomain: FiniteGroup) -> GroupMap:
    """The constant map onto the codomain identity: the interned one, kept on
    the domain.  A negation is a difference from it (``_negated``)."""
    return _interned(domain, codomain, (codomain.identity,) * domain.order, True)


def _composite(f: GroupMap, g: GroupMap) -> GroupMap:
    """The composite x -> f(g(x)), kept on f under g's id; a homomorphism when
    f and g are known to be (an elimination's differences may not be)."""
    fv, hom = f.values, True if f._hom and g._hom else None
    f._composites = memo = f._composites or {}
    memo[g._id] = h = _interned(g.domain, f.codomain, tuple([fv[v] for v in g.values]), hom)
    return h


def _check_commuting(g: FiniteGroup, xs: Sequence[int], ys: Sequence[int]) -> None:
    """Raise unless xs[k] and ys[k] commute in g for every k."""
    t = g.table
    for a, b in zip(xs, ys):
        if t[a][b] != t[b][a]:
            raise NoncommutingImagesError(f"images {a} and {b} do not commute in {g.name}")


def _sum(f: GroupMap, g: GroupMap) -> GroupMap:
    """The pointwise sum x -> f(x) * g(x), kept on f under g's id once its
    images are checked to commute; a sum that raises is not kept."""
    cod, fv, gv = f.codomain, f.values, g.values
    _check_commuting(cod, fv, gv)
    t = cod.table
    f._sums = memo = f._sums or {}
    memo[g._id] = h = _interned(f.domain, cod, tuple([t[a][b] for a, b in zip(fv, gv)]), None)
    return h


def _diff(f: GroupMap, g: GroupMap) -> GroupMap:
    """The pointwise difference x -> f(x) * g(x)^-1, kept on f under g's id once
    its images are checked to commute; a difference that raises is not kept."""
    cod, fv, gv = f.codomain, f.values, g.values
    _check_commuting(cod, fv, gv)
    t, neg = cod.table, cod.inverse
    f._diffs = memo = f._diffs or {}
    memo[g._id] = h = _interned(f.domain, cod, tuple([t[a][neg[b]] for a, b in zip(fv, gv)]), None)
    return h


def _negated(f: GroupMap) -> GroupMap:
    """x -> f(x)^-1, kept on the zero map under f's id (``_diff``)."""
    z = zero_map(f.domain, f.codomain)
    return (z._diffs or _NO_MEMO).get(f._id) or _diff(z, f)


def _inverse(values: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse of a bijection held as a value tuple."""
    out = [0] * len(values)
    for x, y in enumerate(values):
        out[y] = x
    return tuple(out)


def _pivot_inverse(f: GroupMap) -> GroupMap | bool:
    """The inverse of f, an interned map codomain -> domain; False when f is
    not a bijection.  Kept on f (``GroupMap._inv``): f is the one interned
    map of its values, so each is tested and inverted once, and the answer,
    which depends on the values alone, never goes stale."""
    w = f._inv
    if w is None:
        bijective = len(set(f.values)) == f.domain.order == f.codomain.order
        w = f._inv = bijective and _interned(f.codomain, f.domain, _inverse(f.values), f._hom)
    return w


def _adopted(f: GroupMap) -> GroupMap:
    """The interned map of f's values, f itself when they are new; forms no
    map.  A hom flag known to f alone is recorded by ``_interned``."""
    dom, cod, v = f.domain, f.codomain, f.values
    e = _intern_table(dom, cod).setdefault(v, f)
    return e if e._hom is not None or f._hom is None else _interned(dom, cod, v, f._hom)


def _composable(f: GroupMap, g: GroupMap) -> tuple[GroupMap, GroupMap]:
    """The interned maps of f and g (``_adopted``), once f . g is defined."""
    if g.codomain is not f.domain:
        raise StructuralError(
            f"cannot compose: right map lands in {g.codomain.name}, "
            f"left map starts at {f.domain.name}"
        )
    return _adopted(f), _adopted(g)


def compose(f: GroupMap, g: GroupMap) -> GroupMap:
    """The composite x -> f(g(x)); the right-hand map applies first
    (``_composite``)."""
    f, g = _composable(f, g)
    return (f._composites or _NO_MEMO).get(g._id) or _composite(f, g)


def _parallel(f: GroupMap, g: GroupMap) -> tuple[GroupMap, GroupMap]:
    """The interned maps of f and g (``_adopted``), once they are parallel."""
    if f.domain is not g.domain or f.codomain is not g.codomain:
        raise StructuralError("pointwise operations need identical domain and codomain")
    return _adopted(f), _adopted(g)


def pointwise_sum(f: GroupMap, g: GroupMap) -> GroupMap:
    """x -> f(x) * g(x), multiplying images left to right; the images must
    commute (``_sum``)."""
    f, g = _parallel(f, g)
    return (f._sums or _NO_MEMO).get(g._id) or _sum(f, g)


def pointwise_diff(f: GroupMap, g: GroupMap) -> GroupMap:
    """x -> f(x) * g(x)^-1, multiplying images left to right; the images must
    commute (``_diff``)."""
    f, g = _parallel(f, g)
    return (f._diffs or _NO_MEMO).get(g._id) or _diff(f, g)


def negate(f: GroupMap) -> GroupMap:
    """x -> f(x)^-1 (``_negated``)."""
    return _negated(_adopted(f))


def is_bijective(f: GroupMap) -> bool:
    """Bijectivity test: equal orders and pairwise distinct images."""
    if f.domain.order != f.codomain.order:
        return False
    v = f.values
    return len(set(v)) == len(v)


def invert(f: GroupMap) -> GroupMap:
    """Functional inverse of a bijection (``_pivot_inverse``).

    The inverse of a bijective homomorphism is marked as a homomorphism.
    """
    f = _adopted(f)
    w = _pivot_inverse(f)
    if w is False:
        raise InversionError(f"map is not bijective: {f!r}")
    if f._hom and w._hom is None:
        w._hom = True
    return w


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
    defined.  Every other step compares it with the value target already has.

    Each level is one LIFO walk: an element of the previous closure meets
    gens[i] only, and each new element meets gens[:i+1], so over levels
    0..i every element of the closure meets every generator so far exactly
    once.  A pair whose product the walk has not reached defines it, from a
    source assigned earlier; every other pair becomes a compare step, filed
    right after the later of its two ends is assigned, so a failing
    candidate stops as early as the level allows.

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
    rank = [-1] * domain.order  # -1 until reached
    members = [domain.identity]
    levels = []
    for i in range(len(gens)):
        # rank 0: the previous closure; rank m: the m-th new element, whose
        # bucket holds its step, then the compare steps whose later end it is.
        for x in members:
            rank[x] = 0
        buckets: list[list[tuple[int, int, int, bool]]] = [[]]
        pairs = list(enumerate(gens[:i + 1]))
        queue = members[:]
        while queue:
            x = queue.pop()
            row, rx = t[x], rank[x]
            for j, gen in pairs if rx else pairs[i:]:
                y = row[gen]
                ry = rank[y]
                if ry < 0:
                    rank[y] = len(buckets)
                    members.append(y)
                    buckets.append([(y, x, j, True)])
                    queue.append(y)
                else:
                    buckets[max(rx, ry)].append((y, x, j, False))
        levels.append(tuple(step for bucket in buckets for step in bucket))
    return gens, tuple(levels)


def _maps_from_generator_images(
    domain: FiniteGroup, codomain: FiniteGroup, pools: Sequence[Sequence[int]]
) -> Iterator[tuple[int, ...]]:
    """Yield the values of every homomorphism with gens[i] -> some c in pools[i].

    A depth-first search over generator images, in pool order, that walks
    the whole tree.  Level i sets the image of gens[i] and runs the level's
    steps (``_prefix_layers``); it stops at the first compare step with
    f(x * g) != f(x) * f(g).  Levels 0..i together check every element of
    the closure with every generator so far, which makes a map that passes
    them a homomorphism on that closure.  ``_first_isomorphism`` is the same
    search stopped at its first injective completion.
    """
    gens, levels = _prefix_layers(domain)
    tc = codomain.table
    k = len(gens)
    values = [-1] * domain.order
    values[domain.identity] = codomain.identity
    images = [-1] * k
    if k == 0:
        yield tuple(values)
        return

    def descend(i: int) -> Iterator[tuple[int, ...]]:
        steps = levels[i]
        last = i + 1 == k
        for c in pools[i]:
            images[i] = c
            for target, source, j, new in steps:
                v = tc[values[source]][images[j]]
                if new:
                    values[target] = v
                elif values[target] != v:
                    break
            else:
                if last:
                    yield tuple(values)
                else:
                    yield from descend(i + 1)

    yield from descend(0)


def _first_isomorphism(
    domain: FiniteGroup, codomain: FiniteGroup, pools: Sequence[Sequence[int]],
    start: int = 0, slack: Optional[Sequence[int]] = None,
) -> Optional[tuple[int, ...]]:
    """The values of the first injective homomorphism of the search of
    ``_maps_from_generator_images`` over these pools, or None.

    A candidate is dropped as soon as a step assigns the identity to a new
    element.  The values a step assigns are fixed by the generator images,
    so a completion would be a homomorphism with a nontrivial kernel.  A
    completion that never assigned the identity has trivial kernel, so it is
    injective; between groups of equal order it is an isomorphism.

    With ``start`` (``_aut_chain``'s automorphisms fixing gens[:start]) the
    map is the identity on their closure, where lower levels cannot fail:
    the search starts at level ``start`` and finds what pools (gens[0],), ...
    would.  A node of level j is given up once more than ``slack[j]`` of its
    candidates fail; every node that extends meets ``_aut_chain``'s bounds.
    """
    gens, levels = _prefix_layers(domain)
    tc = codomain.table
    e = codomain.identity
    k = len(gens)
    values = list(range(domain.order)) if start else [-1] * domain.order
    values[domain.identity] = e
    images = list(gens[:start]) + [-1] * (k - start)
    slack = slack or [len(pool) for pool in pools]

    def descend(i: int) -> Optional[tuple[int, ...]]:
        if i == k:
            return tuple(values)
        steps, spare = levels[i], slack[i]
        for c in pools[i]:
            images[i] = c
            for target, source, j, new in steps:
                v = tc[values[source]][images[j]]
                if new:
                    if v == e:
                        break
                    values[target] = v
                elif values[target] != v:
                    break
            else:
                found = descend(i + 1)
                if found is not None:
                    return found
            if not spare:
                return None
            spare -= 1
        return None

    return descend(start)


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
    return tuple(_interned(domain, codomain, v, True) for v in found)


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
    search from level i, with gens[:i] fixed and gens[i] sent to c.  The
    search (``_first_isomorphism``) either stops at its first completion
    t_c, an element of A_i that becomes a mover, or ends without one, which
    proves that no member of A_i sends gens[i] to c.  After each hit the
    orbit is closed under the movers, incrementally: the new mover meets the
    old points and every mover meets the new ones.  A point d with
    representative r_d and a mover s give the point s(d) with representative
    s r_d, composed as value tuples, which lies in A_i and sends gens[i] to
    s(d).  So the closure stays inside the orbit under A_i.  A candidate in
    that orbit is either reached by the closure or found by its own search,
    so at the end the orbit is complete.

    Two exact cuts keep the searches from proving a failure twice.  A failed
    candidate rules out its whole orbit under the movers: they lie in A_i,
    so the complement of the A_i-orbit of gens[i] is A_i-invariant.  And a
    search gives up a node at a deeper level j once more than
    |pool_j| - |O_j| candidates have failed there, O_j the orbit of level j:
    if the node extends to an automorphism psi, every psi a with a in A_j
    extends it too and sends gens[j] to psi(a(gens[j])), so |O_j| distinct
    candidates of pool_j complete.

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
    levels: list[tuple[tuple[int, ...], ...]] = [()] * len(gens)
    slack = [0] * len(gens)  # failures a node of level j may have (``_first_isomorphism``)
    for i in reversed(range(len(gens))):
        # the representative of each orbit point; None for a ruled-out candidate
        known = {gens[i]: tuple(range(g.order))}
        for c in pools[i]:
            if c in known:
                continue
            t = _first_isomorphism(g, g, pools[:i] + [(c,)] + pools[i + 1:], i, slack)
            if t is None:
                known[c] = None
                queue = [(c, movers)]
            else:
                movers.append(t)
                queue = [(d, (t,)) for d, r in known.items() if r]
            while queue:
                d, ms = queue.pop()
                r = known[d]
                for s in ms:
                    e = s[d]
                    if e not in known:
                        known[e] = r and _composer(r)(s)  # s r
                        queue.append((e, movers))
        levels[i] = reps = tuple(known[c] for c in pools[i] if known[c])
        slack[i] = len(pools[i]) - len(reps)
    return tuple(levels)


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
    return tuple(_interned(g, g, v, True) for v in values)


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
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise PreconditionError(f"power must be an int >= 1, got {k!r}")
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
    g, e = f.domain, f.domain.identity
    power, r, last = f, 0, None
    while True:
        # power is f^(r+1); last holds the image and kernel of f^r
        im_ker = power.image(), frozenset(x for x, y in enumerate(power.values) if y == e)
        if im_ker == last:
            break
        if r == g.order:
            raise StructuralError("image/kernel chains failed to stabilize")
        last, power, r = im_ker, compose(f, power), r + 1
    return r, DirectFactorization(g, Subgroup(g, last[0]), Subgroup(g, last[1]))

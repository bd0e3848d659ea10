"""Group-pair predicates: incompatibility in four flavors and what they imply.

A pair (H, K) is incompatible when no composition of cross homomorphisms
sigma: H -> K, tau: K -> H with both sigma.tau and tau.sigma normal fixes a
nontrivial element; centrally incompatible restricts to center-valued
homomorphisms; totally incompatible asks the compositions to be pointwise
nilpotent instead of merely fixed-point-free.  For finite groups these
predicates collapse onto direct-factor structure, and ``classify_pair``
cross-checks every such equivalence while assembling its report.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Optional, Union

from .autcompare import _composites, _set_order
from .errors import ResourceLimitError, StructuralError
from .groups import (
    CommonFactorWitness,
    FiniteGroup,
    build_group,
    common_nontrivial_factor,
)
from .maps import (
    GroupMap,
    _derived_map,
    aut_order,
    enumerate_homs,
    identity_map,
    is_bijective,
    is_normal_endo,
    pointwise_sum,
)
from .matrices import DEFAULT_AUT_ENUM_LIMIT, ProductGroup, _check_enum_bound, map_to_dict

__all__ = [
    "PairWitness",
    "PairReport",
    "is_incompatible",
    "is_totally_incompatible",
    "is_centrally_incompatible",
    "is_centrally_totally_incompatible_of_length",
    "nilpotency_index",
    "a_subgroup_check",
    "classify_pair",
]


@dataclass(frozen=True)
class PairWitness:
    """A counterexample (sigma, tau, element) for one of the pair predicates.

    ``element`` indexes tau's domain (the second group of the pair): it is a
    nontrivial fixed point of sigma.tau, or an element whose orbit under
    sigma.tau never reaches the identity.
    """

    kind: str
    sigma: GroupMap
    tau: GroupMap
    element: int

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "sigma": map_to_dict(self.sigma),
            "tau": map_to_dict(self.tau),
            "element": self.element,
        }


def _composer(values: tuple[int, ...]):
    """The function x -> (x[v] for v in values), as a tuple: ``x`` after ``values``."""
    if len(values) == 1:  # itemgetter of one index returns the item, not a tuple
        (v,) = values
        return lambda x: (x[v],)
    return itemgetter(*values)


def _fixed_point(values: tuple[int, ...], identity: int) -> Optional[int]:
    for x, v in enumerate(values):
        if v == x and x != identity:
            return x
    return None


def _nilpotency_index(values: tuple[int, ...], identity: int) -> Optional[int]:
    """Least n >= 1 with the n-th power of the self-map ``values`` trivial, or None.

    Iteration stops after |domain| steps: past that point the image chain has
    stabilized, so an orbit still away from the identity never reaches it.
    """
    trivial = (identity,) * len(values)
    step = values.__getitem__
    power = values
    for n in range(1, len(values) + 1):
        if power == trivial:
            return n
        power = tuple(map(step, power))
    return None


def _survivor(values: tuple[int, ...], identity: int) -> int:
    """The first element whose orbit misses the identity.

    ``values`` is a self-map that is not nilpotent, so such an element exists.
    """
    for x in range(len(values)):
        y = values[x]
        for _ in range(len(values)):
            if y == identity:
                break
            y = values[y]
        else:
            return x


class _CompositeFacts(dict):
    """Composites on one group, keyed by value tuple, with their facts on first lookup.

    A composite's facts are None when it is not a normal endomorphism, and
    otherwise (its first nontrivial fixed point, its nilpotency index), each
    None when absent.  Every verdict of the pair predicates reads only these.
    """

    def __init__(self, g: FiniteGroup):
        super().__init__()
        self.g = g

    def __missing__(self, values: tuple[int, ...]):
        g = self.g
        facts = None
        if is_normal_endo(_derived_map(g, g, values, hom=True)):
            facts = (_fixed_point(values, g.identity), _nilpotency_index(values, g.identity))
        self[values] = facts
        return facts


class _Verdicts:
    """The predicates over one family of qualifying pairs: all, or center-valued.

    ``compatible`` is the first pair whose sigma.tau fixes a nontrivial
    element, ``not_totally`` the first pair with neither composition
    nilpotent; ``length`` is the largest smaller nilpotency index seen before
    ``not_totally``.  Both witnesses found means the family is settled.
    """

    def __init__(self, central: bool):
        self.central = central
        self.compatible: Optional[PairWitness] = None
        self.not_totally: Optional[PairWitness] = None
        self.length = 0

    @property
    def settled(self) -> bool:
        return self.compatible is not None and self.not_totally is not None

    @property
    def incompatible(self) -> bool:
        return self.compatible is None

    @property
    def totally(self) -> bool:
        return self.not_totally is None

    @property
    def total_length(self) -> Optional[int]:
        return max(self.length, 1) if self.totally else None

    def visit(self, sigma, tau, st, st_facts, ts_facts) -> None:
        fixed, n_st = st_facts
        n_ts = ts_facts[1]
        if self.compatible is None and fixed is not None:
            kind = "centrally_compatible" if self.central else "compatible"
            self.compatible = PairWitness(kind, sigma, tau, fixed)
        if self.not_totally is not None:
            return
        if n_st is None and n_ts is None:
            kind = "centrally_not_totally" if self.central else "not_totally"
            survivor = _survivor(st, tau.domain.identity)
            self.not_totally = PairWitness(kind, sigma, tau, survivor)
        elif n_st is None or n_ts is None:
            raise StructuralError(
                "one composition nilpotent and the other not; these rise and fall together"
            )
        else:
            self.length = max(self.length, min(n_st, n_ts))


def _pair_pass(h: FiniteGroup, k: FiniteGroup) -> tuple[_Verdicts, _Verdicts]:
    """Every pair predicate, over all pairs and over the center-valued ones, in one walk.

    A pair (sigma, tau) in Hom(h, k) x Hom(k, h) qualifies when sigma.tau and
    tau.sigma are both normal endomorphisms.  Normality is tested exactly,
    not shortcut through image centrality, because compositions with
    noncentral image can still be normal.  The walk runs sigma outermost,
    both in sorted order.  The composites are value tuples, and their facts
    (``_CompositeFacts``) are worked out once per distinct tuple.

    The pair is center-valued when sigma lands in Z(k) and tau in Z(h).  The
    sorted center-valued homomorphisms are a subsequence of the sorted
    homomorphisms, so the center-valued pairs come in the same order as a
    walk over them alone, and each first central hit is that walk's
    witness.  Once all four witnesses are found the walk stops; once the
    plain family is settled, it visits center-valued pairs only.  Returns
    the (plain, central) verdicts.
    """
    zh, zk = h.center_set(), k.center_set()
    k_facts, h_facts = _CompositeFacts(k), _CompositeFacts(h)
    plain, central = _Verdicts(False), _Verdicts(True)
    taus = [
        (tau, _composer(tau.values), zh.issuperset(tau.values))
        for tau in enumerate_homs(k, h)
    ]
    central_taus = [entry for entry in taus if entry[2]]
    for sigma in enumerate_homs(h, k):
        sv = sigma.values
        s_central = zk.issuperset(sv)
        if not plain.settled:
            row = taus
        elif central.settled:
            break
        elif s_central:
            row = central_taus
        else:
            continue
        after_sigma = _composer(sv)
        for tau, after_tau, t_central in row:
            st = after_tau(sv)  # sigma.tau, a self-map of k
            st_facts = k_facts[st]
            if st_facts is None:
                continue
            ts_facts = h_facts[after_sigma(tau.values)]  # tau.sigma, on h
            if ts_facts is None:
                continue
            plain.visit(sigma, tau, st, st_facts, ts_facts)
            if s_central and t_central:
                central.visit(sigma, tau, st, st_facts, ts_facts)
    return plain, central


def is_incompatible(
    h: FiniteGroup, k: FiniteGroup, central: bool = False
) -> tuple[bool, Optional[PairWitness]]:
    """No qualifying composition fixes a nontrivial element.

    The search runs on the k side (fixed points of sigma.tau); the h side is
    equivalent because a fixed point of one composition maps to a fixed point
    of the other.  Returns the first counterexample in enumeration order.
    With ``central`` the homomorphisms are restricted to the center-valued ones.
    """
    verdicts = _pair_pass(h, k)[central]
    return verdicts.incompatible, verdicts.compatible


def is_centrally_incompatible(
    h: FiniteGroup, k: FiniteGroup
) -> tuple[bool, Optional[PairWitness]]:
    """is_incompatible with homomorphisms restricted to land in the centers."""
    return is_incompatible(h, k, central=True)


def nilpotency_index(f: GroupMap) -> Optional[int]:
    """Least n >= 1 with f^n trivial, or None when no power is."""
    if f.domain is not f.codomain:
        raise StructuralError("nilpotency concerns self-maps")
    return _nilpotency_index(f.values, f.domain.identity)


def is_totally_incompatible(
    h: FiniteGroup, k: FiniteGroup, central: bool = False
) -> tuple[bool, Optional[int], Optional[PairWitness]]:
    """Every qualifying composition is pointwise nilpotent.

    When the answer is yes, also reports the pair's length: the largest over
    qualifying (sigma, tau) of the smaller of the two nilpotency indices, so
    that for every pair one composition to that power is already trivial.
    """
    verdicts = _pair_pass(h, k)[central]
    return verdicts.totally, verdicts.total_length, verdicts.not_totally


def is_centrally_totally_incompatible_of_length(
    h: FiniteGroup, k: FiniteGroup, n: int
) -> bool:
    """For every center-valued qualifying pair, one n-th power is trivial.

    That is: centrally totally incompatible, with central length at most n.
    """
    if n < 1:
        raise StructuralError("length must be a positive integer")
    central = _pair_pass(h, k)[True]
    return central.totally and central.total_length <= n


def a_subgroup_check(
    h: FiniteGroup,
    k: FiniteGroup,
    max_product_order: int = DEFAULT_AUT_ENUM_LIMIT,
) -> tuple[bool, Optional[GroupMap]]:
    """Whether A over (h, k) is closed as a group of automorphisms.

    The criterion: lambda + xi.mu and nu + mu.xi are bijective for every
    lambda in Aut(h), nu in Aut(k), mu: h -> Z(k), xi: k -> Z(h).  Since
    lambda + xi.mu = lambda.(1 + lambda^-1.xi.mu) and xi -> lambda^-1.xi
    permutes Hom(k, Z(h)), the first holds for every lambda iff 1 + xi.mu is
    bijective for every (xi, mu); likewise nu + mu.xi with 1 + mu.xi.  And
    1 + xi.mu is bijective iff 1 + mu.xi is: both are endomorphisms, since
    the added part has central image, and if xi.mu(x) = x^-1 with x != 1 then
    y = mu(x) != 1 has mu.xi(y) = y^-1, and back.  So the check is one loop
    over the distinct composites xi.mu of ``autcompare._composites``, and no
    automorphism group is listed.  On failure the witness is the first
    non-bijective sum, the same as over lambda in sorted order, whose first
    member is the identity.

    The maps 1 + xi.mu are also the maps 1 - xi.mu, since xi -> xi^-1
    permutes Hom(k, Z(h)) and (xi^-1).mu = -(xi.mu); so A is closed exactly
    when it lies inside Aut(h x k) (``compare_aut_vs_A``'s ``a_subset_aut``).
    """
    _check_enum_bound((h, k), max_product_order)
    one = identity_map(h)
    for phi, _ in _composites(h, k):
        s = pointwise_sum(one, phi, require_commuting=True)
        if not is_bijective(s):
            return False, s
    return True, None


@dataclass(frozen=True)
class PairReport:
    """Everything classify_pair establishes about one pair of groups.

    ``total_length`` is present exactly when the pair is totally
    incompatible; ``a_is_subgroup``/``a_equals_aut`` are None when the
    automorphism enumeration hit its resource bound (then ``incomplete``).
    """

    h_spec: str
    k_spec: str
    incompatible: bool
    centrally_incompatible: bool
    totally_incompatible: bool
    total_length: Optional[int]
    common_factor: Optional[CommonFactorWitness]
    a_is_subgroup: Optional[bool]
    a_equals_aut: Optional[bool]
    witnesses: tuple[PairWitness, ...] = ()
    incomplete: bool = False

    def __post_init__(self):
        if self.totally_incompatible and not self.incompatible:
            raise StructuralError("totally incompatible pair claims to be compatible")
        if self.incompatible and not self.centrally_incompatible:
            raise StructuralError("incompatible pair claims to be centrally compatible")
        if self.common_factor is not None and self.incompatible:
            raise StructuralError("a common factor always produces a compatible pair")

    def as_dict(self) -> dict:
        cf = None
        if self.common_factor is not None:
            cf = {
                "factor_order": self.common_factor.h_factor.order,
                "h_elements": list(self.common_factor.h_factor.elements),
                "k_elements": list(self.common_factor.k_factor.elements),
            }
        return {
            "h_spec": self.h_spec,
            "k_spec": self.k_spec,
            "incompatible": self.incompatible,
            "centrally_incompatible": self.centrally_incompatible,
            "totally_incompatible": self.totally_incompatible,
            "total_length": self.total_length,
            "common_factor": cf,
            "a_is_subgroup": self.a_is_subgroup,
            "a_equals_aut": self.a_equals_aut,
            "witnesses": [w.as_dict() for w in self.witnesses],
            "incomplete": self.incomplete,
        }


def _check(condition: bool, label: str) -> None:
    if not condition:
        raise StructuralError(f"finite-case equivalence violated: {label}")


def classify_pair(
    h: Union[FiniteGroup, str],
    k: Union[FiniteGroup, str],
    max_product_order: int = DEFAULT_AUT_ENUM_LIMIT,
) -> PairReport:
    """Full pair report with every applicable finite-case equivalence checked.

    Finite groups satisfy both chain conditions on normal subgroups, so each
    of the structure results applies unconditionally: incompatibility must
    coincide with the absence of a common nontrivial direct factor, central
    incompatibility with the absence of a central one and with A being a
    subgroup, and Aut = A again with the absence of a common factor.  Any
    divergence raises StructuralError.  Each A-side fact is decided once.
    ``a_subgroup_check`` also decides whether A is inside Aut(H x K), as the
    maps 1 + xi.mu it tests are the maps 1 - xi.mu; if so, Aut = A iff
    |Aut(H x K)| = |A|, and H x K is built only then.  The Aut-level facts
    degrade to None (and ``incomplete=True``) when the product exceeds the
    enumeration bound.
    """
    hg = build_group(h) if isinstance(h, str) else h
    kg = build_group(k) if isinstance(k, str) else k
    plain, central = _pair_pass(hg, kg)
    incompatible, centrally, totally = plain.incompatible, central.incompatible, plain.totally
    witnesses = [
        w for w in (plain.compatible, central.compatible, plain.not_totally) if w is not None
    ]
    common = common_nontrivial_factor(hg, kg)
    central_common = common_nontrivial_factor(hg, kg, central_only=True)

    a_subgroup: Optional[bool] = None
    a_equals_aut: Optional[bool] = None
    incomplete = False
    try:
        a_subgroup, _ = a_subgroup_check(hg, kg, max_product_order)
        a_equals_aut = a_subgroup and (
            aut_order(ProductGroup.of(hg, kg).product) == _set_order(hg, kg, False)[1]
        )
    except ResourceLimitError:
        incomplete = True

    _check(incompatible == (common is None), "incompatible vs common factor")
    _check(
        centrally == (central_common is None),
        "centrally incompatible vs common central factor",
    )
    if totally:
        _check(incompatible, "totally incompatible implies incompatible")
    if a_subgroup is not None:
        _check(centrally == a_subgroup, "centrally incompatible vs A closed")
        _check(
            a_subgroup == (central_common is None),
            "A closed vs common central factor",
        )
    if a_equals_aut is not None:
        _check(a_equals_aut == (common is None), "Aut equal A vs common factor")
        if totally:
            _check(a_equals_aut, "totally incompatible implies Aut equal A")

    return PairReport(
        h_spec=hg.name,
        k_spec=kg.name,
        incompatible=incompatible,
        centrally_incompatible=centrally,
        totally_incompatible=totally,
        total_length=plain.total_length,
        common_factor=common,
        a_is_subgroup=a_subgroup,
        a_equals_aut=a_equals_aut,
        witnesses=tuple(witnesses),
        incomplete=incomplete,
    )

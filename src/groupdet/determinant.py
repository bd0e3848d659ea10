"""Determinants of homomorphism matrices and the closed-form inverses they yield.

For a 2 x 2 matrix (alpha, beta; gamma, delta) the two determinants are

    det_h = alpha - beta . delta^-1 . gamma   (needs delta bijective),
    det_k = delta - gamma . alpha^-1 . beta   (needs alpha bijective),

self-maps of the first and second factor respectively.  A matrix with a
bijective diagonal entry is invertible exactly when the corresponding
determinant is bijective, and the inverse is then given entrywise in closed
form.  For n factors the determinant is built by successive pivot
elimination: each step removes one factor, replacing entry (i, j) by
entry(i,j) - entry(i,p) . pivot^-1 . entry(p,j).

The inverse runs back along the same chain.  The final 1 x 1 determinant
is inverted first; each earlier state is then inverted from the inverse of
the state its pivot left behind, by the 2 x 2 block formulas.  A 2 x 2
inverse is the one-step case, with the pivot ``branch_determinant`` picks.

A determinant can be *undefined* (no bijective pivot at some step) without
the matrix being singular; that situation raises DeterminantUndefinedError
and callers fall back to a direct bijectivity check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import DeterminantUndefinedError, InversionError, PreconditionError, StructuralError
from .groups import FiniteGroup
from .maps import (
    GroupMap,
    _derived_map,
    compose,
    invert,
    is_bijective,
    negate,
    pointwise_diff,
    pointwise_sum,
)
from .matrices import EndoMatrix, _product_of_composites, in_A

__all__ = [
    "FSequence",
    "PartialDet",
    "DetIffReport",
    "det_h",
    "det_k",
    "det_A",
    "determinant_step_bound",
    "branch_determinant",
    "f_determinant",
    "is_invertible_via_det",
    "invert_via_det",
    "invert_via_det_pleasant",
    "detiff_check",
]


@dataclass(frozen=True)
class FSequence:
    """An ordered choice of factor indices to eliminate (0-based, distinct).

    A full sequence for n factors eliminates n - 1 indices; the survivor is
    the one index not listed.  The canonical sequence eliminates the last
    factor first and works downward, surviving factor 0.
    """

    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if len(set(self.images)) != len(self.images):
            raise PreconditionError("elimination indices must be distinct")
        if any(i < 0 or i >= self.n for i in self.images):
            raise PreconditionError(f"elimination indices must lie in 0..{self.n - 1}")

    @classmethod
    def canonical(cls, n: int) -> "FSequence":
        return cls(n, tuple(range(n - 1, 0, -1)))

    @property
    def survivors(self) -> tuple[int, ...]:
        gone = set(self.images)
        return tuple(i for i in range(self.n) if i not in gone)


@dataclass
class PartialDet:
    """The matrix left after eliminating a prefix of an FSequence.

    ``maps[(i, j)]`` is indexed by surviving global factor indices.  When one
    survivor remains, ``final_map`` is the fully eliminated determinant.
    """

    factors: tuple[FiniteGroup, ...]
    survivors: tuple[int, ...]
    eliminated: tuple[int, ...]
    maps: dict[tuple[int, int], GroupMap]

    @property
    def final_map(self) -> GroupMap:
        if len(self.survivors) != 1:
            raise PreconditionError(
                f"{len(self.survivors)} factors remain; the determinant is not fully eliminated"
            )
        s = self.survivors[0]
        return self.maps[(s, s)]


def _schur(a: GroupMap, b: GroupMap, w: GroupMap, c: GroupMap) -> GroupMap:
    """a - b . w . c: the entry left when a pivot block with inverse w is eliminated."""
    return pointwise_diff(a, compose(b, compose(w, c)), require_commuting=True)


def _eliminate(state: PartialDet, pivot: int) -> PartialDet:
    """One elimination step; raises DeterminantUndefinedError on a dead pivot."""
    if pivot not in state.survivors:
        raise PreconditionError(f"index {pivot} is not a surviving factor")
    maps = state.maps
    if not is_bijective(maps[(pivot, pivot)]):
        raise DeterminantUndefinedError(
            f"pivot entry ({pivot}, {pivot}) is not bijective", pivot_index=pivot
        )
    w = invert(maps[(pivot, pivot)])
    rest = tuple(i for i in state.survivors if i != pivot)
    out = {
        (i, j): _schur(maps[(i, j)], maps[(i, pivot)], w, maps[(pivot, j)])
        for i in rest
        for j in rest
    }
    return PartialDet(state.factors, rest, state.eliminated + (pivot,), out)


def f_determinant(m: EndoMatrix, fseq: Optional[FSequence] = None) -> list[PartialDet]:
    """The chain of partial determinants along an elimination sequence.

    The chain starts with the matrix itself (nothing eliminated) and ends,
    for a full sequence, with a single self-map of the surviving factor.
    """
    n = m.n
    if fseq is None:
        fseq = FSequence.canonical(n)
    if fseq.n != n:
        raise PreconditionError(f"sequence is over {fseq.n} factors, matrix has {n}")
    state = PartialDet(
        m.factors,
        tuple(range(n)),
        (),
        {(i, j): m.entries[i][j] for i in range(n) for j in range(n)},
    )
    chain = [state]
    for pivot in fseq.images:
        state = _eliminate(state, pivot)
        chain.append(state)
    return chain


def det_h(m: EndoMatrix) -> GroupMap:
    """alpha - beta . delta^-1 . gamma, a self-map of the first factor (2 x 2)."""
    if m.n != 2:
        raise PreconditionError("det_h is defined for 2 x 2 matrices")
    (alpha, beta), (gamma, delta) = m.entries
    if not is_bijective(delta):
        raise DeterminantUndefinedError("delta is not bijective", pivot_index=1)
    return _schur(alpha, beta, invert(delta), gamma)


def det_k(m: EndoMatrix) -> GroupMap:
    """delta - gamma . alpha^-1 . beta, a self-map of the second factor (2 x 2)."""
    if m.n != 2:
        raise PreconditionError("det_k is defined for 2 x 2 matrices")
    (alpha, beta), (gamma, delta) = m.entries
    if not is_bijective(alpha):
        raise DeterminantUndefinedError("alpha is not bijective", pivot_index=0)
    return _schur(delta, gamma, invert(alpha), beta)


def det_A(m: EndoMatrix) -> GroupMap:
    """The canonical determinant of a member of A (all pivots automorphisms)."""
    if not in_A(m):
        raise PreconditionError("det_A needs diagonal automorphisms and central off-diagonal images")
    return f_determinant(m)[-1].final_map


def determinant_step_bound(h: FiniteGroup, k: FiniteGroup, branch: str = "h") -> int:
    """Pivot lookups plus factor comparisons for a determinant run: |K| + C(|H|, 2) on 'h'."""
    if branch not in ("h", "k"):
        raise StructuralError(f"no step bound for branch {branch!r}")
    pivot, tested = (k, h) if branch == "h" else (h, k)
    return pivot.order + tested.order * (tested.order - 1) // 2


def branch_determinant(m: EndoMatrix, branch: str = "auto") -> tuple[str, GroupMap]:
    """The determinant of a 2 x 2 matrix on the first branch with a bijective pivot.

    'h' inverts delta and gives det_h on the first factor, 'k' inverts alpha
    and gives det_k on the second, and 'auto' tries the branch with the
    smaller ``determinant_step_bound`` first and falls back to the other.
    Returns (branch, determinant); raises DeterminantUndefinedError, with the
    last pivot index tried, when no branch tried has a bijective pivot.
    """
    if m.n != 2:
        raise PreconditionError("branch determinants exist only for 2 x 2 matrices")
    order = branch
    if branch == "auto":
        h, k = m.factors
        cheaper_h = determinant_step_bound(h, k, "h") <= determinant_step_bound(h, k, "k")
        order = "hk" if cheaper_h else "kh"
    elif branch not in ("h", "k"):
        raise PreconditionError(f"unknown branch {branch!r}; use 'h', 'k' or 'auto'")
    last: Optional[DeterminantUndefinedError] = None
    for b in order:
        try:
            return b, (det_h(m) if b == "h" else det_k(m))
        except DeterminantUndefinedError as exc:
            last = exc
    raise DeterminantUndefinedError(
        "no bijective diagonal entry; determinant route undecidable",
        pivot_index=last.pivot_index if last else None,
    )


def _full_sequences(n: int):
    """Candidate elimination sequences: canonical first, then lexicographic rest."""
    canonical = FSequence.canonical(n).images
    yield canonical
    for survivor in range(n):
        others = [i for i in range(n) if i != survivor]
        for perm in itertools.permutations(others):
            if perm != canonical:
                yield perm


def _first_chain(m: EndoMatrix) -> list[PartialDet]:
    """The chain of the first of ``_full_sequences`` whose pivots are all bijective."""
    last_error: Optional[DeterminantUndefinedError] = None
    for images in _full_sequences(m.n):
        try:
            return f_determinant(m, FSequence(m.n, images))
        except DeterminantUndefinedError as exc:
            last_error = exc
    raise DeterminantUndefinedError(
        "no elimination sequence has bijective pivots",
        pivot_index=last_error.pivot_index if last_error else None,
    )


def is_invertible_via_det(m: EndoMatrix, branch: str = "auto") -> bool:
    """Decide invertibility through a determinant instead of a full size-mn check.

    For 2 x 2 matrices ``branch`` picks which diagonal entry to invert, as in
    ``branch_determinant``, and the determinant found is tested for
    bijectivity.  For larger matrices the canonical elimination sequence is
    tried first, then every other sequence.  Raises DeterminantUndefinedError
    when no admissible pivot choice exists; the caller should then fall back
    to a direct check.
    """
    if m.n == 2:
        return is_bijective(branch_determinant(m, branch)[1])
    if branch != "auto":
        raise PreconditionError("explicit branches exist only for 2 x 2 matrices")
    return is_bijective(_first_chain(m)[-1].final_map)


def _unwind(state: PartialDet, left: PartialDet, inv: dict) -> None:
    """One step back along the chain: extend ``inv`` to the inverse of ``state``.

    ``left`` is the state D over ``rest`` that eliminating the pivot p from
    ``state`` leaves, and ``inv`` holds D^-1.  With w = entry(p, p)^-1, b the
    column of p over ``rest`` and c its row, the inverse of ``state`` is

        ( D^-1,             -D^-1 . b . w               )
        ( -w . c . D^-1,    (1 + w . c . D^-1 . b) . w  )

    Every state and every D^-1 is the matrix of an endomorphism of the product
    of its factors, so each sum over ``rest`` runs along one row, whose images
    commute, and is read from value tuples; the 1 + theta sum keeps its check.
    """
    maps, factors, rest, p = state.maps, state.factors, left.survivors, left.eliminated[-1]
    w = invert(maps[(p, p)])
    fp, wv = factors[p], w.values
    bw = {j: tuple([maps[(j, p)].values[x] for x in wv]) for j in rest}
    c = [maps[(p, k)].values for k in rest]
    col = []  # (D^-1 . b . w)_i for i in rest
    for i in rest:
        u = _product_of_composites(factors[i], [(inv[(i, j)].values, bw[j]) for j in rest])
        col.append(u)
        neg = factors[i].inverse
        inv[(i, p)] = _derived_map(fp, factors[i], tuple([neg[y] for y in u]))
    neg = fp.inverse
    for j in rest:
        v = _product_of_composites(fp, [(ck, inv[(k, j)].values) for ck, k in zip(c, rest)])
        inv[(p, j)] = _derived_map(factors[j], fp, tuple([neg[wv[y]] for y in v]))
    # theta . w = w . c . D^-1 . b . w, so (1 + theta) . w = w + theta . w
    v = _product_of_composites(fp, list(zip(c, col)))
    theta_w = _derived_map(fp, fp, tuple([wv[y] for y in v]))
    inv[(p, p)] = pointwise_sum(w, theta_w, require_commuting=True)


def invert_via_det(m: EndoMatrix, branch: str = "auto") -> EndoMatrix:
    """The closed-form inverse of an invertible matrix with a usable pivot.

    The chain's final 1 x 1 determinant is inverted and the chain is walked
    back by ``_unwind``: one step on ``branch_determinant``'s pivot for 2 x 2
    (delta for 'h', alpha for 'k'), else the chain ``is_invertible_via_det``
    decides on.  Raises DeterminantUndefinedError when no pivot route exists
    and InversionError when a determinant exists but is not bijective.  The
    result is the matrix of the inverse endomorphism, so it is built trusted.
    """
    if m.n == 2:
        used, det = branch_determinant(m, branch)
        p, s = (1, 0) if used == "h" else (0, 1)
        (alpha, beta), (gamma, delta) = m.entries
        maps = {(0, 0): alpha, (0, 1): beta, (1, 0): gamma, (1, 1): delta}
        chain = [PartialDet(m.factors, (0, 1), (), maps)]
        chain.append(PartialDet(m.factors, (s,), (p,), {(s, s): det}))
    elif branch != "auto":
        raise PreconditionError("explicit branches exist only for 2 x 2 matrices")
    else:
        chain = _first_chain(m)
    det = chain[-1].final_map
    if not is_bijective(det):
        raise InversionError("determinant is not bijective; matrix is not invertible")
    s = chain[-1].survivors[0]
    inv = {(s, s): invert(det)}
    for k in range(len(chain) - 2, -1, -1):
        _unwind(chain[k], chain[k + 1], inv)
    n = m.n
    return EndoMatrix(m.factors, [[inv[(i, j)] for j in range(n)] for i in range(n)], trusted=True)


def invert_via_det_pleasant(m: EndoMatrix) -> EndoMatrix:
    """The symmetric inverse formula available to members of A (2 x 2).

        ( det_h^-1,                -alpha^-1 . beta . det_k^-1 )
        ( -delta^-1 . gamma . det_h^-1,   det_k^-1             )

    Asserted entrywise equal to the general formula inverse.
    """
    if m.n != 2:
        raise PreconditionError("the pleasant form is defined for 2 x 2 matrices")
    if not in_A(m):
        raise PreconditionError("the pleasant form needs a member of A")
    (alpha, beta), (gamma, delta) = m.entries
    dh = det_h(m)
    dk = det_k(m)
    if not (is_bijective(dh) and is_bijective(dk)):
        raise InversionError("determinants are not bijective; matrix is not invertible")
    dh_inv = invert(dh)
    dk_inv = invert(dk)
    out = EndoMatrix(
        m.factors,
        [
            [dh_inv, negate(compose(invert(alpha), compose(beta, dk_inv)))],
            [negate(compose(invert(delta), compose(gamma, dh_inv))), dk_inv],
        ],
    )
    general = invert_via_det(m, branch="h")
    if out != general:
        raise StructuralError("pleasant inverse disagrees with the general formula")
    return out


@dataclass(frozen=True)
class DetIffReport:
    """Invertibility flags of the two determinants of a member of A.

    The flags always agree; when both determinants are bijective the two
    reciprocal identities tying their inverses together are checked pointwise
    and reported in ``reciprocal_identities_hold`` (None when not bijective).
    """

    deth_invertible: bool
    detk_invertible: bool
    reciprocal_identities_hold: Optional[bool]


def detiff_check(m: EndoMatrix) -> DetIffReport:
    """Evaluate both determinants of a 2 x 2 member of A and their reciprocity."""
    if m.n != 2:
        raise PreconditionError("detiff_check is defined for 2 x 2 matrices")
    if not in_A(m):
        raise PreconditionError("detiff_check needs a member of A")
    dh = det_h(m)
    dk = det_k(m)
    h_ok = is_bijective(dh)
    k_ok = is_bijective(dk)
    if not (h_ok and k_ok):
        return DetIffReport(h_ok, k_ok, None)
    # each identity says det^-1 is the corner block of the other branch's inverse
    lhs_h = invert_via_det(m, "k").entries[0][0]
    lhs_k = invert_via_det(m, "h").entries[1][1]
    holds = lhs_h.values == invert(dh).values and lhs_k.values == invert(dk).values
    return DetIffReport(h_ok, k_ok, holds)

"""Determinants of homomorphism matrices and the closed-form inverses they yield.

For a 2 x 2 matrix (alpha, beta; gamma, delta) the two determinants are

    det_h = alpha - beta . delta^-1 . gamma   (needs delta bijective),
    det_k = delta - gamma . alpha^-1 . beta   (needs alpha bijective),

self-maps of the first and second factor respectively.  A matrix with a
bijective diagonal entry is invertible exactly when the corresponding
determinant is bijective, and the inverse is then given entrywise in closed
form.  Both are the n = 2 case of pivot elimination: each step removes a
factor p with bijective entry (p, p), replacing entry (i, j) by
entry(i,j) - entry(i,p) . pivot^-1 . entry(p,j).

One private routine, ``_chain``, does every elimination, on interned maps,
trying candidate sequences in a fixed order and walking each from the
matrix until a pivot is not bijective.  Each step (``_step``) forms its new
entries through the memos of the map algebra, kept on a left operand under
the right one's id: composites by ``maps._composite``, differences, their
images checked to commute, by ``maps._diff``.  The inverse runs
back along the chain (``_unwind``) through the same memos and the pivot
inverses the steps kept, by the 2 x 2 block formulas, so a repeated invert
forms no map.  Determinants and inverse entries are interned maps.

Every bijectivity test and every inverse, of a pivot or of a determinant,
is one lookup in ``_pivot_inverse``, which keeps the answer on the map; the
library keeps one map per (factor, values), so each is tested and inverted
once, across calls.

A determinant can be *undefined* (no bijective pivot at some step) without
the matrix being singular; that situation raises DeterminantUndefinedError
and callers fall back to a direct bijectivity check.
"""
from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Optional

from .errors import DeterminantUndefinedError, InversionError, PreconditionError, StructuralError
from .groups import FiniteGroup
from .maps import _NO_MEMO, GroupMap, _composite, _diff, _negated, _pivot_inverse, _sum
from .matrices import EndoMatrix, _built_matrix, _sum_of_composites, in_A

__all__ = [
    "DetIffReport",
    "det_h",
    "det_k",
    "det_A",
    "determinant_step_bound",
    "branch_determinant",
    "f_determinant",
    "is_invertible_via_det",
    "invert_via_det",
    "detiff_check",
]


def _canonical_images(n: int) -> tuple[int, ...]:
    """The indices the canonical sequence eliminates: n - 1 down to 1."""
    return tuple(range(n - 1, 0, -1))


def _step(factors: tuple[FiniteGroup, ...], node: tuple, p: int) -> Optional[tuple]:
    """Eliminate pivot p from a chain node; None when entry (p, p) is not bijective.

    A node is (eliminated, survivors, entries, w): ``entries[i * n + j]`` is
    the map of entry (i, j), and w the last pivot's inverse (None at the
    top).  The pivot is tested, and inverted, by ``_pivot_inverse`` before
    any new entry (i, j) - (i, p) . w . (p, j) is formed.  Each composite and
    difference is read from its left operand's memo, formed by ``_composite``
    or ``_diff`` only on a miss; ``_diff`` checks the images commute.
    """
    eliminated, survivors, e, _ = node
    n = len(factors)
    w = _pivot_inverse(e[p * n + p])
    if w is False:
        return None
    k = survivors.index(p)
    rest = survivors[:k] + survivors[k + 1:]
    out = [None] * (n * n)
    for i in rest:
        b = e[i * n + p]
        bw = (b._composites or _NO_MEMO).get(w._id) or _composite(b, w)
        for j in rest:
            a, c = e[i * n + j], e[p * n + j]
            x = (bw._composites or _NO_MEMO).get(c._id) or _composite(bw, c)
            out[i * n + j] = (a._diffs or _NO_MEMO).get(x._id) or _diff(a, x)
    return eliminated + (p,), rest, out, w


def _chain(m: EndoMatrix, sequences: Optional[Sequence[tuple[int, ...]]] = None) -> list[tuple]:
    """The nodes of the first of ``sequences`` whose pivots are all bijective.

    ``sequences`` defaults to every candidate, in the order of ``_sequences``.
    The chain runs from the matrix itself to the state its last pivot leaves.
    Each sequence is walked afresh from the top and stops at its first dead
    pivot; a repeated dead pivot costs one ``_pivot_inverse`` lookup.  A
    2 x 2 top node takes the four entries unpacked.  Raises
    DeterminantUndefinedError with the dead pivot of the last sequence
    tried, the one after its live prefix; given one sequence, the message
    names that pivot.
    """
    factors = m.factors
    n = len(factors)
    if n == 2:
        (a, b), (c, d) = m.entries
        top = ((), (0, 1), [a, b, c, d], None)
    else:
        top = ((), tuple(range(n)), [f for row in m.entries for f in row], None)
    for seq in _sequences(factors) if sequences is None else sequences:
        chain = [top]
        for p in seq:
            node = _step(factors, chain[-1], p)
            if node is None:
                break
            chain.append(node)
        else:
            return chain
    if sequences is None or len(sequences) > 1:
        why = ("no bijective diagonal entry; determinant route undecidable" if n == 2
               else "no elimination sequence has bijective pivots")
    elif n == 2:
        why = f"{('alpha', 'delta')[p]} is not bijective, so det_{'kh'[p]} is undefined"
    else:
        why = f"elimination sequence {seq} is undefined: its pivot {p} is not bijective"
    raise DeterminantUndefinedError(why, pivot_index=p)


def f_determinant(m: EndoMatrix, images: Optional[Sequence[int]] = None) -> list[tuple]:
    """The chain of partial determinants along the elimination sequence ``images``.

    ``images`` lists the distinct factor indices to eliminate, in order, at
    most n - 1 of them; the default is n - 1 down to 1, surviving factor 0,
    and a partial sequence is accepted.  Each node is (eliminated, survivors, maps), with ``maps[i, j]``
    the entry over survivors i and j.  The chain starts with the matrix itself
    and ends, for a full sequence, with the determinant ``maps[s, s]`` on the
    one survivor s.  The maps are the chain's own: m's entries, then interned
    maps shared with other chains and products.
    """
    n = m.n
    if not isinstance(images, (Iterable, type(None))):
        raise PreconditionError(f"images must be a sequence of ints, got {images!r}")
    images = _canonical_images(n) if images is None else tuple(images)
    ints = all(type(i) is int and 0 <= i < n for i in images)
    if not ints or len(set(images)) != len(images) or len(images) >= n:
        raise PreconditionError(f"eliminate at most {n - 1} distinct ints in 0..{n - 1}")
    return [
        (gone, rest, {(i, j): e[i * n + j] for i in rest for j in rest})
        for gone, rest, e, _ in _chain(m, (images,))
    ]


def det_h(m: EndoMatrix) -> GroupMap:
    """alpha - beta . delta^-1 . gamma, a self-map of the first factor (2 x 2)."""
    return branch_determinant(m, "h")[1]


def det_k(m: EndoMatrix) -> GroupMap:
    """delta - gamma . alpha^-1 . beta, a self-map of the second factor (2 x 2)."""
    return branch_determinant(m, "k")[1]


def det_A(m: EndoMatrix) -> GroupMap:
    """The canonical determinant of a member of A (all pivots automorphisms)."""
    if not in_A(m):
        raise PreconditionError("det_A needs diagonal automorphisms and central off-diagonal images")
    _, (s,), e, _ = _chain(m, (_canonical_images(m.n),))[-1]
    return e[s * m.n + s]


def determinant_step_bound(h: FiniteGroup, k: FiniteGroup, branch: str = "h") -> int:
    """Pivot lookups plus factor comparisons for a determinant run: |K| + C(|H|, 2) on 'h'."""
    if branch not in ("h", "k"):
        raise StructuralError(f"no step bound for branch {branch!r}")
    pivot, tested = (k, h) if branch == "h" else (h, k)
    return _step_bound(pivot.order, tested.order)


def _step_bound(pivot: int, tested: int) -> int:
    """``determinant_step_bound`` from the pivot and tested factor orders."""
    return pivot + tested * (tested - 1) // 2


def _full_sequences(n: int):
    """Candidate elimination sequences: canonical first, then lexicographic rest;
    made lazily, so a search the canonical sequence decides runs on any n."""
    canonical = _canonical_images(n)
    yield canonical
    for survivor in range(n):
        for perm in itertools.permutations([i for i in range(n) if i != survivor]):
            if perm != canonical:
                yield perm


_BRANCH_SEQUENCES = {"h": ((1,),), "k": ((0,),), "hk": ((1,), (0,)), "kh": ((0,), (1,))}


def _sequences(factors: tuple[FiniteGroup, ...], branch: str = "auto"):
    """The elimination sequences ``_chain`` tries on a matrix over ``factors``, in order.

    For 2 x 2, 'h' eliminates delta (index 1), 'k' alpha (index 0), and 'auto'
    the branch with the smaller ``determinant_step_bound`` first (h on a tie).
    Other matrices take every full sequence, canonical first
    (``_full_sequences``).
    """
    if len(factors) != 2:
        return _full_sequences(len(factors))
    if branch == "auto":
        h, k = factors[0].order, factors[1].order
        return _BRANCH_SEQUENCES["hk" if _step_bound(k, h) <= _step_bound(h, k) else "kh"]
    if branch not in ("h", "k"):
        raise PreconditionError(f"unknown branch {branch!r}; use 'h', 'k' or 'auto'")
    return _BRANCH_SEQUENCES[branch]


def branch_determinant(m: EndoMatrix, branch: str = "auto") -> tuple[str, GroupMap]:
    """The determinant of a 2 x 2 matrix on the first branch with a bijective pivot.

    'h' gives det_h on the first factor, 'k' det_k on the second, and 'auto'
    tries both, in the order of ``_sequences``.  Returns (branch, determinant);
    raises DeterminantUndefinedError, with the last pivot index tried, when
    no branch tried has a bijective pivot.
    """
    if len(m.factors) != 2:
        raise PreconditionError("branch determinants exist only for 2 x 2 matrices")
    _, (s,), e, _ = _chain(m, _sequences(m.factors, branch))[-1]
    return "hk"[s], e[s * 2 + s]


def is_invertible_via_det(m: EndoMatrix) -> bool:
    """Decide invertibility through a determinant instead of a full size-mn check.

    The chain is that of ``_sequences`` 'auto'.  Raises
    DeterminantUndefinedError when no admissible pivot choice exists; the
    caller should then fall back to a direct check.
    """
    _, (s,), e, _ = _chain(m)[-1]
    return _pivot_inverse(e[s * len(m.factors) + s]) is not False


def _unwind(n: int, state: tuple, left: tuple, inv: list) -> None:
    """One step back along the chain: extend ``inv`` to the inverse of ``state``.

    ``left`` is the node D over ``rest`` that eliminating the pivot p from
    ``state`` leaves, w = entry(p, p)^-1, and ``inv[i * n + j]`` is entry
    (i, j) of D^-1.  With b the column of p over ``rest`` and c its row,

        ( D^-1,             -D^-1 . b . w               )
        ( -w . c . D^-1,    (1 + w . c . D^-1 . b) . w  )

    is the inverse of ``state``, each term read from the memos and summed
    in ascending order.  Every state and every D^-1 is the matrix of an
    endomorphism, so each sum runs along one row, whose images commute;
    ``_sum`` checks it all the same, the 1 + theta sum included.
    """
    e = state[2]
    p, rest, w = left[0][-1], left[1], left[3]
    # each b . w is in b's memo: the step that left D formed it
    bw = []
    for j in rest:
        b = e[j * n + p]
        bw.append((b._composites or _NO_MEMO).get(w._id) or _composite(b, w))
    c = [e[p * n + k] for k in rest]
    col = []  # D^-1 . b . w
    for i in rest:
        col.append(_sum_of_composites([inv[i * n + j] for j in rest], bw))
        inv[i * n + p] = _negated(col[-1])
    for j in rest:
        v = _sum_of_composites(c, [inv[k * n + j] for k in rest])
        inv[p * n + j] = _negated((w._composites or _NO_MEMO).get(v._id) or _composite(w, v))
    # theta . w = w . c . D^-1 . b . w, so (1 + theta) . w = w + theta . w
    theta = _sum_of_composites(c, col)
    theta_w = (w._composites or _NO_MEMO).get(theta._id) or _composite(w, theta)
    inv[p * n + p] = (w._sums or _NO_MEMO).get(theta_w._id) or _sum(w, theta_w)


def _inverse_from(m: EndoMatrix, chain: list[tuple]) -> Optional[EndoMatrix]:
    """The inverse of m, its entries the maps ``_unwind`` reads: the final
    determinant of its chain inverted, then the chain walked back.  None
    when that determinant is not bijective, so m is singular."""
    _, (s,), e, _ = chain[-1]
    n = m.n
    det_inv = _pivot_inverse(e[s * n + s])
    if det_inv is False:
        return None
    inv = [None] * (n * n)
    inv[s * n + s] = det_inv
    for k in range(len(chain) - 1, 0, -1):
        _unwind(n, chain[k - 1], chain[k], inv)
    return _built_matrix(m.factors, tuple(zip(*[iter(inv)] * n)))  # rows of n


def invert_via_det(m: EndoMatrix) -> EndoMatrix:
    """The closed-form inverse of an invertible matrix with a usable pivot.

    Read by ``_inverse_from`` from the chain ``is_invertible_via_det`` reads;
    the inverse is unique, so no other pivot order could change it.  Raises
    DeterminantUndefinedError when no pivot route exists and InversionError
    when the determinant is not bijective.  The result is the matrix of the
    inverse endomorphism, so it comes from ``_built_matrix`` unchecked.
    """
    out = _inverse_from(m, _chain(m))
    if out is None:
        raise InversionError("determinant is not bijective; matrix is not invertible")
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
    # the pivots of a member of A are automorphisms, so both chains are full
    via_h, via_k = (_inverse_from(m, _chain(m, _BRANCH_SEQUENCES[b])) for b in "hk")
    h_ok, k_ok = via_h is not None, via_k is not None
    if not (h_ok and k_ok):
        return DetIffReport(h_ok, k_ok, None)
    # each identity says det^-1 is the corner block of the other branch's
    # inverse; a branch's own inverse holds its det^-1 in that corner
    via_h, via_k = via_h.entries, via_k.entries
    holds = via_k[0][0] == via_h[0][0] and via_h[1][1] == via_k[1][1]
    return DetIffReport(h_ok, k_ok, holds)

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

One private routine, ``_chain``, does every elimination, on value tuples,
trying candidate sequences in a fixed order and walking each from the
matrix until a pivot is not bijective.  Each step (``_step``) forms its new
entries in one pass that also checks their images commute.  A step keeps
its pivot's inverse, so the inverse runs back along the chain without
inverting a pivot again: the final 1 x 1 determinant is inverted, then
each earlier state from the inverse of the state its pivot left, by the
2 x 2 block formulas.  The public functions are views of that chain.

Every bijectivity test and every inverse, of a pivot or of a determinant,
is one lookup in ``_pivot_inverse``, which each factor memoises: a factor
has at most |End| pivots and determinants, so across calls each is tested
and inverted once.

A determinant can be *undefined* (no bijective pivot at some step) without
the matrix being singular; that situation raises DeterminantUndefinedError
and callers fall back to a direct bijectivity check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .errors import DeterminantUndefinedError, InversionError, PreconditionError, StructuralError
from .groups import FiniteGroup, _memoised
from .maps import GroupMap, _check_commuting, _derived_map, _inverse
from .matrices import EndoMatrix, _built_matrix, _product_of_composites, in_A

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
        return cls(n, _canonical_images(n))

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


def _canonical_images(n: int) -> tuple[int, ...]:
    """The indices the canonical sequence eliminates: n - 1 down to 1."""
    return tuple(range(n - 1, 0, -1))


@_memoised
def _pivot_inverse(g: FiniteGroup, values: tuple[int, ...]) -> Optional[tuple[int, ...]]:
    """The inverse of the self-map ``values`` of g; None when it is not a bijection.

    The answer depends on ``values`` alone, so the memo on g never goes stale.
    """
    if len(set(values)) != len(values):
        return None
    return _inverse(values)


def _step(factors: tuple[FiniteGroup, ...], node: tuple, p: int) -> Optional[tuple]:
    """Eliminate pivot p from a chain node; None when entry (p, p) is not bijective.

    A node is (eliminated, survivors, entries, w): ``entries[i * n + j]`` is
    the value tuple of entry (i, j), and w the last pivot's inverse (None at
    the top).  The pivot is tested, and inverted, by ``_pivot_inverse`` before
    any new entry (i, j) - (i, p) . w . (p, j) is built.  Each entry is
    formed in one pass that composes -(i, p) . w . (p, j) pointwise and
    checks its images commute; ``_check_commuting`` runs only to raise.
    """
    eliminated, survivors, e, _ = node
    n = len(factors)
    w = _pivot_inverse(factors[p], e[p * n + p])
    if w is None:
        return None
    k = survivors.index(p)
    rest = survivors[:k] + survivors[k + 1:]
    out = [None] * (n * n)
    for i in rest:
        g = factors[i]
        t, neg = g.table, g.inverse
        b = e[i * n + p]
        for j in rest:
            a, c = e[i * n + j], e[p * n + j]
            # u commutes with b(w(c(x))) exactly when it commutes with its
            # inverse v, so a pair that does not commute drops its product
            entry = [r for u, x in zip(a, c) if (r := t[u][(v := neg[b[w[x]]])]) == t[v][u]]
            if len(entry) != len(a):
                _check_commuting(g, a, [b[w[x]] for x in c])
            out[i * n + j] = tuple(entry)
    return eliminated + (p,), rest, out, w


def _chain(m: EndoMatrix, sequences) -> list[tuple]:
    """The nodes of the first of ``sequences`` whose pivots are all bijective.

    The chain runs from the matrix itself to the state its last pivot leaves.
    Each sequence is walked afresh from the top and stops at its first dead
    pivot; a repeated dead pivot costs one ``_pivot_inverse`` lookup.  A
    2 x 2 top node takes the four entries unpacked.  Raises
    DeterminantUndefinedError with the dead pivot of the last sequence
    tried, the one after its live prefix.
    """
    factors = m.factors
    n = len(factors)
    if n == 2:
        (a, b), (c, d) = m.entries
        top = ((), (0, 1), [a.values, b.values, c.values, d.values], None)
    else:
        top = ((), tuple(range(n)), [f.values for row in m.entries for f in row], None)
    for seq in sequences:
        chain = [top]
        for p in seq:
            node = _step(factors, chain[-1], p)
            if node is None:
                break
            chain.append(node)
        else:
            return chain
    why = ("no bijective diagonal entry; determinant route undecidable" if n == 2
           else "no elimination sequence has bijective pivots")
    raise DeterminantUndefinedError(why, pivot_index=seq[len(chain) - 1])


def _last(m: EndoMatrix, chain: list[tuple]) -> tuple[int, tuple[int, ...]]:
    """The survivor of a full chain of m and the value tuple of its determinant."""
    _, (s,), e, _ = chain[-1]
    return s, e[s * len(m.factors) + s]


def f_determinant(m: EndoMatrix, fseq: Optional[FSequence] = None) -> list[PartialDet]:
    """The chain of partial determinants along an elimination sequence.

    The chain starts with the matrix itself (nothing eliminated) and ends,
    for a full sequence, with a single self-map of the surviving factor.
    """
    f, n = m.factors, m.n
    fseq = FSequence.canonical(n) if fseq is None else fseq
    if fseq.n != n:
        raise PreconditionError(f"sequence is over {fseq.n} factors, matrix has {n}")
    return [
        PartialDet(f, rest, gone, {
            (i, j): _derived_map(f[j], f[i], e[i * n + j]) for i in rest for j in rest
        })
        for gone, rest, e, _ in _chain(m, [fseq.images])
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
    s, det = _last(m, _chain(m, [_canonical_images(m.n)]))
    return _derived_map(m.factors[s], m.factors[s], det)


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
    """Candidate elimination sequences: canonical first, then lexicographic rest."""
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
    Larger matrices take every full sequence, canonical first.
    """
    if len(factors) != 2:
        if branch != "auto":
            raise PreconditionError("explicit branches exist only for 2 x 2 matrices")
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
    s, det = _last(m, _chain(m, _sequences(m.factors, branch)))
    return "hk"[s], _derived_map(m.factors[s], m.factors[s], det)


def is_invertible_via_det(m: EndoMatrix) -> bool:
    """Decide invertibility through a determinant instead of a full size-mn check.

    The chain is that of ``_sequences`` 'auto'.  Raises
    DeterminantUndefinedError when no admissible pivot choice exists; the
    caller should then fall back to a direct check.
    """
    _, (s,), e, _ = _chain(m, _sequences(m.factors))[-1]
    return _pivot_inverse(m.factors[s], e[s * len(m.factors) + s]) is not None


def _unwind(factors: tuple[FiniteGroup, ...], state: tuple, left: tuple, inv: dict) -> None:
    """One step back along the chain: extend ``inv`` to the inverse of ``state``.

    ``left`` is the node D over ``rest`` that eliminating the pivot p from
    ``state`` leaves, with w = entry(p, p)^-1, and ``inv`` holds the value
    tuples of D^-1.  With b the column of p over ``rest`` and c its row, the
    inverse of ``state`` is

        ( D^-1,             -D^-1 . b . w               )
        ( -w . c . D^-1,    (1 + w . c . D^-1 . b) . w  )

    Every state and every D^-1 is the matrix of an endomorphism of the product
    of its factors, so each sum over ``rest`` runs along one row, whose images
    commute; the 1 + theta sum keeps its check.
    """
    e, n = state[2], len(factors)
    p, rest, w = left[0][-1], left[1], left[3]
    fp = factors[p]
    bw = {j: tuple([e[j * n + p][x] for x in w]) for j in rest}
    c = [e[p * n + k] for k in rest]
    # (D^-1 . b . w)_i for i in rest
    col = [_product_of_composites(factors[i], [(inv[i, j], bw[j]) for j in rest]) for i in rest]
    for i, u in zip(rest, col):
        neg = factors[i].inverse
        inv[i, p] = tuple([neg[y] for y in u])
    neg = fp.inverse
    for j in rest:
        v = _product_of_composites(fp, [(ck, inv[k, j]) for ck, k in zip(c, rest)])
        inv[p, j] = tuple([neg[w[y]] for y in v])
    # theta . w = w . c . D^-1 . b . w, so (1 + theta) . w = w + theta . w
    theta_w = [w[y] for y in _product_of_composites(fp, list(zip(c, col)))]
    _check_commuting(fp, w, theta_w)
    t = fp.table
    inv[p, p] = tuple([t[a][b] for a, b in zip(w, theta_w)])


def _inverse_from(m: EndoMatrix, chain: list[tuple]) -> Optional[EndoMatrix]:
    """The inverse of m: the final determinant of its chain inverted, then the
    chain walked back by ``_unwind``.  None when that determinant is not
    bijective, so m is singular."""
    s, det = _last(m, chain)
    det_inv = _pivot_inverse(m.factors[s], det)
    if det_inv is None:
        return None
    inv = {(s, s): det_inv}
    f, n = m.factors, len(m.factors)
    for k in range(len(chain) - 1, 0, -1):
        _unwind(f, chain[k - 1], chain[k], inv)
    rows = [tuple([_derived_map(f[j], f[i], inv[i, j]) for j in range(n)]) for i in range(n)]
    return _built_matrix(f, tuple(rows))


def invert_via_det(m: EndoMatrix, branch: str = "auto") -> EndoMatrix:
    """The closed-form inverse of an invertible matrix with a usable pivot.

    Read from the chain of ``_sequences`` by ``_inverse_from``.  Raises
    DeterminantUndefinedError when no pivot route exists and InversionError
    when the determinant is not bijective.  The result is the matrix of the
    inverse endomorphism, so it comes from ``_built_matrix`` unchecked.
    """
    out = _inverse_from(m, _chain(m, _sequences(m.factors, branch)))
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

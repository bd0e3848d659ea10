"""Benchmark harness comparing naive and determinant invertibility testing.

The naive method checks the recomposed product map for bijectivity: up to
C(mn, 2) equality comparisons on a product of orders m and n.  The
determinant route inverts one diagonal entry (n graph lookups), builds the
determinant (m evaluations, not part of the headline), and checks bijectivity
on a single factor (C(m, 2) comparisons), for a headline of n + C(m, 2).

The steps are counted here, not in the map and determinant layers: both
methods test injectivity with the same pairwise loop, charging one comparison
per equality test, and the determinant's lookups and evaluations are the
orders of the pivot and tested factors of the branch ``branch_determinant``
reports.  Samples are drawn uniformly from the component sets of A with a
seeded PRNG so runs are reproducible.
"""
from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

from .errors import StructuralError
from .groups import FiniteGroup
from .matrices import EndoMatrix, _matrix_pools, recompose
from .determinant import branch_determinant

__all__ = [
    "OpCounter",
    "BenchRecord",
    "sample_a_member",
    "naive_is_invertible",
    "run_bench",
    "naive_step_bound",
]


@dataclass
class OpCounter:
    """Tally of the element equality tests made during injectivity checks.

    It counts comparisons only; ``run_bench`` charges the determinant's
    pivot lookups and build evaluations from the factor orders.
    """

    comparisons: int = 0


def _is_injective_counted(values: Sequence[int], counter: OpCounter) -> bool:
    """Compare each image with all previous ones, one comparison per test.

    This is the naive method's accounting: C(n, 2) comparisons when the
    images are distinct, fewer when a repeat ends the scan early.
    """
    for i in range(1, len(values)):
        vi = values[i]
        for j in range(i):
            counter.comparisons += 1
            if values[j] == vi:
                return False
    return True


@dataclass(frozen=True)
class BenchRecord:
    """One timed invertibility decision on one sampled matrix.

    ``steps_headline`` is the figure the two methods are compared on:
    all comparisons plus any pivot-inversion lookups.  ``steps_full``
    breaks the work down; build-cost evaluations are reported there but
    kept out of the headline.
    """

    pair: tuple[str, str]
    method: str
    steps_headline: int
    steps_full: dict[str, int]
    verdict: bool
    wall_time: float

    def as_dict(self) -> dict:
        return {**asdict(self), "pair": list(self.pair)}


def naive_step_bound(h: FiniteGroup, k: FiniteGroup) -> int:
    """C(mn, 2): comparisons to certify a bijection on the full product."""
    order = h.order * k.order
    return order * (order - 1) // 2


def sample_a_member(
    h: FiniteGroup, k: FiniteGroup, rng: random.Random
) -> EndoMatrix:
    """Uniform draw from A, entry by entry from the pools of ``enumerate_A``."""
    (alpha, beta), (gamma, delta) = (
        [rng.choice(pool) for pool in row]
        for row in _matrix_pools((h, k), central_diagonal=False)
    )
    return EndoMatrix((h, k), ((alpha, beta), (gamma, delta)))


def naive_is_invertible(m: EndoMatrix, counter: Optional[OpCounter] = None) -> bool:
    """Decide invertibility on the recomposed product map, counting comparisons."""
    return _is_injective_counted(recompose(m).values, counter or OpCounter())


def run_bench(
    h: FiniteGroup,
    k: FiniteGroup,
    trials: int,
    seed: int,
    branch: str = "h",
) -> list[BenchRecord]:
    """Sample A-members and decide each by both methods, two records apiece.

    Raises StructuralError if the two methods ever disagree on a sample;
    they never should, and a disagreement is a bug worth halting for.
    """
    rng = random.Random(seed)
    pair = (h.name, k.name)
    records: list[BenchRecord] = []

    def record(method: str, comparisons: int, verdict: bool, wall_time: float,
               lookups: int = 0, evaluations: int = 0) -> BenchRecord:
        full = {
            "pivot_inversion": lookups,
            "build_cost": evaluations,
            "injectivity_comparisons": comparisons,
        }
        return BenchRecord(pair, method, lookups + comparisons, full, verdict, wall_time)

    for _ in range(trials):
        m = sample_a_member(h, k, rng)

        naive_counter = OpCounter()
        start = time.perf_counter()
        naive_verdict = naive_is_invertible(m, naive_counter)
        naive_time = time.perf_counter() - start

        det_counter = OpCounter()
        start = time.perf_counter()
        used, det = branch_determinant(m, branch)
        det_verdict = _is_injective_counted(det.values, det_counter)
        det_time = time.perf_counter() - start
        pivot, tested = (k, h) if used == "h" else (h, k)

        if naive_verdict != det_verdict:
            raise StructuralError(
                f"method disagreement on {pair}: naive={naive_verdict} det={det_verdict}"
            )
        records.append(record("naive", naive_counter.comparisons, naive_verdict, naive_time))
        records.append(record("determinant", det_counter.comparisons, det_verdict, det_time,
                              pivot.order, tested.order))
    return records

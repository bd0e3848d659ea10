"""The three workloads: their fixed input sets and their seeded operation streams.

This module imports nothing from groupdet. An operation is a tuple
``(kind, set_key, operand_indices)``; the stream of operations is a pure
function of the workload, the seed and the stream number, so the parent
process can digest it without running the program.
"""
from __future__ import annotations

import hashlib
import itertools
import random

# The catalog of groupdet's CLI, pinned here so the inputs cannot move.
CATALOG = ("C2", "C3", "C4", "C5", "C6", "C8", "C12", "S3", "D8", "Q8")
ORDER = {"C2": 2, "C3": 3, "C4": 4, "C5": 5, "C6": 6, "C8": 8, "C12": 12,
         "S3": 6, "D8": 8, "Q8": 8}
PAIRS = tuple(itertools.combinations_with_replacement(CATALOG, 2))
THREE = ("C2", "C2", "C3")


def set_key(specs) -> str:
    return " x ".join(specs)


def factor_specs(key: str) -> tuple[str, ...]:
    return tuple(key.split(" x "))


def product_order(key: str) -> int:
    out = 1
    for spec in factor_specs(key):
        out *= ORDER[spec]
    return out


# Sizes of the row-commuting matrix sets (|End(H x K)|) and of the
# automorphism groups, as pinned facts: a run whose program enumerates other
# sizes is reported incorrect.
MSET_SIZES = {
    "C2 x C2": 16, "C2 x C3": 6, "C2 x C4": 32, "C2 x C5": 10, "C2 x C6": 48,
    "C2 x C8": 64, "C2 x S3": 64, "C2 x D8": 1088, "C2 x Q8": 448,
    "C3 x C3": 81, "C3 x C4": 12, "C3 x C5": 15, "C3 x C6": 162, "C3 x C8": 24,
    "C3 x S3": 36, "C3 x D8": 108, "C3 x Q8": 84, "C4 x C4": 256, "C4 x C5": 20,
    "C4 x C6": 96, "C4 x C8": 512, "C4 x S3": 128, "C4 x D8": 2304,
    "C4 x Q8": 1280, "C5 x C5": 625, "C5 x C6": 30, "C5 x C8": 40,
    "C5 x S3": 50, "C5 x D8": 180, "C5 x Q8": 140, "C6 x C6": 1296,
    "C6 x C8": 192, "C6 x S3": 216, "C6 x D8": 3264, "C6 x Q8": 1344,
    "C8 x C8": 4096, "C8 x S3": 256, "C8 x D8": 4608, "C8 x Q8": 2560,
    "S3 x S3": 484, "S3 x D8": 3808, "S3 x Q8": 1568, "D8 x D8": 313600,
    "D8 x Q8": 59136, "Q8 x Q8": 43264,
    "C2 x C2 x C3": 48,
}
AUT_SIZES = {
    "C2 x C2": 6, "C2 x C3": 2, "C2 x C4": 8, "C2 x C5": 4, "C2 x C6": 12,
    "C2 x C8": 16, "C2 x C12": 16, "C2 x S3": 12, "C2 x D8": 64,
    "C2 x Q8": 192, "C3 x C3": 48, "C3 x C4": 4, "C3 x C5": 8, "C3 x C6": 48,
    "C3 x C8": 8, "C3 x S3": 12, "C3 x D8": 16, "C3 x Q8": 48, "C4 x C4": 96,
    "C4 x C5": 8, "C4 x C6": 16, "C4 x C8": 128, "C4 x S3": 24,
    "C4 x D8": 128, "C4 x Q8": 384, "C5 x C5": 480, "C5 x C6": 8,
    "C5 x S3": 24,
    "C2 x C2 x C3": 12,
}

# Operation shares follow the direct calls that the acceptance criteria each
# workload stands for make in tests/test_acceptance.py, counted by wrapping
# those names in the test module and running the criteria.
CRITERION_1_CALLS = {"multiply": 1_477_826, "recompose": 20_140, "decompose": 29_140}
CRITERION_2_DECIDES = 136_584       # two-factor matrix sets, factors of order <= 8
CRITERION_10_DECIDES = 1_652        # C2 x C2 x C3, undefined draws included
CRITERION_3_INVERTS = 236           # automorphisms of four products
CRITERION_3_THREE_FACTOR_INVERTS = 12

# matmul: pairs with factors of order <= 8 (so products of order <= 64).
MATMUL_SETS = tuple(set_key(p) for p in PAIRS if max(ORDER[s] for s in p) <= 8)
MATMUL_MIX = tuple(
    (kind, n / sum(CRITERION_1_CALLS.values())) for kind, n in CRITERION_1_CALLS.items()
)

# determinant: decide on the same matrix sets plus the three-factor one;
# invert automorphisms of the products of order <= 32 and of C2 x C2 x C3.
DECIDE_SETS = MATMUL_SETS + (set_key(THREE),)
INVERT_PAIR_SETS = tuple(set_key(p) for p in PAIRS if product_order(set_key(p)) <= 32)
THREE_FACTOR_DECIDE_SHARE = CRITERION_10_DECIDES / (CRITERION_2_DECIDES + CRITERION_10_DECIDES)
THREE_FACTOR_INVERT_SHARE = CRITERION_3_THREE_FACTOR_INVERTS / CRITERION_3_INVERTS
# Skewed on purpose. By the counts above inverts are 236 of 138,472 calls
# (0.17%) and would take about 1% of the timed time, so a change to
# invert_via_det could not move any end-to-end figure. At 3% they take about
# 15% while decides stay the bulk of the operations and of the time.
INVERT_SHARE = 0.03
AUT_LIMIT = 32

CLASSIFY_MAX_PRODUCT_ORDER = 144
CLASSIFY_SETS = tuple(set_key(p) for p in PAIRS)

# Latency statistics are taken per block of consecutive operations; the tail
# is the highest percentile that leaves ten samples beyond it in a block (the
# 11th slowest). The slowest operations are a few percent of a stream
# (recompose calls in matmul, C2 x C2 x C3 operations in determinant), and
# a block of 5000 holds enough of them that its tail does not flip to the
# fast kind when a block happens to draw few.
BLOCK = {"matmul": 5000, "determinant": 5000, "classify": len(PAIRS)}
# Operation prefix whose results are digested (equal across traced and
# untraced runs of one seed) and whose stream is digested.
PREFIX = {"matmul": 1000, "determinant": 1000, "classify": len(PAIRS)}
# Operations done by each side of a traced run: fixed work, so that the call
# counts repeat exactly for a seed.
TRACE_OPS = {"matmul": 8000, "determinant": 8000, "classify": len(PAIRS)}


def _pick(rng: random.Random, mix) -> str:
    u = rng.random()
    for kind, share in mix:
        if u < share:
            return kind
        u -= share
    return mix[-1][0]


def matmul_ops(rng: random.Random):
    while True:
        kind = _pick(rng, MATMUL_MIX)
        key = MATMUL_SETS[rng.randrange(len(MATMUL_SETS))]
        size = MSET_SIZES[key]
        if kind == "multiply":
            yield kind, key, (rng.randrange(size), rng.randrange(size))
        else:
            yield kind, key, (rng.randrange(size),)


def determinant_ops(rng: random.Random):
    while True:
        if rng.random() >= INVERT_SHARE:
            if rng.random() < THREE_FACTOR_DECIDE_SHARE:
                key = set_key(THREE)
            else:
                key = MATMUL_SETS[rng.randrange(len(MATMUL_SETS))]
            yield "decide", key, (rng.randrange(MSET_SIZES[key]),)
        else:
            if rng.random() < THREE_FACTOR_INVERT_SHARE:
                key = set_key(THREE)
            else:
                key = INVERT_PAIR_SETS[rng.randrange(len(INVERT_PAIR_SETS))]
            yield "invert", key, (rng.randrange(AUT_SIZES[key]),)


def classify_ops(rng: random.Random):
    """One pass: every catalog pair once, in seeded order."""
    order = list(CLASSIFY_SETS)
    rng.shuffle(order)
    for key in order:
        yield "classify", key, ()


STREAMS = {"matmul": matmul_ops, "determinant": determinant_ops, "classify": classify_ops}


def op_stream(workload: str, seed: int, stream: int):
    rng = random.Random(f"perfbench:{workload}:{seed}:{stream}")
    return STREAMS[workload](rng)


def encode_op(op) -> bytes:
    kind, key, idx = op
    return f"{kind}|{key}|{','.join(map(str, idx))}\n".encode()


def stream_digest(workload: str, seed: int, stream: int = 0) -> str:
    """sha256 of the first PREFIX[workload] operations of one stream."""
    h = hashlib.sha256()
    for op in itertools.islice(op_stream(workload, seed, stream), PREFIX[workload]):
        h.update(encode_op(op))
    return h.hexdigest()

"""One measuring process: set up a workload, run its operations, report JSON.

Started by ``run.py`` with a JSON configuration as its only argument. The
program comes from the ``src`` directory of the checkout this file sits in.
Only the program call of each operation is timed; drawing inputs and the
oracle check happen outside that span. The last line of standard output is
the report.
"""
from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections import deque
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import oracle
import workloads as wl
from speed import SpeedProbe

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def import_program(trace: bool):
    """Import groupdet from this checkout, wrapped for tracing when asked."""
    sys.path.insert(0, str(SRC))
    tracer = None
    if trace:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    import groupdet

    if Path(groupdet.__file__).resolve().parent != SRC / "groupdet":
        raise SystemExit(f"groupdet was imported from {groupdet.__file__}, not from {SRC}")
    return groupdet, tracer


class Workload:
    """Program-side setup and operations of one workload, with its oracle checks."""

    def __init__(self, gd):
        self.gd = gd
        self.domain_errors = (gd.DeterminantUndefinedError, gd.InversionError)
        self.sets = {}      # set key -> (ProductGroup or None, members)
        self.products = {}  # set key -> oracle.Product

    def prepare_oracle(self) -> list[str]:
        """Build the oracle's products; return problems with the program's set-up."""
        problems = []
        for key, (pg, members) in self.sets.items():
            product = oracle.Product([f.table for f in self.factors(key)])
            self.products[key] = product
            if pg is not None and not product.matches(pg.product.table):
                problems.append(f"{key}: product table is not coordinatewise")
            pinned = self.pinned_size(key)
            if len(members) != pinned:
                problems.append(f"{key}: {len(members)} members, expected {pinned}")
        return problems


class Matmul(Workload):
    def setup(self):
        gd = self.gd
        groups = {}
        for key in wl.MATMUL_SETS:
            facs = tuple(groups.setdefault(s, gd.build_group(s)) for s in wl.factor_specs(key))
            self.sets[key] = (gd.ProductGroup.of(*facs), gd.enumerate_m_matrices(facs))

    def factors(self, key):
        return self.sets[key][0].factors

    def pinned_size(self, key):
        return wl.MSET_SIZES[key]

    def call(self, op):
        kind, key, idx = op
        pg, mats = self.sets[key]
        if kind == "multiply":
            return self.gd.matrix_multiply, (mats[idx[0]], mats[idx[1]])
        if kind == "recompose":
            return self.gd.recompose, (mats[idx[0]], pg)
        phi = self.products[key].recompose(oracle.entry_values(mats[idx[0]]))
        return self.gd.decompose, (self.gd.GroupMap(pg.product, pg.product, phi, hom=True), pg)

    def check(self, op, args, out):
        kind, key, _ = op
        if isinstance(out, BaseException):
            return "error", False, repr(out)
        prod = self.products[key]
        if kind == "multiply":
            a, b = (oracle.entry_values(m) for m in args)
            want = prod.decompose(oracle.compose(prod.recompose(a), prod.recompose(b)))
            got = oracle.entry_values(out)
            return "ok", got == want and out.factors == args[0].factors, repr(got)
        if kind == "recompose":
            want = prod.recompose(oracle.entry_values(args[0]))
            return "ok", out.values == want and out.domain is args[1].product, repr(out.values)
        got = oracle.entry_values(out)
        return "ok", got == prod.decompose(args[0].values), repr(got)


class Determinant(Workload):
    def setup(self):
        gd = self.gd
        groups = {}

        def facs(key):
            return tuple(groups.setdefault(s, gd.build_group(s)) for s in wl.factor_specs(key))

        for key in wl.DECIDE_SETS:
            self.sets[("decide", key)] = (None, gd.enumerate_m_matrices(facs(key)))
        for key in wl.INVERT_PAIR_SETS + (wl.set_key(wl.THREE),):
            pg = gd.ProductGroup.of(*facs(key))
            self.sets[("invert", key)] = (pg, gd.enumerate_aut_matrices(pg, wl.AUT_LIMIT))

    def factors(self, set_id):
        return self.sets[set_id][1][0].factors

    def pinned_size(self, set_id):
        kind, key = set_id
        return (wl.MSET_SIZES if kind == "decide" else wl.AUT_SIZES)[key]

    def call(self, op):
        kind, key, idx = op
        m = self.sets[(kind, key)][1][idx[0]]
        fn = self.gd.is_invertible_via_det if kind == "decide" else self.gd.invert_via_det
        return fn, (m,)

    def check(self, op, args, out):
        kind, key, _ = op
        prod = self.products[(kind, key)]
        entries = oracle.entry_values(args[0])
        invertible = oracle.bijective(prod.recompose(entries))
        if isinstance(out, self.gd.DeterminantUndefinedError):
            if kind == "decide" or prod.n == 2:
                ok = not oracle.has_pivot_route(prod, entries)
            else:
                ok = not oracle.block_route_exists(prod, entries)
            return "undefined", ok, "undefined"
        if isinstance(out, self.gd.InversionError):
            return "singular", not invertible, "singular"
        if isinstance(out, BaseException):
            return "error", False, repr(out)
        if kind == "decide":
            return ("invertible" if out else "singular"), out is invertible, repr(out)
        m_vals = prod.recompose(entries)
        w_vals = prod.recompose(oracle.entry_values(out))
        ident = prod.identity_values()
        ok = oracle.compose(m_vals, w_vals) == ident and oracle.compose(w_vals, m_vals) == ident
        return "invertible", ok, repr(w_vals)


class Classify(Workload):
    def setup(self):
        gd = self.gd
        # Fresh FiniteGroup objects: build_group caches by spec string, and
        # the id-keyed caches of maps and matrices must start empty.
        self.groups = {
            s: gd.FiniteGroup(gd.build_group(s).table, name=s) for s in wl.CATALOG
        }

    def prepare_oracle(self):
        return []

    def call(self, op):
        # A full collection first, outside the timed span: otherwise a
        # collection that earlier pairs left due lands on whichever pair the
        # seeded order puts next.
        gc.collect()
        h, k = wl.factor_specs(op[1])
        return self.gd.classify_pair, (
            self.groups[h], self.groups[k], wl.CLASSIFY_MAX_PRODUCT_ORDER,
        )

    def check(self, op, args, out):
        if isinstance(out, BaseException):
            return "error", False, repr(out)
        h, k = wl.factor_specs(op[1])
        want = oracle.expected_pair_report(h, k)
        cf = out.common_factor
        got = {
            "incompatible": out.incompatible,
            "centrally_incompatible": out.centrally_incompatible,
            "a_is_subgroup": out.a_is_subgroup,
            "a_equals_aut": out.a_equals_aut,
            "common_factor_order": None if cf is None else cf.h_factor.order,
            "incomplete": out.incomplete,
        }
        ok = (
            got == want
            and (not out.totally_incompatible or out.incompatible)
            and (out.total_length is not None) == out.totally_incompatible
        )
        token = json.dumps([got, out.totally_incompatible, out.total_length], sort_keys=True)
        outcome = "incompatible" if out.incompatible else "compatible"
        return outcome, ok, token


WORKLOADS = {"matmul": Matmul, "determinant": Determinant, "classify": Classify}


def block_stats(lat) -> list[float]:
    """[ops_per_s, p50_ms, tail_ms] of one full block of consecutive operations."""
    chunk = sorted(lat)
    return [
        len(chunk) / sum(chunk),
        statistics.median(chunk) * 1e3,
        chunk[len(chunk) - 11] * 1e3,
    ]


class Blocks:
    """Latency statistics folded in as each block of operations closes.

    Memory stays constant in the number of operations, so a faster program
    does not read as a larger one in ``peak_rss_mb``: only the open block is
    kept, plus, under speed scaling, closed blocks whose scale factors still
    wait for probe samples taken after them.
    """

    def __init__(self, size: int, probe):
        self.size = size
        self.probe = probe
        self.starts = array("d")
        self.lat = array("d")
        self.pending: deque = deque()
        self.scaled: list[list[float]] = []
        self.raw: list[list[float]] = []
        self.count = 0
        self.op_time_s = 0.0

    def add(self, t0: float, dt: float) -> None:
        self.count += 1
        self.op_time_s += dt
        self.starts.append(t0)
        self.lat.append(dt)
        if len(self.lat) < self.size:
            return
        self.raw.append(block_stats(self.lat))
        if self.probe is None:
            self.scaled.append(self.raw[-1])
        else:
            self.pending.append((self.starts, self.lat))
            self.flush(settled_only=True)
        self.starts, self.lat = array("d"), array("d")

    def flush(self, settled_only: bool = False) -> None:
        while self.pending:
            starts, lat = self.pending[0]
            if settled_only and not self.probe.settled(starts[-1] + lat[-1]):
                return
            self.pending.popleft()
            self.scaled.append(block_stats(array("d", (
                dt * self.probe.factor(t0, t0 + dt) for t0, dt in zip(starts, lat)
            ))))


class Tally:
    """Latency blocks, input properties, failures and digests of one worker."""

    def __init__(self, prefix: int, blocks: Blocks):
        self.prefix = prefix
        self.blocks = blocks
        self.mix: dict[str, int] = {}
        self.kind_time: dict[str, float] = {}
        self.outcomes: dict[str, int] = {}
        self.orders: dict[str, int] = {}
        self.failures: list[str] = []
        self.failed = 0
        self.stream = hashlib.sha256()
        self.verdicts = hashlib.sha256()

    def fail(self, text: str) -> None:
        if len(self.failures) < 5:
            self.failures.append(text)

    def add(self, op, t0: float, dt: float, outcome: str, ok: bool, token: str) -> None:
        kind, key, _ = op
        self.blocks.add(t0, dt)
        self.kind_time[kind] = self.kind_time.get(kind, 0.0) + dt
        for counts, name in (
            (self.mix, kind),
            (self.outcomes, f"{kind}:{outcome}"),
            (self.orders, str(wl.product_order(key))),
        ):
            counts[name] = counts.get(name, 0) + 1
        if not ok:
            self.failed += 1
            self.fail(f"oracle disagreement on {op}: {token[:200]}")
        if self.blocks.count <= self.prefix:
            self.stream.update(wl.encode_op(op))
            self.verdicts.update(token.encode() + b"\n")


def run_ops(work: Workload, cfg: dict, probe, quiet) -> Tally:
    """The closed loop: one operation at a time until the budget or the stream ends."""
    name = cfg["workload"]
    tally = Tally(wl.PREFIX[name], Blocks(wl.BLOCK[name], probe))
    budget, max_ops = cfg["budget_s"], cfg["max_ops"]
    ops = wl.op_stream(name, cfg["seed"], cfg["stream"])
    t_loop = perf_counter()
    while not cfg["setup_only"]:
        if max_ops is not None and tally.blocks.count >= max_ops:
            break
        if budget is not None and perf_counter() - t_loop >= budget:
            break
        op = next(ops, None)
        if op is None:
            break
        with quiet():
            fn, args = work.call(op)
        t0 = perf_counter()
        spent0 = probe.spent if probe else 0.0
        try:
            out = fn(*args)
        except work.domain_errors as exc:
            out = exc
        except Exception as exc:  # an unexpected error is a failed operation
            out = exc
            tally.fail(traceback.format_exc(limit=4))
        dt = perf_counter() - t0
        if probe:
            dt -= probe.spent - spent0
        with quiet():
            try:
                outcome, ok, token = work.check(op, args, out)
            except Exception:  # a result of the wrong shape is a failed operation
                outcome, ok, token = "error", False, traceback.format_exc(limit=4)
        tally.add(op, t0, dt, outcome, ok, token)
    return tally


def main() -> None:
    cfg = json.loads(sys.argv[1])
    name = cfg["workload"]
    probe = SpeedProbe() if cfg["probe"] else None
    if probe:
        probe.start()
    t_import = perf_counter()
    gd, tracer = import_program(cfg["trace"])
    work = WORKLOADS[name](gd)
    work.setup()
    ready_at = time.monotonic()
    t_ready = perf_counter()
    setup_spent = probe.spent if probe else 0.0
    setup_in_process_s = t_ready - t_import - setup_spent

    quiet = tracer.paused if tracer else nullcontext
    with quiet():
        problems = work.prepare_oracle()
    tally = run_ops(work, cfg, probe, quiet)
    blocks = tally.blocks
    if probe:
        probe.stop()
        blocks.flush()
    report = {
        "ready_at": ready_at,
        "setup_in_process_s": setup_in_process_s,
        "setup_probe_s": setup_spent,
        "setup_factor": probe.factor(t_import, t_ready) if probe else 1.0,
        "setup_problems": problems,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__ if "numpy" in sys.modules else None,
        "ops": blocks.count,
        "failed": tally.failed,
        "failures": tally.failures,
        "op_time_s": blocks.op_time_s,
        "program_wall_s": setup_in_process_s + blocks.op_time_s,
        "blocks": blocks.scaled,
        "raw_blocks": blocks.raw,
        "probe_samples": len(probe.took) if probe else 0,
        "probe_kernel_us_quartiles": (
            [q * 1e6 for q in statistics.quantiles(probe.took, n=4)]
            if probe and len(probe.took) > 1 else None
        ),
        "mix": tally.mix,
        "op_time_by_kind": tally.kind_time,
        "outcomes": tally.outcomes,
        "product_orders": tally.orders,
        "prefix_ops": min(blocks.count, tally.prefix),
        "stream_digest": tally.stream.hexdigest(),
        "verdict_digest": tally.verdicts.hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        report["total_self_s"] = tracer.total_self_s()
        report["trace"] = tracer.metrics()
    print(json.dumps(report))


if __name__ == "__main__":
    main()

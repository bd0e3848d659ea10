"""Layered benchmark for groupdet.

    python3 perfbench/run.py --workload matmul --seed 1 --seconds 15 --trace 0

Workloads: ``matmul``, ``determinant`` and ``classify`` (see README.md in
this directory). Every measurement runs in a fresh worker interpreter
(``worker.py``), one at a time: one client in a closed loop, no threads.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs a fixed prefix of the same operation stream once untraced and once
traced and prints the per-layer metrics. The last line of standard output is
one JSON object; a fuller record goes to ``perfbench/out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# A worker that would end past this point is not started (see Runner.fits);
# one still running at it is killed.
DEADLINE_S = 170.0
# matmul and determinant split the measured time over this many workers, so
# set-up is measured that often and process-level layout noise averages out.
WORKERS = 3
# classify measures whole passes, one per --seconds / CLASSIFY_PASS_S
# (rounded, at least one): a fixed count, so a slower program gets the same
# number of passes and reads slower. Extra set-up-only workers bring its
# set-up samples up to SETUP_SAMPLES.
CLASSIFY_PASS_S = 15.0
SETUP_SAMPLES = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """A worker failed or the run cannot produce a result."""


class Runner:
    """Starts workers one at a time under a shared deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + DEADLINE_S
        self.longest_s = 0.0
        self.skipped: list[str] = []

    def fits(self, what: str) -> bool:
        """Whether one more worker as long as the longest so far ends in time.

        A program slow enough to miss the deadline then still reports the
        workers it finished, with the skipped ones named in the record.
        """
        if time.monotonic() + 1.25 * self.longest_s + 5.0 < self.deadline:
            return True
        self.skipped.append(what)
        return False

    def worker(self, stream: int, *, budget_s=None, max_ops=None, trace=False,
               setup_only=False, probe=True):
        cfg = {
            "workload": self.workload, "seed": self.seed, "stream": stream,
            "budget_s": budget_s, "max_ops": max_ops, "trace": trace,
            "setup_only": setup_only, "probe": probe,
        }
        env = dict(os.environ, PYTHONHASHSEED="0")
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-s", str(HERE / "worker.py"), json.dumps(cfg)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {cfg} passed the {DEADLINE_S:.0f} s deadline") from None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        lines = out.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"worker {cfg} exited with {proc.returncode}:\n{err.strip()[-2000:]}")
        report = json.loads(lines[-1])
        # CLOCK_MONOTONIC is shared by all processes, so this spans interpreter
        # start, imports and program set-up.
        report["raw_setup_s"] = report["ready_at"] - spawned_at
        report["setup_s"] = (
            report["raw_setup_s"] - report["setup_probe_s"]
        ) * report["setup_factor"]
        report["stream"] = stream
        self.longest_s = max(self.longest_s, time.monotonic() - spawned_at)
        return report


def end_to_end(runner: Runner, seconds: float) -> tuple[list[dict], list[dict]]:
    """(measuring workers, set-up-only workers) for one untraced run."""
    if runner.workload != "classify":
        per = seconds / WORKERS
        workers = [runner.worker(0, budget_s=per)]
        for w in range(1, WORKERS):
            if runner.fits(f"worker {w}"):
                workers.append(runner.worker(w, budget_s=per))
        return workers, []
    # One fresh interpreter per pass: the program's module caches are never
    # evicted, so a second pass in one process would run warm and larger.
    n = max(1, round(seconds / CLASSIFY_PASS_S))
    passes = [runner.worker(0)]
    for i in range(1, n):
        if runner.fits(f"pass {i}"):
            passes.append(runner.worker(i))
    extra = [
        runner.worker(n + i, setup_only=True)
        for i in range(max(0, SETUP_SAMPLES - n))
        if runner.fits(f"set-up sample {n + i}")
    ]
    return passes, extra


def summarize(measured: list[dict], setup_only: list[dict], scaled: bool = True) -> dict:
    """End-to-end metrics; ``scaled=False`` gives the same figures before speed scaling."""
    blocks = [b for r in measured for b in r["blocks" if scaled else "raw_blocks"]]
    if not blocks:
        raise BenchError("no full block of operations was measured")
    setup = "setup_s" if scaled else "raw_setup_s"
    return {
        "setup_s": statistics.median(r[setup] for r in measured + setup_only),
        "ops_per_s": statistics.median(b[0] for b in blocks),
        "latency_p50_ms": statistics.median(b[1] for b in blocks),
        "latency_tail_ms": statistics.median(b[2] for b in blocks),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in measured),
    }


def merge_counts(reports: list[dict], field: str) -> dict:
    out: dict = {}
    for r in reports:
        for k, v in r[field].items():
            out[k] = out.get(k, 0) + v
    return dict(sorted(out.items(), key=lambda kv: (len(kv[0]), kv[0])))


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(os.getloadavg()),
        "platform": platform.platform(),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def check_workers(workload: str, seed: int, reports: list[dict]) -> list[str]:
    """Correctness problems beyond per-operation oracle failures."""
    problems = []
    for r in reports:
        problems += r["setup_problems"]
        if r["prefix_ops"] == wl.PREFIX[workload] and (
            r["stream_digest"] != wl.stream_digest(workload, seed, r["stream"])
        ):
            problems.append(f"worker {r['stream']} did not run the seeded stream")
    return problems


def run(args) -> tuple[dict, dict]:
    runner = Runner(args.workload, args.seed)
    record: dict = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    record["environment"] = environment()
    if not args.trace:
        measured, setup_only = end_to_end(runner, args.seconds)
        reports = measured + setup_only
        metrics = summarize(measured, setup_only)
        record["unscaled"] = summarize(measured, setup_only, scaled=False)
        units = dict(END_TO_END)
        block = wl.BLOCK[args.workload]
        record["latency_tail"] = {
            "percentile": round(100.0 * (block - 10) / block, 2),
            "block_ops": block,
            "blocks": sum(len(r["blocks"]) for r in measured),
        }
        record["setup_samples"] = [r["setup_s"] for r in reports]
        if args.workload == "classify":
            record["coldness"] = (
                "each pass in a fresh interpreter with groups built by "
                "FiniteGroup(table, name); passes: %d" % len(measured)
            )
        else:
            record["coldness"] = "each worker is a fresh interpreter; set-up enumerates cold"
        record["skipped_for_deadline"] = runner.skipped
        problems = check_workers(args.workload, args.seed, reports)
    else:
        n = wl.TRACE_OPS[args.workload]
        plain = runner.worker(0, max_ops=n, probe=False)
        traced = runner.worker(0, max_ops=n, trace=True, probe=False)
        reports = [plain, traced]
        metrics = traced["trace"]
        metrics["trace_overhead_ratio"] = traced["program_wall_s"] / plain["program_wall_s"]
        units = dict(layertrace.per_layer_names())
        record["trace_pair"] = {
            "ops": n,
            "untraced_program_wall_s": plain["program_wall_s"],
            "traced_program_wall_s": traced["program_wall_s"],
            "summed_self_s": traced["total_self_s"],
        }
        problems = check_workers(args.workload, args.seed, reports)
        if plain["verdict_digest"] != traced["verdict_digest"]:
            problems.append("traced and untraced runs gave different verdicts")
        if traced["total_self_s"] > traced["program_wall_s"]:
            problems.append("summed self time exceeds the traced wall time")

    attempted = sum(r["ops"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    record.update({
        "numpy": reports[0]["numpy"],
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 0.0,
        "failures": [f for r in reports for f in r["failures"]][:10],
        "problems": problems,
        "inputs": {
            "operation_mix": merge_counts(reports, "mix"),
            "op_time_by_kind": merge_counts(reports, "op_time_by_kind"),
            "outcomes": merge_counts(reports, "outcomes"),
            "product_order_histogram": merge_counts(reports, "product_orders"),
            "classify_pairs": len(wl.CLASSIFY_SETS) if args.workload == "classify" else None,
            "stream_digest": wl.stream_digest(args.workload, args.seed),
        },
        "verdict_digest": reports[0]["verdict_digest"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "worker_reports": [
            {k: v for k, v in r.items() if k != "trace"} for r in reports
        ],
    })
    result = {
        "correct": failed == 0 and not problems and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.STREAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "groupdet" / "__init__.py").is_file():
        print(f"error: no groupdet sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        record, result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"groupdet benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, git {record['environment']['git_sha'][:12]}")
    for name, m in record["metrics"].items():
        print(f"  {name:<48} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        tail = record["latency_tail"]
        print(f"  latency_tail_ms is p{tail['percentile']:g} of each block of "
              f"{tail['block_ops']} operations, median of {tail['blocks']} blocks")
    print(f"  failed_ratio {record['failed_ratio']:.6g} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for what in record.get("skipped_for_deadline", []):
        print(f"  skipped for the {DEADLINE_S:.0f} s deadline: {what}")
    for line in record["problems"] + record["failures"]:
        print(f"  problem: {line.strip()}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

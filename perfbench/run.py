"""The quivergrass benchmark: one workload, one seed, one closed-loop run.

Usage (from the repository root):

    python3 perfbench/run.py --workload count-d4 --seed 1 --seconds 40 --trace 0

Workloads are defined in ``workloads.py``; README.md says why each exists.
The run imports quivergrass from ``src/`` of the same checkout, sets the
workload up, draws a sample of distinct ops from the seed and runs the sample
in rounds, one op after another (closed loop, one client), each round in the
same seeded order, for about ``--seconds``; the last round stops at the first
op that would not end in time.  It sets up again, from cold
caches, after every round; ``setup_s`` is the import time plus the median.  Every
op is checked against ``golden/<workload>.json`` and against checks that need
no golden record.  The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  An op's latency is
its best time over the rounds: on a shared virtual machine the speed drifts
by up to 40% over seconds, and the best of several rounds is what repeats.  With
``--trace 1`` every op runs twice, untraced and traced, and the metrics are
per-layer figures per round from the spans (``spans.py``).  The line before
the result holds the run's details: machine, rounds, the tail percentile.
The spans of a traced run are written to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from spans import SpanRecorder, instrument, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# distinct ops per round; a round takes a few seconds at the seed commit
SAMPLE_SIZE = {"count-d4": 24, "hilbert-d4": 24, "research-small": 3}
MIN_ROUNDS = 2
MIN_BEYOND = 10
# outputs kept for the checks after the timed ops; keeping every output
# would make peak memory grow with the number of rounds
KEEP_OUTPUTS = 2


class BenchError(RuntimeError):
    pass


def tail_rank(n: int) -> int:
    """1-based rank, in ascending order, of the op time reported as
    ``op_tail_s``: the highest percentile with at least ten of the n ops
    beyond it, or the median when fewer than twenty ops ran."""
    return n - MIN_BEYOND if n >= 2 * MIN_BEYOND else (n + 1) // 2


def load_golden(name: str) -> dict:
    path = HERE / "golden" / f"{name}.json"
    if not path.is_file():
        raise BenchError(f"missing golden records {path}")
    data = json.loads(path.read_text())
    if data.get("workload") != name:
        raise BenchError(f"{path} holds records of {data.get('workload')!r}")
    return data["records"]


def clear_caches() -> None:
    """Empty every module-level cache of quivergrass, so that a repeated
    set-up rebuilds catalogs and enumerations as the first one did."""
    for mod in list(sys.modules.values()):
        if not getattr(mod, "__name__", "").startswith("quivergrass"):
            continue
        for obj in list(vars(mod).values()):
            if callable(getattr(obj, "cache_clear", None)):
                obj.cache_clear()


def verify(w, golden: dict, key: str, out) -> str | None:
    """Why an op's result is wrong, or None when it is right."""
    if not w.op_ok(out):
        return f"{key}: gap or inconsistent interpolation"
    if key not in golden:
        return f"{key}: no golden record"
    if w.digest(out) != golden[key]:
        return f"{key}: result differs from the golden record"
    problems = w.op_checks(key, out)
    return "; ".join(problems) if problems else None


class OpLog:
    """What a loop did: keys, op seconds, failures, first outputs that passed."""

    def __init__(self):
        self.keys: list[str] = []
        self.seconds: list[float] = []
        self.failures: list[str] = []
        self.done: list = []  # (key, output) of the first ops that passed

    def best(self) -> dict[str, float]:
        """Each key's fastest time."""
        out: dict[str, float] = {}
        for k, s in zip(self.keys, self.seconds):
            out[k] = min(out.get(k, s), s)
        return out


def run_op(w, golden: dict, key: str, log: OpLog) -> None:
    """Run and time one op, then check it outside the timed region."""
    t0 = time.perf_counter()
    try:
        out = w.run_op(key)
    except Exception as exc:  # an op that raises is a failed op
        out, error = None, f"{key}: {type(exc).__name__}: {exc}"
    else:
        error = None
    log.seconds.append(time.perf_counter() - t0)
    log.keys.append(key)
    if error is None:
        error = verify(w, golden, key, out)
    if error is not None:
        log.failures.append(error)
    elif len(log.done) < KEEP_OUTPUTS:
        log.done.append((key, out))


def run_rounds(sample: list, seconds: float, run_one, after_round,
               min_rounds: int, partial: bool) -> int:
    """Call ``run_one(key)`` for every key of the sample, in the same order
    each round, then ``after_round()``, at least ``min_rounds`` times.

    The order never changes, so the runs of one op are a round apart and a
    slow spell of the machine shorter than a round reaches at most one of
    them.  After ``min_rounds`` rounds, with ``partial`` the rounds go on op
    by op while the next op, at its best time so far, still ends within
    ``seconds``; without it, another whole round runs while one as long as
    the last still fits.  Returns the number of whole rounds.
    """
    start = time.perf_counter()
    best: dict = {}
    rounds, last = 0, 0.0
    while rounds < min_rounds or (
            partial or time.perf_counter() - start + last <= seconds):
        t_round, ran = time.perf_counter(), 0
        for key in sample:
            if (rounds >= min_rounds and partial
                    and time.perf_counter() - start + best[key] > seconds):
                break
            t0 = time.perf_counter()
            run_one(key)
            best[key] = min(best.get(key, float("inf")), time.perf_counter() - t0)
            ran += 1
        last = time.perf_counter() - t_round
        if ran:
            after_round()
        if ran < len(sample):
            break
        rounds += 1
    return rounds


def closed_loop(w, golden: dict, sample: list, seconds: float,
                after_round) -> tuple[OpLog, int]:
    log = OpLog()
    rounds = run_rounds(sample, seconds, lambda key: run_op(w, golden, key, log),
                        after_round, MIN_ROUNDS, partial=True)
    return log, rounds


def paired_loop(w, golden: dict, sample: list, seconds: float,
                rec) -> tuple[OpLog, OpLog, int]:
    """Like ``closed_loop``, but every op runs twice, untraced and traced,
    in whole rounds only (per-layer figures are per round).

    Both runs of an op see the same state of the machine, so the ratio of
    the two sums is the tracing overhead.  Which run goes first alternates,
    so warm caches favour neither side.
    """
    plain, traced = OpLog(), OpLog()

    def run_pair(key):
        first_traced = len(traced.keys) % 2 == 1
        for tracing in (first_traced, not first_traced):
            if tracing:
                rec.op_id = len(traced.keys)
                with instrument(rec):
                    run_op(w, golden, key, traced)
            else:
                run_op(w, golden, key, plain)

    # one round suffices: per-layer figures are per round and need no best-of
    return plain, traced, run_rounds(sample, seconds, run_pair, lambda: None, 1,
                                     partial=False)


def end_to_end(log: OpLog, setup_s: float) -> tuple[dict, dict]:
    best = sorted(log.best().values())
    n, runs = len(best), len(log.seconds)
    rank = tail_rank(n)
    wall = sum(best)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "ops_per_s": (n / wall, "1/s"),
        "op_p50_s": (statistics.median(best), "s"),
        "op_tail_s": (best[rank - 1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((runs - len(log.failures)) / runs, "frac"),
    }
    details = {"sample_ops": n, "op_runs": runs, "timed_s": sum(log.seconds),
               "op_tail_percentile": 100 * rank / n, "ops_beyond_tail": n - rank,
               "fail_frac": len(log.failures) / runs}
    return metrics, details


def machine() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SAMPLE_SIZE))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    # one thread for every numeric library, set before numpy is imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "quivergrass" / "__init__.py").is_file():
        raise BenchError(f"no quivergrass sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # numpy is a dependency, not part of the program: its import is untimed
    import numpy  # noqa: F401
    t_import = time.perf_counter()
    from workloads import WORKLOADS
    import quivergrass
    import_s = time.perf_counter() - t_import
    if Path(quivergrass.__file__).resolve().parent != SRC / "quivergrass":
        raise BenchError(f"quivergrass imported from {quivergrass.__file__}, not {SRC}")

    golden = load_golden(args.workload)
    w = WORKLOADS[args.workload]()
    setups = []

    def set_up():
        """One timed set-up from cold caches.  The set-ups are spread over
        the run (one before the first round, one after each), so a slow
        spell of the machine hits only some of them."""
        clear_caches()
        t0 = time.perf_counter()
        w.setup()
        setups.append(time.perf_counter() - t0)

    set_up()
    sample = w.order(args.seed, golden)[:SAMPLE_SIZE[w.name]]

    if args.trace:
        rec = SpanRecorder()
        clear_caches()
        with instrument(rec):  # one set-up, traced with op id -1
            w.setup()
        plain, log, rounds = paired_loop(w, golden, sample, args.seconds, rec)
        metrics = layer_metrics(rec, rounds, sum(log.seconds), sum(plain.seconds))
        failures = plain.failures + log.failures
        attempted = len(plain.keys) + len(log.keys)
        details = {"untraced_s": sum(plain.seconds), "traced_s": sum(log.seconds)}
        out_dir = ROOT / ".perfbench_runs"
        out_dir.mkdir(exist_ok=True)
        rec.dump(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        log, rounds = closed_loop(w, golden, sample, args.seconds, set_up)
        metrics, details = end_to_end(log, import_s + statistics.median(setups))
        failures = list(log.failures)
        attempted = len(log.keys)

    check_problems = w.run_checks(log.done)
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, rounds=rounds, setup_runs_s=setups,
                   import_s=import_s, failures=failures[:20],
                   independent_checks="pass" if not check_problems else check_problems,
                   **machine())
    print(json.dumps({"details": details}))
    result = {
        "correct": not failures and not check_problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

"""treelie benchmark: one closed-loop client driving the public CLI entry.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload structure --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20   # table of every workload

Workloads (see workloads.py and BENCHMARK.json): ``structure``, ``exact``
and ``spectral`` call ``treelie.cli.run_cli(argv)`` in this process, one
request after another; ``cold_cli`` starts a fresh ``python -m
treelie.cli`` per request.  Every output is checked (check.py) and the
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics: it first times
SETUP_REPEATS fresh set-ups (import, inputs, tree files, warm-up) and
reports their median as ``setup_s``, then runs whole passes over the
workload's slots for about ``--seconds``.  ``--trace 1`` runs a fixed number of
passes with span wrappers installed (spans.py), replays the same requests
without them to measure the tracing overhead, and reports the per-layer
metrics.  Spans go to perfbench/out/.

Maintenance: ``--write-reference`` regenerates reference.json from the
current program; do it only when an output change is intended.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from typing import NoReturn  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 5
STRETCH = 1.25  # another pass starts only if it should end by STRETCH * --seconds
HARD_STOP_S = 100.0  # a timed loop never runs longer, so a run ends within 180 s
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0, 50.0)
TRACE_PASSES = {"structure": 1, "exact": 3, "spectral": 2, "cold_cli": 2}
REFERENCE_PASSES = 6
REFERENCE = os.path.join(HERE, "reference.json")
OUT_DIR = os.path.join(HERE, "out")
WORK_ROOT = os.path.join(HERE, ".work")

END_TO_END_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _fail(message: str) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def source_dir() -> str:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "treelie", "cli.py")):
        _fail(f"no treelie sources under {src}; run from the root of a checkout")
    return src


def import_program(src: str) -> dict:
    """Import numpy, then treelie from ./src, timing each."""
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import treelie.cli  # noqa: F401

    t2 = time.perf_counter()
    origin = os.path.realpath(sys.modules["treelie"].__file__)
    if not origin.startswith(os.path.realpath(src) + os.sep):
        _fail(f"imported treelie from {origin}, not from {src}")
    return {"import_numpy_ms": (t1 - t0) * 1e3, "import_treelie_ms": (t2 - t1) * 1e3}


def interpreter_start_ms() -> float:
    """Process creation to the first line of this script, from /proc (Linux);
    0 where unavailable.  Resolution is one clock tick."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        now = time.clock_gettime(time.CLOCK_BOOTTIME)
        return max(0.0, (now - (time.perf_counter() - _T0) - started) * 1e3)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # metadata missing: record that, do not fail the run
        numpy_version = "unknown"
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "loadavg_start": list(os.getloadavg()),
    }


# ------------------------------------------------------------------ runners


class Outcome:
    __slots__ = ("rc", "stdout", "stderr", "seconds", "csv_text", "rss_kb", "trace")

    def __init__(self, rc, stdout, stderr, seconds, csv_text=None, rss_kb=0, trace=None):
        self.rc, self.stdout, self.stderr, self.seconds = rc, stdout, stderr, seconds
        self.csv_text, self.rss_kb, self.trace = csv_text, rss_kb, trace


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


class InProcess:
    """Calls treelie.cli.run_cli(argv) with stdout and stderr captured."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.csv_path = os.path.join(workdir, "grid.csv")

    def run(self, req) -> Outcome:
        cli = sys.modules["treelie.cli"]
        argv = req.resolve(self.workdir, self.csv_path)
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.csv_path)
        out, err = io.StringIO(), io.StringIO()
        t = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.run_cli(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a raise is a failed request, recorded with its traceback
            rc = -1
            err.write(traceback.format_exc())
        dt = time.perf_counter() - t
        csv_text = _read(self.csv_path) if "{csv}" in req.argv else None
        return Outcome(rc, out.getvalue(), err.getvalue(), dt, csv_text)


class ColdProcess:
    """One fresh interpreter per request, spawned and reaped one at a time."""

    def __init__(self, workdir: str, src: str):
        self.workdir = workdir
        self.csv_path = os.path.join(workdir, "grid.csv")
        self.out_path = os.path.join(workdir, "stdout.txt")
        self.err_path = os.path.join(workdir, "stderr.txt")
        self.trace_path = os.path.join(workdir, "child_trace.json")
        self.env = dict(os.environ, PYTHONPATH=src)
        self.traced = False

    def run(self, req) -> Outcome:
        argv = req.resolve(self.workdir, self.csv_path)
        for path in (self.csv_path, self.trace_path):
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, self.out_path, flags, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, self.err_path, flags, 0o644),
        ]
        if self.traced:
            cmd = [sys.executable, os.path.join(HERE, "bootstrap.py"), repr(time.time()), self.trace_path]
        else:
            cmd = [sys.executable, "-m", "treelie.cli"]
        t = time.perf_counter()
        pid = os.posix_spawn(sys.executable, cmd + argv, self.env, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        dt = time.perf_counter() - t
        rc = os.waitstatus_to_exitcode(status)
        trace = None
        if self.traced:
            text = _read(self.trace_path)
            trace = json.loads(text) if text else None
        csv_text = _read(self.csv_path) if "{csv}" in req.argv else None
        return Outcome(rc, _read(self.out_path) or "", _read(self.err_path) or "", dt,
                       csv_text, usage.ru_maxrss, trace)


# ------------------------------------------------------------------- session


class Session:
    """Inputs, tree files and a runner for one workload and seed."""

    def __init__(self, workload: str, seed: int, src: str, reference: dict):
        self.workload, self.seed, self.src = workload, seed, src
        os.makedirs(WORK_ROOT, exist_ok=True)
        self.workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK_ROOT)
        self.perms = workloads.write_trees(workload, seed, self.workdir)
        if workload == "cold_cli":
            self.runner = ColdProcess(self.workdir, src)
        else:
            self.runner = InProcess(self.workdir)
        self.reference = reference
        self.failures = []
        self.stdout_bytes = 0
        self.csv_rows = 0
        self.numpy_repr_cells = 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def warm_up(self):
        """Run the workload's warm-up requests, checked but not counted."""
        for req in workloads.warm_up_requests(self.workload, self.seed):
            self.execute(req, count=False)

    def execute(self, req, count=True):
        """Run and check one request; returns (Outcome, ok)."""
        outcome = self.runner.run(req)
        try:
            seen = check.observe(req, self.perms.get(req.tree), outcome.rc, outcome.stdout, outcome.csv_text)
            check.compare(seen, self.reference)
            ok = True
        except check.Mismatch as exc:
            ok = False
            if count:
                detail = outcome.stderr.strip().splitlines()[-1:] if outcome.stderr else []
                self.failures.append({"request": req.label, "reason": str(exc), "stderr": detail})
            seen = {"csv_rows": 0, "numpy_repr_cells": 0}
        if count:
            self.stdout_bytes += len(outcome.stdout.encode("utf-8"))
            self.csv_rows += seen["csv_rows"]
            self.numpy_repr_cells += seen["numpy_repr_cells"]
        return outcome, ok


def per_layer_unit(name: str) -> str:
    for suffix, unit in (("_pct", "%"), ("_ms", "ms"), ("self_s", "s"), ("overhead_s", "s"),
                         ("ns_per_mode_point", "ns"), ("bracket_pairs", "computed-pairs"),
                         ("_bytes", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def tail_percentile(n: int):
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n - math.ceil(p / 100.0 * n) >= 10:
            return p
    return 50.0


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_values)) - 1)
    return sorted_values[k]


def hd_percentile(sorted_values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile: the order statistics
    weighted by a Beta((n+1)q, (n+1)(1-q)) density, q = p / 100, over
    their rank intervals.  A request mix has a few distinct costs, so a
    single order statistic jumps between them from run to run; this
    weighted mean of the neighbouring ranks does not."""
    n = len(sorted_values)
    q = p / 100.0
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    steps = 200 * n + 2000
    logs = [(a - 1.0) * math.log(u) + (b - 1.0) * math.log1p(-u)
            for u in ((k + 0.5) / steps for k in range(steps))]
    top = max(logs)
    weights = [0.0] * n
    for k, log_density in enumerate(logs):
        weights[(2 * k + 1) * n // (2 * steps)] += math.exp(log_density - top)
    return sum(w * x for w, x in zip(weights, sorted_values)) / sum(weights)


# --------------------------------------------------------------- set-up time


def setup_probe(workload: str, seed: int) -> int:
    """Do a run's set-up, print ``ready`` and exit; timed by the parent."""
    src = source_dir()
    if workload != "cold_cli":
        import_program(src)
    session = Session(workload, seed, src, check.load_reference(REFERENCE))
    try:
        session.warm_up()
        if session.failures:
            return 1
        print("ready", flush=True)
    finally:
        session.close()
    return 0


def timed_setups(workload: str, seed: int, repeats: int):
    """Wall time from spawning a fresh interpreter to its ``ready`` line."""
    times = []
    script = os.path.abspath(__file__)
    for _ in range(repeats):
        cmd = [sys.executable, script, "--setup-probe", "--workload", workload, "--seed", str(seed)]
        t = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t
            proc.stdout.read()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            _fail(f"set-up probe for {workload} failed (exit {rc})")
        times.append(dt)
    return times


# ------------------------------------------------------------------ measure


def measure(session: Session, seconds: float):
    """Whole passes: the first always, then another while it should end by
    STRETCH * ``seconds`` at the mean pass time so far.  Every run thus
    measures the same mix, and every slot at least once, so the peak
    memory is that of the full mix.  Returns the latencies, the number of
    correct requests, the largest child RSS in KiB and the passes run."""
    latencies, correct, rss_kb = [], 0, 0
    start = time.perf_counter()
    index = 0
    while True:
        for req in workloads.pass_requests(session.workload, session.seed, index):
            outcome, ok = session.execute(req)
            latencies.append(outcome.seconds)
            correct += ok
            rss_kb = max(rss_kb, outcome.rss_kb)
            if time.perf_counter() - start >= HARD_STOP_S:
                return latencies, correct, rss_kb, index + 1
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed * (index + 1) / index > STRETCH * seconds:
            return latencies, correct, rss_kb, index


def end_to_end(args, src) -> dict:
    info = machine()
    setups = timed_setups(args.workload, args.seed, SETUP_REPEATS)
    startup = {}
    if args.workload != "cold_cli":
        startup = import_program(src)
    session = Session(args.workload, args.seed, src, check.load_reference(REFERENCE))
    try:
        session.warm_up()
        own_setup = time.perf_counter() - _T0
        latencies, correct, child_rss, passes = measure(session, args.seconds)
    finally:
        session.close()
    if args.workload == "cold_cli":
        rss_mb = child_rss / 1024.0
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(latencies)
    ordered = sorted(latencies)
    p = tail_percentile(n)
    metrics = {
        "throughput_rps": correct / sum(latencies),
        "latency_p50_ms": hd_percentile(ordered, 50.0) * 1e3,
        "latency_tail_ms": hd_percentile(ordered, p) * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_mb,
    }
    info["loadavg_end"] = list(os.getloadavg())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": info,
        "requests": n,
        "passes": passes,
        "error_rate": (n - correct) / n,
        "tail_percentile": p,
        "tail_samples_beyond": n - math.ceil(p / 100.0 * n),
        "nearest_rank_p50_ms": percentile(ordered, 50.0) * 1e3,
        "nearest_rank_tail_ms": percentile(ordered, p) * 1e3,
        "setup_runs_s": setups,
        "own_setup_s": own_setup,
        "startup": startup,
        "csv_numpy_repr_cells": session.numpy_repr_cells,
        "failures": session.failures[:20],
    }
    return {"n": n, "correct": correct, "metrics": metrics, "detail": detail}


# ------------------------------------------------------------------- traced


def traced(args, src) -> dict:
    info = machine()
    startup = {"interpreter_ms": interpreter_start_ms()}
    cold = args.workload == "cold_cli"
    if not cold:
        startup.update(import_program(src))
    session = Session(args.workload, args.seed, src, check.load_reference(REFERENCE))
    tracer = Tracer()
    child_startup, child_totals, child_records = [], {}, []
    traced_wall = untraced_wall = 0.0
    n = correct = 0
    try:
        session.warm_up()
        requests = [
            req
            for index in range(TRACE_PASSES[args.workload])
            for req in workloads.pass_requests(args.workload, args.seed, index)
        ]
        if cold:
            session.runner.traced = True
        else:
            tracer.install()
        try:
            for rid, req in enumerate(requests, 1):
                tracer.request = rid
                outcome, ok = session.execute(req)
                traced_wall += outcome.seconds
                n += 1
                correct += ok
                if cold and outcome.trace:
                    child_startup.append(outcome.trace["startup"])
                    for name, (calls, self_ns) in outcome.trace["totals"].items():
                        agg = child_totals.setdefault(name, [0, 0])
                        agg[0] += calls
                        agg[1] += self_ns
                    tracer.counters.update(outcome.trace["counters"])
                    for rec in outcome.trace["records"]:
                        rec["request"] = rid
                        child_records.append(rec)
        finally:
            tracer.uninstall()
            session.runner.traced = False
        layer_counts = (session.stdout_bytes, session.csv_rows, session.numpy_repr_cells)
        for req in requests:
            outcome, ok = session.execute(req)
            untraced_wall += outcome.seconds
            n += 1
            correct += ok
    finally:
        session.close()

    if cold:
        if not child_startup:
            _fail("no traced cold_cli child wrote its trace")
        totals = child_totals
        startup = {k: statistics.median(s[k] for s in child_startup) for k in child_startup[0]}
        startup_self_s = sum(sum(s.values()) for s in child_startup) / 1e3
        denominator = traced_wall
    else:
        totals = tracer.totals()
        startup_self_s = sum(startup.values()) / 1e3
        denominator = traced_wall + startup_self_s

    def calls(name):
        return totals.get(name, [0, 0])[0]

    def self_s(name):
        return totals.get(name, [0, 0])[1] / 1e9

    metrics = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, ns) in totals.items():
        layer_self[name.split(".", 1)[0]] += ns / 1e9
    attributed = sum(layer_self.values())
    layer_self["startup"] = startup_self_s
    layer_self["unattributed"] = max(0.0, denominator - attributed - startup_self_s)
    for layer, value in layer_self.items():
        metrics[f"layer.{layer}.self_s"] = value
        metrics[f"layer.{layer}.share_pct"] = 100.0 * value / denominator
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall
    metrics["trace.requests"] = len(requests)
    for name in ("liealg.verify_structure", "liealg.enumerate_basis", "ideals.enumerate_ideals",
                 "ideals.maximal_ideals", "ideals.brute_force_ideals", "ideals.is_abelian_ideal",
                 "ideals.root_poset", "polynomials.mul", "polynomials.pow", "polynomials.add",
                 "polynomials.substitute", "polynomials.integrate_from_zero",
                 "polynomials.differentiate", "firstorder.eta_family",
                 "firstorder.verify_first_order", "firstorder.bch_coefficients",
                 "firstorder.flow_rk4", "heat.eval", "cli.run_cli"):
        metrics[f"{name}.calls"] = calls(name)
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("heat.xi_family", "heat.fourier_coefficients", "heat.verify_modes",
                 "heat.solve_heat", "trees.load_tree", "expressions.parse_expression",
                 "expressions.evaluate", "expressions.to_multipoly"):
        metrics[f"{name}.self_s"] = self_s(name)
    for name in ("liealg.basis_dim", "liealg.bracket_pairs", "ideals.ideals_found",
                 "polynomials.mul.terms_out", "firstorder.eta_terms", "firstorder.rk4_steps",
                 "heat.fft_points", "heat.mode_points"):
        metrics[name] = tracer.counters.get(name, 0)
    points = metrics["heat.mode_points"]
    metrics["heat.eval.ns_per_mode_point"] = (
        totals.get("heat.eval", [0, 0])[1] / points if points else 0.0
    )
    metrics["cli.stdout_bytes"], metrics["cli.csv_rows"], metrics["cli.csv_numpy_repr_cells"] = layer_counts
    metrics["startup.interpreter_ms"] = startup.get("interpreter_ms", 0.0)
    metrics["startup.import_numpy_ms"] = startup["import_numpy_ms"]
    metrics["startup.import_treelie_ms"] = startup["import_treelie_ms"]

    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans_{args.workload}_seed{args.seed}.jsonl")
    tracer.dump(span_path, child_records)
    info["loadavg_end"] = list(os.getloadavg())
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "machine": info,
        "traced_wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "spans_file": os.path.relpath(span_path, os.getcwd()),
        "failures": session.failures[:20],
    }
    return {"n": n, "correct": correct, "metrics": metrics, "detail": detail}


# ---------------------------------------------------------------- reference


def write_reference(src) -> None:
    """Record digests of every structure question (one pass holds them
    all), every bch order in 20..80 and every solver tree's eta, plus the
    floats of the first REFERENCE_PASSES passes of the default seed."""
    import_program(src)
    ref = {"default_seed": DEFAULT_SEED, "rel_tol": check.REL_TOL, "abs_tol": check.ABS_TOL,
           "exact": {}, "floats": {}}
    empty = {"exact": {}, "floats": {}}
    for workload in workloads.WORKLOADS:
        session = Session(workload, DEFAULT_SEED, src, empty)
        session.runner = InProcess(session.workdir)
        try:
            passes = 1 if workload == "structure" else REFERENCE_PASSES
            reqs = [r for i in range(passes) for r in workloads.pass_requests(workload, DEFAULT_SEED, i)]
            if workload == "exact":
                reqs += [workloads.bch_request(k) for k in range(20, 81)]
            for req in reqs:
                outcome = session.runner.run(req)
                try:
                    seen = check.observe(req, session.perms.get(req.tree), outcome.rc,
                                         outcome.stdout, outcome.csv_text)
                except check.Mismatch as exc:
                    _fail(f"{req.label}: {exc} {outcome.stderr[-300:]}")
                for part in ("exact", "floats"):
                    for key, value in seen[part].items():
                        old = ref[part].setdefault(key, value)
                        if old != value:
                            _fail(f"{key} is not reproducible: {old} vs {value}")
        finally:
            session.close()
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(ref['exact'])} exact and {len(ref['floats'])} float entries to {REFERENCE}")


# --------------------------------------------------------------------- main


def run_all(args) -> int:
    """Each workload in its own process; prints a table of every metric."""
    script = os.path.abspath(__file__)
    rows, ok = [], True
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, script, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: failed (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        ok = ok and result["correct"]
        extra = {"error_rate": (result["failed"] / result["attempted"], "1")}
        if "tail_percentile" in detail:
            extra["tail_percentile"] = (detail["tail_percentile"], "%")
            extra["tail_samples_beyond"] = (detail["tail_samples_beyond"], "count")
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
        for name, (value, unit) in extra.items():
            rows.append((workload, name, value, unit))
    for workload, name, value, unit in rows:
        print(f"{workload:10s} {name:42s} {value:14.6g} {unit}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if args.write_reference:
        write_reference(source_dir())
        return 0
    if args.workload == "all":
        return run_all(args)
    src = source_dir()
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if not os.path.isfile(REFERENCE):
        _fail(f"missing reference file {REFERENCE}")
    result = traced(args, src) if args.trace else end_to_end(args, src)
    unit = per_layer_unit if args.trace else END_TO_END_UNITS.get
    metrics = {name: {"value": value, "unit": unit(name)} for name, value in result["metrics"].items()}
    failed = result["n"] - result["correct"]
    doc = {"correct": failed == 0, "attempted": result["n"], "failed": failed, "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"detail": result["detail"], "result": doc}, fh, indent=1)
    for failure in result["detail"]["failures"]:
        print(f"FAILED {failure['request']}: {failure['reason']} {failure['stderr']}", file=sys.stderr)
    print(json.dumps(result["detail"]))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Benchmark of the adsholo experiments, run from the repository root:

    python3 bench/run.py --workload check_all --seed 0 --seconds 25 --trace 0

A workload is a fixed list of `adsholo.cli.run` invocations whose configs
are derived from the seed.  One run times whole passes over that list in
this process, after one warm-up pass, and checks every invocation: exit
code 0, no FAIL line, no exception, CSV artifacts byte-identical to the
first pass, and (for seeds stored in bench/reference.json) key outputs
within 1e-12 of the stored values.

The last line of standard output is one JSON object.  `failed` counts the
invocations that fail any check, out of `attempted`.  `correct` is false
when an output could not be verified (an exception, an exit code other
than 0 or 1, a CSV that changed between passes, a reference mismatch) or
the trace accounting does not add up; the program's own numerical verdict
(exit 1 with FAIL lines) counts as failed but leaves the run correct.

--trace 0 reports the end-to-end metrics named in BENCHMARK.json.
--trace 1 wraps the public functions of the five modules, alternates
untraced and traced passes, and reports per-layer call counts and self
times per pass.
"""

import argparse
import gc
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from functools import wraps
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# BLAS threads are pinned before NumPy loads, so that the numbers measure
# the program and not the scheduler.
NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = min(2, NPROC)
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

REF_ATOL = 1e-12
MIN_PASSES = 3
SETUP_SAMPLES = 7

SHORT_WINDOW = "-:-1:1;+:-1:1"
LONG_WINDOW = "-:-3.3:3.3;+:-3.3:3.3"


# ----------------------------------------------------------------------
# workloads: (command, config text) lists derived from the seed

def check_all_invocations(seed):
    return [("check-all", f"[experiment]\nseed = {seed}\n")]


def k_sweep_invocations(seed):
    # At this commit the K = 40 short-window holo-inclusion fails its own
    # residual_monotone check for most seeds (all of 2-12 tried; not 0 or
    # 1): the relative rank cutoff drops directions as the dictionary grows.
    # The failure is counted, not avoided.
    out = []
    for k in (20, 40, 80):
        ladder = ",".join(str(k * m) for m in (1, 2, 4, 8, 16))
        for window in (SHORT_WINDOW, LONG_WINDOW):
            text = (f"[model]\nk = {k}\nn = 1024\n[regions]\no = {window}\n"
                    f"[experiment]\nladder = {ladder}\nseed = {seed}\n")
            out += [("holo-inclusion", text), ("uc-scan", text)]
    return out


def fock_identities_invocations(seed):
    text = f"[experiment]\nseed = {seed}\n"
    return [("ccr-verify", text), ("kw-verify", text)]


@dataclass(frozen=True)
class Workload:
    invocations: object       # seed -> [(command, config text), ...]
    why: str


WORKLOADS = {
    "check_all": Workload(
        check_all_invocations,
        "the user's headline command at the default config; about 85% dense "
        "Weyl exponentials on the 861-dim Fock space"),
    "k_sweep": Workload(
        k_sweep_invocations,
        "holo-inclusion and uc-scan for K 20/40/80, ladder K..16K, short and "
        "long window; dual maps and projector SVDs, no Fock work"),
    "fock_identities": Workload(
        fock_identities_invocations,
        "ccr-verify and kw-verify build whole Weyl and field matrices, the "
        "use of ccr_fock that check_all does not make"),
}


# ----------------------------------------------------------------------
# correctness: key outputs of each artifact, compared with the reference

KEY_COLUMNS = {
    "holo_inclusion.csv": ("max_residual", "mean_residual", "sigma_min_ref"),
    "weyl_convergence.csv": ("distance", "compressed_distance", "error"),
    "ccr_verify.csv": ("value",),
    "kw_verify.csv": ("value",),
    "uc_scan.csv": ("sigma_min",),
}
KEY_REPORT_CHECKS = {"modes_report.txt": ("fd_spectrum_agreement",)}


def key_outputs(out_dir):
    """{"<file>:<column or check>": [values]} for the artifacts present."""
    out = {}
    for name, columns in KEY_COLUMNS.items():
        path = out_dir / name
        if not path.exists():
            continue
        lines = [l for l in path.read_text().splitlines()
                 if not l.startswith("#")]
        header = lines[0].split(",")
        rows = [l.split(",") for l in lines[1:]]
        for col in columns:
            if col in header:
                i = header.index(col)
                out[f"{name}:{col}"] = [float(r[i]) for r in rows]
    for name, checks in KEY_REPORT_CHECKS.items():
        path = out_dir / name
        if not path.exists():
            continue
        for line in path.read_text().splitlines():
            for check in checks:
                if line.startswith(check + " ") or line.startswith(check + ":"):
                    value = line.split(": ", 1)[1].split()[0]
                    out[f"{name}:{check}"] = [float(value)]
    return out


def reference_mismatch(got, want):
    """First key whose values differ from the reference by more than
    REF_ATOL, or None."""
    for key, ref in want.items():
        vals = got.get(key)
        if vals is None or len(vals) != len(ref):
            return f"{key}: missing or wrong length"
        for a, b in zip(vals, ref):
            if math.isnan(a) and math.isnan(b):
                continue
            if not abs(a - b) <= REF_ATOL:
                return f"{key}: {a!r} vs reference {b!r}"
    return None


class Checker:
    """Runs and checks invocations.

    An invocation fails if it raises, exits non-zero, prints a FAIL line,
    writes CSVs that differ from its first pass, or has a key output more
    than REF_ATOL from the reference.  Failures other than the program's
    own numerical verdict (exit 1 with FAIL lines) also leave its outputs
    unverified, which makes the run incorrect.
    """

    def __init__(self, cli, out_root, reference=None):
        self.cli = cli
        self.out_root = Path(out_root)
        self.reference = reference    # {label: key outputs} or None
        self.first_csvs = {}
        self.outputs = {}
        self.attempted = 0
        self.failed = 0
        self.unverified = 0
        self.problems = []

    def invoke(self, label, command, cfg):
        """Run one invocation; return its wall time in seconds."""
        out_dir = self.out_root / label.replace(":", "_")
        self.attempted += 1
        stdout, stderr = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = self.cli.run(command, cfg, str(out_dir))
        except Exception as exc:    # a raising invocation counts as failed
            self._record(label, [], [f"raised {exc!r}"])
            return time.perf_counter() - t0
        elapsed = time.perf_counter() - t0
        verdict, wrong = [], []
        fails = [l for l in stdout.getvalue().splitlines()
                 if l.endswith(" FAIL")]
        if code not in (0, 1):
            wrong.append(f"exit {code} {stderr.getvalue().strip()}")
        elif code == 1 or fails:
            verdict.append(f"exit {code} {fails[:1]}")
        csvs = {p.name: p.read_bytes() for p in sorted(out_dir.glob("*.csv"))}
        if csvs != self.first_csvs.setdefault(label, csvs):
            wrong.append("CSV differs from the first pass")
        self.outputs[label] = key_outputs(out_dir)
        if self.reference is not None:
            want = self.reference.get(label)
            bad = ("no reference" if want is None else
                   reference_mismatch(self.outputs[label], want))
            if bad:
                wrong.append(bad)
        self._record(label, verdict, wrong)
        return elapsed

    def _record(self, label, verdict, wrong):
        if verdict or wrong:
            self.failed += 1
            self.unverified += bool(wrong)
            if len(self.problems) < 10:
                self.problems.append(f"{label}: {'; '.join(verdict + wrong)}")


def run_pass(checker, invocations):
    """One pass over the workload; returns the summed invocation time."""
    gc.collect()
    return sum(checker.invoke(label, command, cfg)
               for label, command, cfg in invocations)


def parse_invocations(cli, specs):
    """[(label, command, parsed config)] from (command, text) pairs."""
    return [(f"{i}:{command}", command, cli.parse_config_text(text))
            for i, (command, text) in enumerate(specs)]


def load_reference(workload, seed):
    ref = json.loads(REFERENCE.read_text())
    return ref["workloads"][workload].get(str(seed))


# ----------------------------------------------------------------------
# tracing: spans around the public functions of each module

LAYERS = {
    "ads_model": ("build_model", "fd_mode_frequencies", "dual_boundary_map",
                  "boundary_bump", "bulk_bump", "one_particle_map",
                  "propagator_apply", "uc_scan"),
    "holography": ("boundary_dictionary", "bulk_generators",
                   "run_inclusion", "run_weyl_convergence"),
    "phase_core": ("eta_projector", "inclusion_check",
                   "kahler_from_covariance"),
    "ccr_fock": ("fock_rep", "annihilation", "segal_field", "weyl_operator",
                 "strong_convergence_test"),
    "cli": ("run", "write_csv", "write_report"),
}
CLI_COMMANDS = ("check-all", "modes", "propagator", "ccr-verify",
                "kw-verify", "holo-inclusion", "uc-scan", "weyl-convergence")

# a number noted on a span from its arguments or result, for derived counts
NOTES = {
    "holography.boundary_dictionary": lambda args, res: len(res),
    "holography.run_inclusion": lambda args, res: len(res.rungs),
    "ccr_fock.fock_rep": lambda args, res: res.dim,
    "ccr_fock.weyl_operator": lambda args, res: 16 * args[0].dim ** 2,
}


def span_names():
    names = []
    for module, functions in LAYERS.items():
        for fn in functions:
            if (module, fn) == ("cli", "run"):
                names += [f"cli.run.{c}" for c in CLI_COMMANDS]
            else:
                names.append(f"{module}.{fn}")
    return names


class Tracer:
    """Keeps spans [name, parent index, start, end, note, raised] in memory.

    Modules look up each other's functions, and their own, as module
    attributes at call time, so replacing the attributes catches nested
    calls too.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, module, fn_name, fn):
        note = NOTES.get(f"{module}.{fn_name}")

        @wraps(fn)
        def traced(*args, **kwargs):
            name = (f"cli.run.{args[0]}" if (module, fn_name) == ("cli", "run")
                    else f"{module}.{fn_name}")
            span = [name, self._open[-1] if self._open else None,
                    time.perf_counter(), None, None, False]
            self._open.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if note is not None:
                span[4] = note(args, result)
            return result
        return traced

    @contextmanager
    def installed(self, modules):
        saved = []
        try:
            for module, functions in LAYERS.items():
                mod = modules[module]
                for fn_name in functions:
                    orig = getattr(mod, fn_name, None)
                    if orig is None:    # a removed function makes no calls
                        continue
                    saved.append((mod, fn_name, orig))
                    setattr(mod, fn_name, self.wrap(module, fn_name, orig))
            yield self
        finally:
            for mod, fn_name, orig in saved:
                setattr(mod, fn_name, orig)


def summarize(spans):
    """(count metrics, self seconds per span name, seconds inside top-level
    spans, smallest self time of one span) for the spans of one pass."""
    child = [0.0] * len(spans)
    root = list(range(len(spans)))
    for i, (_, parent, t0, t1, _, _) in enumerate(spans):
        if parent is not None:
            child[parent] += t1 - t0
            root[i] = root[parent]
    calls, self_s, notes, dict_max = {}, {}, {}, {}
    errors = dict.fromkeys(LAYERS, 0)
    min_self = 0.0
    for i, (name, _, t0, t1, note, raised) in enumerate(spans):
        own = (t1 - t0) - child[i]
        min_self = min(min_self, own)
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        errors[name.split(".")[0]] += raised
        if note is not None:
            notes.setdefault(name, []).append(note)
            if name == "holography.boundary_dictionary":
                dict_max[root[i]] = max(dict_max.get(root[i], 0), note)
    built = sum(notes.get("holography.boundary_dictionary", ()))
    rungs = sum(notes.get("holography.run_inclusion", ()))
    checks = calls.get("phase_core.inclusion_check", 0)
    counts = {f"{n}.calls": calls.get(n, 0) for n in span_names()}
    counts.update({f"{m}.errors": e for m, e in errors.items()})
    counts.update({
        # useful work is one dictionary at the top size per invocation
        "holography.dict_elems_built": built,
        "holography.dict_reuse_ratio":
            sum(dict_max.values()) / built if built else 0.0,
        "phase_core.inclusion_checks_per_rung": checks / rungs if rungs else 0.0,
        "ccr_fock.fock_dim_max": max(notes.get("ccr_fock.fock_rep", [0])),
        "ccr_fock.weyl_dense_bytes":
            sum(notes.get("ccr_fock.weyl_operator", ())),
    })
    top = sum(t1 - t0 for _, parent, t0, t1, _, _ in spans if parent is None)
    return counts, self_s, top, min_self


# ----------------------------------------------------------------------
# measurement

SETUP_CODE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
from adsholo import cli
for text in json.loads(sys.argv[2]):
    cli.parse_config_text(text)
print(time.monotonic())
"""


def measure_setup(specs):
    """Median seconds from launching a fresh interpreter until adsholo.cli
    is imported and the workload's configs are parsed and validated."""
    texts = json.dumps([text for _, text in specs])
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), texts],
            capture_output=True, text=True, check=True, timeout=60)
        if i:       # the first launch also compiles bytecode; not counted
            samples.append(float(done.stdout.strip()) - t0)
    return statistics.median(samples), samples


def wall_summary(samples):
    """Median, count and the highest percentile with >= 10 samples beyond."""
    s = sorted(samples)
    out = {"median": statistics.median(s), "n": len(s), "samples": samples}
    if len(s) >= 20:
        p = math.floor(100 * (1 - 10 / len(s)))
        out[f"p{p}"] = s[math.ceil(p / 100 * len(s)) - 1]
    return out


def untraced_run(checker, invocations, seconds):
    """Pass times after one warm-up pass: at least MIN_PASSES, then while
    another pass fits in the time budget."""
    run_pass(checker, invocations)
    start = time.perf_counter()
    walls = []
    while len(walls) < MIN_PASSES or (time.perf_counter() - start
                                      + statistics.median(walls) <= seconds):
        walls.append(run_pass(checker, invocations))
    return walls


def traced_run(checker, modules, invocations, seconds):
    """Pairs of one untraced and one traced pass, in alternating order,
    after one warm-up pass: at least one pair, then while another pair fits
    in the time budget."""
    run_pass(checker, invocations)
    start = time.perf_counter()
    untraced, traced, summaries = [], [], []
    while True:
        tracer = Tracer()
        for trace in (False, True) if len(traced) % 2 == 0 else (True, False):
            if trace:
                with tracer.installed(modules):
                    traced.append(run_pass(checker, invocations))
            else:
                untraced.append(run_pass(checker, invocations))
        summaries.append(summarize(tracer.spans))
        pair = statistics.median(u + t for u, t in zip(untraced, traced))
        if time.perf_counter() - start + pair > seconds:
            return untraced, traced, summaries


def environment(seed):
    import numpy as np
    import scipy

    def blas(show_config):
        dep = show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep['name']} {dep['version']}"
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "numpy_blas": blas(np.show_config),
            "scipy_blas": blas(scipy.show_config), "nproc": NPROC,
            "blas_threads": BLAS_THREADS, "seed": seed}


def import_program():
    """adsholo from this checkout's src/; exits with a message if absent."""
    sys.path.insert(0, str(SRC))
    try:
        from adsholo import ads_model, ccr_fock, cli, holography, phase_core
    except ImportError as exc:
        raise SystemExit(f"cannot import adsholo from {SRC}: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"adsholo imported from {cli.__file__}, not {SRC}")
    return cli, {"ads_model": ads_model, "ccr_fock": ccr_fock, "cli": cli,
                 "holography": holography, "phase_core": phase_core}


def end_to_end_metrics(checker, invocations, specs, seconds):
    setup, setup_samples = measure_setup(specs)
    walls = untraced_run(checker, invocations, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print("wall_s " + json.dumps(wall_summary(walls)))
    print("setup_s samples " + json.dumps(setup_samples))
    metrics = {
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MiB"},
    }
    return metrics


def trace_metrics(modules, checker, invocations, seconds):
    untraced, traced, summaries = traced_run(checker, modules, invocations,
                                             seconds)
    counts = summaries[0][0]
    ok = True
    if any(s[0] != counts for s in summaries[1:]):
        print("count metrics differ between traced passes")
        ok = False
    # self times plus the time outside every span must give the pass time
    remainders = [wall - top for wall, (_, _, top, _) in zip(traced, summaries)]
    for wall, rem, (_, self_s, _, min_self) in zip(traced, remainders,
                                                   summaries):
        total = sum(self_s.values()) + rem
        if min_self < 0 or rem < 0 or abs(total - wall) > 1e-6:
            print(f"self times + remainder {total!r} != pass time {wall!r}")
            ok = False

    metrics = {}
    for name, value in counts.items():
        unit = "bytes_computed" if name.endswith("dense_bytes") else (
            "ratio" if "ratio" in name or "per_rung" in name else "count")
        metrics[name] = {"value": value, "unit": unit}
        if name.endswith(".calls"):
            span = name[:-len(".calls")]
            metrics[f"{span}.self_s"] = {
                "value": statistics.median(s[1].get(span, 0.0)
                                           for s in summaries),
                "unit": "s"}
    untraced_s = statistics.median(untraced)
    traced_s = statistics.median(traced)
    metrics.update({
        "trace.untraced_wall_s": {"value": untraced_s, "unit": "s"},
        "trace.traced_wall_s": {"value": traced_s, "unit": "s"},
        "trace.overhead_s": {"value": traced_s - untraced_s, "unit": "s"},
        "trace.remainder_s": {"value": statistics.median(remainders),
                              "unit": "s"},
    })
    print(f"passes untraced {len(untraced)} traced {len(traced)}")
    return metrics, ok


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    cli, modules = import_program()
    specs = WORKLOADS[args.workload].invocations(args.seed)
    invocations = parse_invocations(cli, specs)
    reference = load_reference(args.workload, args.seed)
    print("env " + json.dumps(environment(args.seed)))
    print(f"workload {args.workload}: {WORKLOADS[args.workload].why}")
    print(f"reference check: {'on' if reference else 'off (seed not stored)'}")

    with tempfile.TemporaryDirectory(prefix=".bench_out-", dir=ROOT) as tmp:
        checker = Checker(cli, tmp, reference)
        if args.trace:
            metrics, ok = trace_metrics(modules, checker, invocations,
                                        args.seconds)
        else:
            metrics, ok = end_to_end_metrics(checker, invocations, specs,
                                             args.seconds), True

    print(f"fail_ratio {checker.failed}/{checker.attempted}")
    for problem in checker.problems:
        print(f"failed: {problem}")
    print(json.dumps({"correct": ok and checker.unverified == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

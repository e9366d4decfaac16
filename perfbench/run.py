"""Benchmark of the trotter_shuffle experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One closed-loop client in one process drives the package in process through
experiments.run + experiments.emit, one repetition after another, for S
seconds. Every repetition's CSV is checked outside the timed region (see
check.py); the first repetition is a warm-up and is also recomputed with
independent kernels.

--trace 0 prints the end-to-end metrics: trials_per_s (median over
repetitions), setup_s (median over fresh interpreters) and peak_rss_mb (a
fresh process running one repetition). --trace 1 alternates untraced and
traced repetitions and prints the per-layer metrics (see tracer.py). The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 15
# Calibration seconds of the machine at full speed; a repetition's rate is
# scaled by (calibration seconds measured around it) / CALIBRATION_REF_S.
CALIBRATION_REF_S = 0.020
# Wall seconds of a bare interpreter start at full speed; each setup probe is
# scaled by BARE_START_REF_S / (bare starts measured just before and after it).
BARE_START_REF_S = 0.050
MIN_REPS = 3  # warm-up plus, in traced runs, one untraced and one traced
PROBE_TIMEOUT_S = 120
UNITS = {"trials_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    from tracer import unit_of as layer_unit
    return UNITS.get(metric) or layer_unit(metric)


def _load_package():
    """Import trotter_shuffle from this checkout's src, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import trotter_shuffle
    except ImportError as exc:
        raise SystemExit(f"cannot import trotter_shuffle from {SRC}: {exc}") from exc
    if not Path(trotter_shuffle.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"trotter_shuffle was imported from {trotter_shuffle.__file__}, "
                         f"not from {SRC}")


def _git_commit() -> str:
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
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name", "unknown"),
            "blas_version": blas.get("version", "unknown"), "blas_threads": NPROC,
            "nproc": NPROC, "cpu": _cpu_model(), "commit": _git_commit(), "seed": seed}


def _bare_start_s() -> float:
    """Wall seconds of starting and stopping a bare interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], timeout=PROBE_TIMEOUT_S, check=True)
    return time.perf_counter() - t0


def _probe(mode: str, doc: dict) -> dict:
    """Run child.py in a fresh interpreter and return its JSON result."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, str(HERE / "child.py"), mode, json.dumps(doc)],
                          capture_output=True, text=True, env=env, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Calibration:
    """A fixed mix of interpreter loops, small complex matmuls and batched
    SVDs, like the package's own work. Calling it returns the seconds it took,
    which track how fast the shared machine runs at that moment."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.mats = np.random.default_rng(0).standard_normal((2000, 2, 2)) + 0j

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        p = np.eye(2, dtype=np.complex128)
        for m in self.mats:
            p = p @ m
            p /= np.abs(p).max()
        total = 0
        for i in range(100_000):
            total += i * i
        np.linalg.svd(self.mats, compute_uv=False)
        return time.perf_counter() - t0


def repetition(doc: dict, deep: bool, tracer=None):
    """One experiments.run + experiments.emit of `doc`, then the output check.

    Returns (run seconds, emit seconds, error messages, parsed rows)."""
    import check
    from trotter_shuffle import experiments
    cfg = experiments.ExperimentConfig.from_dict(doc)
    with tracer if tracer is not None else contextlib.nullcontext():
        t0 = time.perf_counter()
        report = experiments.run(cfg)
        t1 = time.perf_counter()
        path = experiments.emit(report, cfg.out_path)
        t2 = time.perf_counter()
    errors, recs = check.check_output(doc, path)
    if deep:
        errors += check.recompute(doc, path)
    return t1 - t0, t2 - t1, errors, recs


def measure(workload: str, seed: int, seconds: float, traced: bool,
            docs=None) -> dict:
    """The closed loop: a warm-up repetition, then repetitions until `seconds`
    of wall time have passed and the pooled check has its trials. Traced runs
    trace every second repetition.

    `docs(rep)` gives the config of repetition `rep` (default: the workload's
    config with a seed derived from `seed`). Operations attempted are the
    repetitions plus, for converge and evolution, the pooled check."""
    import check
    from tracer import Tracer
    from workloads import config_doc, rep_seed, trials_per_rep
    out_csv = OUT / f"{workload}-{os.getpid()}.csv"
    if docs is None:
        def docs(rep):
            return config_doc(workload, rep_seed(seed, rep), str(out_csv))
    kind, trials = docs(0)["kind"], docs(0)["trials"]
    pooled = kind in check.SHRINKING
    min_reps = max(MIN_REPS, 1 + math.ceil(check.POOLED_TRIALS / trials) if pooled else 0)
    tracer = Tracer() if traced else None
    calibration = Calibration()
    cal_before = calibration()
    rates, raw_rates, recs = [], [], []
    run_s_by_traced = {False: [], True: []}  # calibrated experiments.run seconds
    attempted = failed = traced_reps = rep = 0
    deadline = math.inf
    while rep < min_reps or time.perf_counter() < deadline:
        doc = docs(rep)
        use_tracer = traced and rep > 0 and rep % 2 == 0
        try:
            run_s, emit_s, errors, rows = repetition(
                doc, deep=rep == 0, tracer=tracer if use_tracer else None)
        except Exception:  # noqa: BLE001 - a raising repetition is a failed op
            traceback.print_exc()
            errors, rows = ["raised"], []
        cal_after = calibration()
        speed = (cal_before + cal_after) / 2 / CALIBRATION_REF_S
        attempted += 1
        recs += rows
        if errors:
            failed += 1
            print(f"repetition {rep} failed: {'; '.join(errors[:5])}", file=sys.stderr)
        elif rep > 0:
            run_s_by_traced[use_tracer].append(run_s / speed)
            if not use_tracer:
                raw_rates.append(trials_per_rep(doc) / (run_s + emit_s))
                rates.append(raw_rates[-1] * speed)
        cal_before = cal_after
        traced_reps += use_tracer
        if rep == 0:
            deadline = time.perf_counter() + seconds
        rep += 1
    if pooled:
        errors = check.check_pooled(kind, recs)
        attempted += 1
        if errors:
            failed += 1
            print(f"pooled check failed: {'; '.join(errors)}", file=sys.stderr)
    for path in (out_csv, out_csv.with_suffix(".json")):
        path.unlink(missing_ok=True)
    return {"rates": rates, "raw_rates": raw_rates, "run_s": run_s_by_traced,
            "attempted": attempted, "failed": failed, "tracer": tracer,
            "traced_reps": traced_reps}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        v = values[0] if values else math.nan
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from workloads import config_doc
    doc = config_doc(workload, seed, str(OUT / f"{workload}-{os.getpid()}-probe.csv"))
    raw_setups, setups = [], []
    bare_before = _bare_start_s()
    for _ in range(SETUP_PROBES):
        raw_setups.append(_probe("setup", doc)["setup_s"])
        bare_after = _bare_start_s()
        setups.append(raw_setups[-1] * BARE_START_REF_S / ((bare_before + bare_after) / 2))
        bare_before = bare_after
    rss = _probe("rss", doc)["peak_rss_mb"]
    for path in (Path(doc["out_path"]), Path(doc["out_path"]).with_suffix(".json")):
        path.unlink(missing_ok=True)
    res = measure(workload, seed, seconds, traced=False)
    q1, med, q3 = _quartiles(res["rates"])
    sq1, smed, sq3 = _quartiles(setups)
    _, raw_smed, _ = _quartiles(raw_setups)
    rq1, rmed, rq3 = _quartiles(res["raw_rates"])
    print(f"trials_per_s {med:.4f} 1/s (median of {len(res['rates'])} repetitions; "
          f"q1 {q1:.4f}, q3 {q3:.4f}; wall-clock before calibration: median {rmed:.4f}, "
          f"q1 {rq1:.4f}, q3 {rq3:.4f})")
    print(f"setup_s {smed:.4f} s (median of {len(setups)} fresh interpreters; "
          f"q1 {sq1:.4f}, q3 {sq3:.4f}; wall-clock before calibration: median {raw_smed:.4f})")
    print(f"peak_rss_mb {rss:.2f} MB (one fresh process, one repetition)")
    return {"trials_per_s": med, "setup_s": smed, "peak_rss_mb": rss}, res


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from tracer import per_layer_metrics, share
    from workloads import DOMINANT
    res = measure(workload, seed, seconds, traced=True)
    tracer = res["tracer"]
    metrics = per_layer_metrics(tracer, res["traced_reps"])
    untraced, traced = (statistics.median(res["run_s"][t] or [math.nan]) for t in (False, True))
    metrics["trace.overhead_ratio"] = traced / untraced - 1.0
    tracer.write(OUT / f"trace-{workload}-seed{seed}.jsonl")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    parts = DOMINANT[workload]
    print(f"stated dominant layers {' + '.join(parts)}: self-time share "
          f"{share(tracer.spans, parts):.3f}, with the linalg kernels they call "
          f"{share(tracer.spans, parts, fold_linalg=True):.3f}")
    return metrics, res


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    _load_package()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    measure_fn = per_layer if args.trace else end_to_end
    metrics, res = measure_fn(args.workload, args.seed, args.seconds)
    if not all(math.isfinite(v) for v in metrics.values()):
        print("no repetition succeeded, so the metrics are undefined", file=sys.stderr)
        return 1
    print(f"ops_failed {res['failed'] / res['attempted']:.4f} ratio "
          f"({res['failed']} of {res['attempted']} operations)")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": unit_of(k)}
                                  for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

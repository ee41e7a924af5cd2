"""dcsam benchmark: one closed-loop client per workload, driving the public API.

    python3 perfbench/run.py --workload {train,eval,tube} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
``src/``. Each workload runs in this one process as a closed loop: the next
operation starts only when the previous one has returned.

* ``train``: one ``trainer.train`` call per operation at ``configs/default.cfg``
  (fold 0, batch 32, canvas 16) with ``steps = 1``. The tape kernel does most
  of the work, so batching and tape changes show here first.
* ``eval``: one ``trainer.evaluate`` call per operation on fold 0's held-out
  classes, four episodes per class. Same forward layers, no tape, backward or
  optimizer; adds the metrics.
* ``tube``: per operation ``video.make_tube`` (canvas 32, 32 frames), then
  ``video.propagate_first_frame``, then ``metrics.jf_score``. Prompts are
  generated once per tube; per-frame encode and decode dominate.

Each operation of op index i uses ``seeding.derive_seed(seed, workload, 0, i)``
as its config seed; fixed parameters come from ``init_params`` in memory with
``derive_seed(seed, workload, 1)``.

With ``--trace 0`` the run measures for ``--seconds`` (and at least enough
operations for its tail percentile) and reports end-to-end metrics. The
latency unit is a train step, an eval episode or a tube frame; throughput
counts train episodes, eval episodes or tube frames per second of operation
time. ``setup_s`` is the median over fresh processes of imports, config,
encoder, parameters and one checkpoint save and load.

Times are scaled to a nominal machine speed. On a shared host the speed of a
core drifts by up to a quarter within minutes, which would swamp a change
under test. A fixed NumPy kernel that does not use dcsam (``Calibration``)
is timed after every operation; each operation's wall time is multiplied by
``CAL_NOMINAL_S`` over the mean of the kernel times on either side of it.
The raw wall-clock medians and the kernel's median are printed as well.

With ``--trace 1`` the run performs a fixed number of operations untraced,
then the same operations traced, checks that both give bitwise-equal
outputs, and reports per-layer calls and self time per latency unit, the
per-op-kind tensor call counts, the cycle-bias keep fraction and the tracing
overhead. Spans go to ``.perfbench/trace-<workload>-seed<seed>.json``.

Every run first repeats the default-seed operations recorded in
``perfbench/reference.json`` and compares their outputs; a program error or
a failed check counts as a failed operation. The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--record-reference`` rewrites the reference file from the current code.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "default.cfg"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

# Set to 1 before NumPy loads (NumPy and dcsam are imported only from main
# on): the evaluation pool and OpenBLAS both add threads otherwise, and the
# extra threads make eval slower, not faster.
THREAD_VARS = ("DCSAM_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_IDS = {"train": 1, "eval": 2, "tube": 3}
DEFAULT_SEED = 0
REFERENCE_OPS = 3
SETUP_PROBES = 7
TUBE_CANVAS = 32
TUBE_FRAMES = 32
EVAL_EPISODES_PER_CLASS = 4
# Combined BCE + Dice is at most -log(1e-7) (clamped BCE) plus 1 (Dice).
LOSS_MAX = -math.log(1e-7) + 1.0
# Calibration kernel time on the host the benchmark was tuned on, when quiet.
CAL_NOMINAL_S = 0.002
# Admits reordered float sums (about 1e-13 relative here); a changed
# computation moves these outputs by far more.
REFERENCE_REL_TOL = 1e-7

LAYERS = [
    ("trainer.train", "trainer", "train"),
    ("trainer.evaluate", "trainer", "evaluate"),
    ("video.propagate_first_frame", "video", "propagate_first_frame"),
    ("tensor.grad", "tensor", "grad"),
    ("attention.cycle_consistent_attention", "attention", "cycle_consistent_attention"),
    ("attention.cross_attention", "attention", "cross_attention"),
    ("attention.self_attention", "attention", "self_attention"),
    ("attention.cycle_bias", "attention", "cycle_bias"),
    ("pipeline.generate_prompts", "pipeline", "generate_prompts"),
    ("pipeline.prior_mask", "pipeline", "prior_mask"),
    ("encoder.encode", "encoder", "StubEncoder.encode"),
    ("decoder.decode", "decoder", "decode"),
    ("episodes.gen_episode", "episodes", "gen_episode"),
    ("losses.total_loss", "losses", "total_loss"),
    ("trainer.AdamW.step", "trainer", "AdamW.step"),
    ("metrics.iou", "metrics", "iou"),
    ("metrics.boundary_f", "metrics", "boundary_f"),
    ("metrics.jf_score", "metrics", "jf_score"),
    ("video.make_tube", "video", "make_tube"),
    ("video.warp", "video", "warp"),
]
SETUP_LAYERS = [
    ("trainer.save_checkpoint", "trainer", "save_checkpoint"),
    ("trainer.load_checkpoint", "trainer", "load_checkpoint"),
]
BIAS_LAYER = "attention.cycle_bias"
# Public ops of dcsam.tensor with a count each; any further public op still
# enters the total.
TENSOR_OPS = [
    "zeros", "detach", "binarize", "add", "sub", "mul", "div", "neg", "add_scalar",
    "scale", "matmul", "transpose", "reshape", "concat_channels", "tile_spatial",
    "add_rowvec", "sum_all", "exp", "log", "sigmoid", "clamp", "logsumexp0",
    "masked_softmax_rows", "conv1x1",
]
TENSOR_NON_OPS = {"Tensor", "GradTape", "grad", "as_tensor"}


class Calibration:
    """Wall time of a fixed NumPy kernel, independent of dcsam: small-array
    dispatch like the tensor kernel's, then one pass over 2 MB, the mix whose
    speed tracked the workloads' best on a shared host."""

    def __init__(self):
        import numpy as np
        self.np = np
        self.small = np.linspace(0.0, 1.0, 36 * 16).reshape(36, 16)
        self.square = np.linspace(-1.0, 1.0, 16 * 16).reshape(16, 16)
        self.large = np.linspace(0.0, 1.0, 1024 * 256).reshape(1024, 256)

    def __call__(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        for _ in range(25):
            s = (self.small @ self.square) @ self.small.T
            e = np.exp(s - s.max(axis=1, keepdims=True))
            (e / e.sum(axis=1, keepdims=True)).sum()
        np.tanh(self.large).sum()
        return time.perf_counter() - t0


class CheckFailed(Exception):
    """An output of the program is out of range or differs from its reference."""


def load_api():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "dcsam" / "__init__.py").is_file() or not CONFIG.is_file():
        raise SystemExit(f"error: run from a dcsam source checkout ({SRC / 'dcsam'} and "
                         f"{CONFIG} are required)")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import dcsam
    from dcsam import (config, episodes, errors, metrics, pipeline, seeding, tensor,
                       trainer, video)
    if Path(dcsam.__file__).resolve().parent != (SRC / "dcsam").resolve():
        raise SystemExit(f"error: imported dcsam from {dcsam.__file__}, not {SRC}")
    return dict(config=config, episodes=episodes, errors=errors, metrics=metrics,
                pipeline=pipeline, seeding=seeding, tensor=tensor, trainer=trainer,
                video=video)


def make_state(api: dict, workload: str, seed: int) -> dict:
    """Config, fold 0, encoder and parameters (from init_params, in memory)."""
    cfg = api["config"].load_config(CONFIG)
    fold = api["episodes"].split_folds(api["episodes"].class_registry(), 0)
    pcfg = cfg.pipeline_config()
    params_seed = api["seeding"].derive_seed(seed, WORKLOAD_IDS[workload], 1)
    return dict(cfg=cfg, fold=fold, pcfg=pcfg, encoder=pcfg.encoder(params_seed),
                params=api["pipeline"].init_params(pcfg, params_seed))


def round_trip(api: dict, state: dict):
    """One checkpoint save and load; returns (bytes written, loaded params)."""
    WORK.mkdir(exist_ok=True)
    ckpt = Path(tempfile.mkdtemp(prefix="ckpt-", dir=WORK))
    try:
        api["trainer"].save_checkpoint(ckpt, state["params"], state["cfg"], 0)
        nbytes = sum(p.stat().st_size for p in ckpt.iterdir())
        loaded, _, _ = api["trainer"].load_checkpoint(ckpt)
    finally:
        shutil.rmtree(ckpt, ignore_errors=True)
    return nbytes, loaded


def setup(workload: str, seed: int):
    """Imports, config, encoder, parameters, one checkpoint save and load."""
    api = load_api()
    state = make_state(api, workload, seed)
    _, state["loaded"] = round_trip(api, state)
    return api, state


def check_round_trip(state: dict) -> None:
    # Checkpoints may store float32; the loaded copy is checked, not used.
    import numpy as np
    saved, loaded = state["params"].named(), state["loaded"].named()
    for name, t in saved.items():
        if loaded[name].shape != t.shape or not np.allclose(loaded[name].data, t.data,
                                                            rtol=1e-6, atol=1e-6):
            raise CheckFailed(f"checkpoint round trip changed {name}")


# -- workloads ----------------------------------------------------------------

class Workload:
    """One closed-loop client. ``prepare`` builds op i's inputs (untimed),
    ``run`` is the timed operation, ``check`` validates its outputs.

    Subclasses set ``name``; ``unit``, what one latency sample is normalised
    to; ``items``, what throughput counts; ``tail_pct``, fixed so that runs
    and commits stay comparable; and ``trace_ops``, the ops of a traced run.
    """

    items_per_unit = 1

    def __init__(self, api: dict, state: dict, seed: int):
        self.api, self.state, self.seed = api, state, seed
        self.wid = WORKLOAD_IDS[self.name]

    def op_seed(self, i: int) -> int:
        return self.api["seeding"].derive_seed(self.seed, self.wid, 0, i)

    def check_range(self, values, lo: float, hi: float) -> None:
        for v in values:
            if not (math.isfinite(v) and lo <= v <= hi):
                raise CheckFailed(f"{self.name}: output {v!r} outside [{lo}, {hi}]")


class Train(Workload):
    name, unit, items = "train", "step", "episodes"
    tail_pct = 75.0
    trace_ops = 4

    def __init__(self, api, state, seed):
        super().__init__(api, state, seed)
        self.cfg = dataclasses.replace(state["cfg"], steps=1)
        self.items_per_unit = self.cfg.batch

    def prepare(self, i):
        return dataclasses.replace(self.cfg, seed=self.op_seed(i))

    def run(self, cfg):
        result = self.api["trainer"].train(cfg, self.state["fold"])
        return tuple(result.losses), cfg.steps, None

    def check(self, cfg, values, extra):
        if len(values) != cfg.steps:
            raise CheckFailed(f"train returned {len(values)} losses for {cfg.steps} steps")
        self.check_range(values, 0.0, LOSS_MAX)


class Eval(Workload):
    name, unit, items = "eval", "episode", "episodes"
    tail_pct = 90.0
    trace_ops = 15

    def prepare(self, i):
        return dataclasses.replace(self.state["cfg"], seed=self.op_seed(i))

    def run(self, cfg):
        fold = self.state["fold"]
        rep = self.api["trainer"].evaluate(self.state["params"], cfg, fold,
                                           episodes_per_class=EVAL_EPISODES_PER_CLASS)
        units = EVAL_EPISODES_PER_CLASS * len(fold.test_classes)
        per_class = tuple(rep.per_class_iou[c] for c in sorted(rep.per_class_iou))
        return (rep.miou, rep.j, rep.f, rep.jf) + per_class, units, None

    def check(self, cfg, values, extra):
        self.check_range(values, 0.0, 1.0)


class Tube(Workload):
    name, unit, items = "tube", "frame", "frames"
    tail_pct = 90.0
    trace_ops = 16

    def prepare(self, i):
        s = self.op_seed(i)
        episodes = self.api["episodes"]
        ep = episodes.gen_episode(s % episodes.CLASS_COUNT, s, (TUBE_CANVAS, TUBE_CANVAS))
        return ep, s

    def run(self, prepared):
        ep, s = prepared
        video, st = self.api["video"], self.state
        tube = video.make_tube(ep, TUBE_FRAMES, s)
        pred = video.propagate_first_frame(tube, ep.support_img, ep.support_mask,
                                           st["params"], st["pcfg"], st["encoder"])
        rep = self.api["metrics"].jf_score(pred, tube)
        # The client reads every predicted mask: total foreground pixels.
        area = float(sum(m.data.sum() for m in pred.masks))
        return (rep.j, rep.f, rep.jf, area), len(tube), pred.masks[0]

    def check(self, prepared, values, first_mask):
        self.check_range(values[:3], 0.0, 1.0)
        self.check_range(values[3:], 0.0, TUBE_FRAMES * TUBE_CANVAS * TUBE_CANVAS)
        ep, _ = prepared
        st = self.state
        probs = self.api["pipeline"].infer_mask(ep.support_img, ep.support_mask, ep.query_img,
                                                st["params"], st["pcfg"], st["encoder"])
        expect = self.api["tensor"].binarize(probs)
        if not (expect.data == first_mask.data).all():
            raise CheckFailed("tube frame 0 differs from binarize(infer_mask(...))")


WORKLOADS = {w.name: w for w in (Train, Eval, Tube)}


# -- running ------------------------------------------------------------------

class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, err: BaseException) -> None:
        self.failed += 1
        print(f"FAILED {what}: {type(err).__name__}: {err}", file=sys.stderr)


def program_errors(api: dict) -> tuple[type, ...]:
    return (api["errors"].DcsamError, ValueError, ArithmeticError)


def run_ops(wl: Workload, indices, tally: Tally, deadline: float | None = None,
            min_ops: int = 0, tracer=None, calibration: Calibration | None = None) -> dict:
    """Run and check operations closed-loop; returns {i: (values, units,
    seconds, cal_seconds)} for those that returned and passed their checks.

    With a deadline, runs until it has passed and at least ``min_ops`` ran.
    Input generation, calibration and checks stay outside the timed (and
    traced) region. ``cal_seconds`` is the mean calibration time on either
    side of the op, or ``CAL_NOMINAL_S`` without a calibration.
    """
    errors = program_errors(wl.api) + (CheckFailed,)
    done = {}
    last_cal = calibration() if calibration else CAL_NOMINAL_S
    for n, i in enumerate(indices):
        if deadline is not None and time.perf_counter() >= deadline and n >= min_ops:
            break
        tally.attempted += 1
        try:
            prepared = wl.prepare(i)
            with tracer.tracing(i) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                values, units, extra = wl.run(prepared)
                seconds = time.perf_counter() - t0
            cal = calibration() if calibration else CAL_NOMINAL_S
            cal_seconds, last_cal = 0.5 * (last_cal + cal), cal
            wl.check(prepared, values, extra)
        except errors as err:
            tally.fail(f"{wl.name} op {i}", err)
            continue
        done[i] = (values, units, seconds, cal_seconds)
    return done


def reference_values(wl: Workload, tally: Tally) -> list:
    ref_wl = type(wl)(wl.api, make_state(wl.api, wl.name, DEFAULT_SEED), DEFAULT_SEED)
    done = run_ops(ref_wl, range(REFERENCE_OPS), tally)
    return [list(done[i][0]) if i in done else None for i in range(REFERENCE_OPS)]


def check_reference(wl: Workload, tally: Tally) -> None:
    """Warm-up and regression check: the default-seed ops against the record."""
    expected = json.loads(REFERENCE.read_text())[wl.name]
    got = reference_values(wl, tally)
    for i, (exp, out) in enumerate(zip(expected, got)):
        if out is None:
            continue    # already tallied as failed
        if len(exp) != len(out) or not all(
                math.isclose(a, b, rel_tol=REFERENCE_REL_TOL, abs_tol=1e-9)
                for a, b in zip(exp, out)):
            tally.fail(f"{wl.name} reference op {i}",
                       CheckFailed(f"got {out}, recorded {exp}"))


def percentile(samples: list[float], pct: float) -> float:
    import numpy as np
    return float(np.percentile(samples, pct))


def setup_probe_seconds(workload: str, seed: int) -> list[tuple[float, float]]:
    """(set-up, calibration) seconds of fresh processes, each timed from inside."""
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        out.append((probe["setup_s"], probe["cal_s"]))
    return out


def environment(api: dict) -> dict:
    import numpy as np
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "host": platform.node(), "machine": platform.machine(),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": commit, "src_lines": src_lines,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def measure(wl: Workload, seconds: float, tally: Tally, probes) -> dict:
    min_ops = math.ceil(10.0 / (1.0 - wl.tail_pct / 100.0))
    calibration = Calibration()
    deadline = time.perf_counter() + seconds
    done = run_ops(wl, itertools.count(), tally, deadline=deadline, min_ops=min_ops,
                   calibration=calibration)
    if not done:
        raise SystemExit(f"error: no {wl.name} operation succeeded")
    recs = done.values()
    lat_ms = [1e3 * s * CAL_NOMINAL_S / cal / units for _v, units, s, cal in recs]
    busy_s = sum(s * CAL_NOMINAL_S / cal for _v, _u, s, cal in recs)
    items = sum(units for _v, units, _s, _c in recs) * wl.items_per_unit
    p50, tail = percentile(lat_ms, 50.0), percentile(lat_ms, wl.tail_pct)
    raw_ms = [1e3 * s / units for _v, units, s, _c in recs]
    cal_ms = 1e3 * statistics.median(cal for *_rest, cal in recs)
    setup_s = statistics.median(s * CAL_NOMINAL_S / cal for s, cal in probes)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(lat_ms)
    print(f"calibration kernel: median {cal_ms:.4f} ms, nominal {1e3 * CAL_NOMINAL_S:g} ms; "
          f"raw wall-clock p50 {percentile(raw_ms, 50.0):.4f} ms, "
          f"p{wl.tail_pct:g} {percentile(raw_ms, wl.tail_pct):.4f} ms")
    print(f"{wl.name}_{wl.unit}_ms_p50 = {p50:.4f} ms (n={n})")
    print(f"{wl.name}_{wl.unit}_ms_tail = {tail:.4f} ms (p{wl.tail_pct:g}, n={n})")
    print(f"{wl.name}_{wl.items}_per_s = {items / busy_s:.4f} 1/s (n={n}, {items} {wl.items})")
    print(f"setup_s = {setup_s:.4f} s (median of {SETUP_PROBES} processes, "
          f"raw {statistics.median(s for s, _c in probes):.4f} s)")
    print(f"peak_rss_mb = {peak_mb:.2f} MB")
    print(f"error_rate = {tally.failed / tally.attempted:.4f} "
          f"({tally.failed} of {tally.attempted} operations)")
    return {
        "latency_ms_p50": metric(p50, "ms"),
        "latency_ms_tail": metric(tail, "ms"),
        "throughput_per_s": metric(items / busy_s, "1/s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def trace(wl: Workload, tally: Tally, seed: int, env: dict) -> dict:
    from tracer import Tracer

    tensor = wl.api["tensor"]
    ops = [n for n in getattr(tensor, "__all__", [])
           if n not in TENSOR_NON_OPS and callable(getattr(tensor, n, None))]
    indices = range(wl.trace_ops)

    # Checkpoint spans: one traced save and load, as in set-up.
    setup_tracer = Tracer(SETUP_LAYERS)
    with setup_tracer.tracing("setup"):
        ckpt_bytes, _ = round_trip(wl.api, wl.state)

    # Alternate untraced and traced runs of each op, so that drift in the
    # machine's speed reaches both sides alike.
    tracer = Tracer(LAYERS, ops, BIAS_LAYER)
    plain, traced = {}, {}
    for i in indices:
        plain.update(run_ops(wl, [i], tally))
        traced.update(run_ops(wl, [i], tally, tracer=tracer))
    for i in indices:
        if i in plain and i in traced and plain[i][0] != traced[i][0]:
            tally.fail(f"{wl.name} op {i}",
                       CheckFailed(f"traced {traced[i][0]} != untraced {plain[i][0]}"))
    plain_s = sum(rec[2] for rec in plain.values())
    traced_s = sum(rec[2] for rec in traced.values())
    # A failed op leaves its calls in the counts but not its units; the run
    # is then marked incorrect, so its per-unit figures are not used.
    units = sum(rec[1] for rec in traced.values())
    if not units:
        raise SystemExit(f"error: no traced {wl.name} operation succeeded")

    out = {}
    totals = tracer.layer_totals()
    for name, *_ in LAYERS:
        calls, self_s = totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = metric(calls / units, "calls/unit")
        out[f"{name}.self_ms"] = metric(1e3 * self_s / units, "ms/unit")
    setup_totals = setup_tracer.layer_totals()
    for name, *_ in SETUP_LAYERS:
        calls, self_s = setup_totals.get(name, (0, 0.0))
        out[f"{name}.calls"] = metric(calls, "calls/setup")
        out[f"{name}.self_ms"] = metric(1e3 * self_s, "ms/setup")
    out["trainer.save_checkpoint.bytes"] = metric(ckpt_bytes, "B")
    out["tensor.op_calls"] = metric(sum(tracer.op_calls.values()) / units, "calls/unit")
    for op in TENSOR_OPS:
        out[f"tensor.op_calls.{op}"] = metric(tracer.op_calls[op] / units, "calls/unit")
    kept, scored = tracer.keep
    out["attention.cycle_bias.keep_frac"] = metric(kept / scored if scored else 0.0, "fraction")
    out["trace.overhead_pct"] = metric(100.0 * (traced_s / plain_s - 1.0), "%")

    absent = sorted(tracer.absent | setup_tracer.absent
                    | {op for op in TENSOR_OPS if op not in ops})
    print(f"traced {len(traced)} {wl.name} operations, {units} units; "
          f"untraced {plain_s:.3f} s, traced {traced_s:.3f} s; "
          f"{len(tracer.spans)} spans; absent: {', '.join(absent) or 'none'}")
    for name, m in out.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    WORK.mkdir(exist_ok=True)
    path = WORK / f"trace-{wl.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": wl.name, "seed": seed, "environment": env, "absent": absent,
        "metrics": out, "span_fields": ["name", "start_s", "end_s", "parent", "op"],
        "spans": tracer.spans, "setup_spans": setup_tracer.spans}) + "\n")
    print(f"spans written to {path.relative_to(ROOT)}")
    return out


def main(argv=None) -> int:
    for var in THREAD_VARS:
        os.environ[var] = "1"
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite perfbench/reference.json for this workload")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    if args.setup_probe:
        t0 = time.perf_counter()
        setup(args.workload, args.seed)
        setup_s = time.perf_counter() - t0
        calibration = Calibration()
        calibration()      # the first call pays one-time NumPy costs
        print(json.dumps({"setup_s": setup_s, "cal_s": calibration()}))
        return 0

    load_api()      # fails fast outside a source checkout
    probes = None
    if not args.trace and not args.record_reference:
        probes = setup_probe_seconds(args.workload, args.seed)
    api, state = setup(args.workload, args.seed)
    wl = WORKLOADS[args.workload](api, state, args.seed)
    tally = Tally()

    if args.record_reference:
        record = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        record[wl.name] = reference_values(wl, tally)
        REFERENCE.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        print(f"recorded {wl.name}: {record[wl.name]}")
        return 0 if tally.failed == 0 else 1

    env = environment(api)
    print("environment " + json.dumps(env, sort_keys=True))
    tally.attempted += 1
    try:
        check_round_trip(state)
    except CheckFailed as err:
        tally.fail("checkpoint", err)
    check_reference(wl, tally)
    if args.trace:
        metrics = trace(wl, tally, args.seed, env)
    else:
        metrics = measure(wl, args.seconds, tally, probes)
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

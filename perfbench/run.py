"""sessrec benchmark: training then evaluation, end to end and layer by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One run is one workload in one process, a closed loop: each training
step and each evaluation pass starts only after the previous one
completes.  The training phase drives ``harness.train_step`` over
batches in ``harness.train``'s shuffle order; the evaluation phase runs
``harness.evaluate`` over the held-out prefixes, loaded from the
checkpoint saved after the workload's fixed number of steps.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first trains
untraced, then patches sessrec's layers with the span tracer of
``tracer.py``, repeats the same steps and the evaluation, checks that
the loss sequence is byte-identical, writes the spans to
``perfbench/out`` and prints the per-layer metrics.  ``--workload all``
runs every workload untraced and traced, each in its own process.

Output checks run on every run and count toward ``failed``: every loss
is finite, every ``score_batch`` row sums to 1 within 1e-9, every rank
lies in [1, N], and desk's held-out P@10 clears the acceptance gate's
floor.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run's details (environment, input shape, sample
counts).  The exit code is 1 if any check failed.
"""

import os

# Pin BLAS to one thread before numpy is first imported.
THREAD_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import Patches, Tracer  # noqa: E402
from workloads import WORKLOADS, input_shape, make_corpus  # noqa: E402

REF_SHARE = 0.35          # of --seconds, untraced reference in a traced run
SETUP_PROBES = 7          # fresh processes timed for setup_s
TRACED_EVAL_PASSES = 10   # cap, to bound the spans a traced run keeps
ROW_SUM_TOL = 1e-9

END_TO_END = (
    ("train_examples_per_s", "1/s", "higher"),
    ("step_p50_ms", "ms", "lower"),
    ("step_tail_ms", "ms", "lower"),
    ("eval_prefixes_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("p_at_10", "ratio", "higher"),
)

# Layer -> the span names whose self time (forward) and whose tape
# nodes' backward time make it up, during training steps.
LAYERS = {
    "model": ("model.training_forward",),
    "propagation": ("propagation.ggnn_step", "propagation.star_step"),
    "encoder": ("encoder.encode", "encoder.encode_factors"),
    "disentangle.independence": ("disentangle.independence_loss",),
    "disentangle.project": ("disentangle.project",),
    "contrast": ("contrast.Discriminator.score",),
    "predictor.catalog_factors": ("predictor.catalog_factor_embeddings",),
    "predictor.head": ("predictor.score",),
    "predictor.bce": ("predictor.prediction_loss",),
}
# Self time per training step of single spans.
STEP_SPANS = {
    "model.pack_ms": "model.pack_batch",
    "graphs.build_ms": "graphs.build_session_graph",
    "rng.substream_ms": "rng.substream",
    "optim.adam_ms": "optim.Adam.step",
    "tape.backward_ms": "tape.Tensor.backward",
}
# Whole-span time per evaluation chunk (one score_batch call).
EVAL_SPANS = {
    "model.score_batch_ms": "model.score_batch",
    "model.eval_pack_ms": "model.pack_batch",
    "predictor.rank_ms": "predictor.rank_of",
}
# Self time per set-up: read both files, init, Adam, load the checkpoint.
SETUP_SPANS = {
    "params.init_ms": "params.init_parameters",
    "params.load_checkpoint_ms": "params.load_checkpoint",
    "dataio.read_examples_ms": "dataio.read_examples",
}
# Tape ops reported one by one; any other op seen lands in the details.
TAPE_OPS = ("add", "sub", "mul", "div", "matmul", "reshape", "swap_last",
            "concat", "getitem", "tsum", "tmean", "sigmoid", "tanh", "exp",
            "log", "sqrt", "softplus", "clip_min", "log_softmax",
            "pairwise_distances", "normalize_rows")
COUNTS = (
    ("tape.nodes_per_step", "count", "lower"),
    ("rng.substream_calls_per_step", "count", "lower"),
    ("disentangle.rows_per_step", "count", "higher"),
    ("model.pad_efficiency", "ratio", "higher"),
)


def per_layer_spec():
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = [("model.forward_total_ms", "ms", "lower")]
    for layer in LAYERS:
        spec += [(f"{layer}.forward_ms", "ms", "lower"),
                 (f"{layer}.backward_ms", "ms", "lower")]
    spec += [(name, "ms", "lower") for name in STEP_SPANS]
    spec += [(f"tape.backward_ms.{op}", "ms", "lower") for op in TAPE_OPS]
    spec += list(COUNTS)
    spec += [(name, "ms", "lower") for name in EVAL_SPANS]
    spec += [(name, "ms", "lower") for name in SETUP_SPANS]
    spec.append(("trace.overhead_ms", "ms", "lower"))
    return spec


# -- the program ---------------------------------------------------------------

def load_sessrec():
    """Import sessrec from the checkout's ``src/``; exit 2 if it is absent."""
    if not (SRC / "sessrec" / "__init__.py").is_file():
        print(f"run.py: no sessrec package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    return {name: importlib.import_module(f"sessrec.{name}")
            for name in ("contrast", "dataio", "harness", "model", "optim",
                         "params", "tape")}


class Outcome:
    """Operations attempted and failed, with the first failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def check(self, ok, note):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 20:
                self.notes.append(note)


def setup(m, cfg, work, n_items):
    """Read the example files, init the parameters, build Adam."""
    dataio = m["dataio"]
    train = dataio.read_examples(work / "train.jsonl")
    test = dataio.read_examples(work / "test.jsonl")
    params = m["params"].init_parameters(n_items, cfg.dim, cfg.factor_dim,
                                         cfg.num_factors, cfg.layers, cfg.seed,
                                         cfg.disc_form)
    return train, test, params, m["optim"].Adam(params.parameters(), lr=cfg.lr)


def train_phase(m, params, opt, train, cfg, outcome, *, budget_s=None,
                min_steps=0, steps=None, checkpoint=None, tracer=None):
    """Closed loop of ``train_step`` in ``harness.train``'s batch order.

    Runs exactly ``steps`` steps if given, else until ``budget_s`` has
    passed and at least ``min_steps`` steps ran.  ``checkpoint`` is
    ``(step, save)``: ``save()`` runs once that many steps are done.
    Returns per-step seconds, per-step loss terms and examples trained.
    """
    harness = m["harness"]
    step_s, losses, examples = [], [], 0
    started = time.perf_counter()
    epoch = 0
    while True:
        order = harness.substream(cfg.seed, "shuffle", epoch).permutation(len(train))
        for lo in range(0, len(train), cfg.batch_size):
            n = len(step_s)
            if (n >= steps) if steps is not None else (
                    n >= min_steps and time.perf_counter() - started >= budget_s):
                return step_s, losses, examples
            idx = order[lo:lo + cfg.batch_size]
            batch = [train[i] for i in idx]
            if tracer is not None:
                tracer.phase, tracer.step = "train", n
            t0 = time.perf_counter()
            try:
                lb = harness.train_step(params, opt, batch, idx, cfg, epoch)
                terms = (lb.total, lb.prediction, lb.contrastive, lb.independence)
            except harness.NumericsError:
                terms = (math.nan,)
            step_s.append(time.perf_counter() - t0)
            if tracer is not None:
                tracer.step = None
            examples += len(idx)
            losses.append(terms)
            outcome.check(all(math.isfinite(x) for x in terms),
                          f"step {n}: non-finite loss {terms}")
            if checkpoint is not None and len(step_s) == checkpoint[0]:
                checkpoint[1]()
        epoch += 1


def eval_phase(m, w, ckpt, test, cfg, n_items, outcome, budget_s, tracer=None,
               max_passes=None):
    """Load the checkpoint, then run checked passes of ``evaluate`` over
    ``test`` until ``budget_s`` has passed (at least one, at most
    ``max_passes``).

    Every ``score_batch`` row and every rank is checked, and P@10 against
    the workload's floor.  Returns the first pass's P@10 and each pass's
    seconds.
    """
    harness = m["harness"]
    params, _, _ = m["params"].load_checkpoint(ckpt)
    score_batch, rank_of = harness.score_batch, harness.rank_of
    bad_ranks = []

    def checked_score_batch(*args, **kwargs):
        probs = score_batch(*args, **kwargs)
        err = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
        outcome.check(err <= ROW_SUM_TOL, f"score_batch row sum off 1 by {err:.3g}")
        return probs

    def checked_rank_of(probs, target):
        r = rank_of(probs, target)
        if not 1 <= r <= n_items:
            bad_ranks.append(r)
        return r

    checks = Patches()
    checks.set(harness, "score_batch", checked_score_batch)
    checks.set(harness, "rank_of", checked_rank_of)
    if tracer is not None:
        tracer.phase = "eval"
    p10, pass_s = None, []
    started = time.perf_counter()
    try:
        while not pass_s or (time.perf_counter() - started < budget_s
                             and len(pass_s) != max_passes):
            bad_ranks.clear()
            t0 = time.perf_counter()
            report = harness.evaluate(params, test, cfg)
            pass_s.append(time.perf_counter() - t0)
            outcome.check(not bad_ranks,
                          f"ranks outside [1, {n_items}]: {bad_ranks[:5]}")
            if p10 is None:
                p10 = report.overall.precision[10]
    finally:
        checks.undo()
    if w.p10_floor is not None:
        outcome.check(p10 >= w.p10_floor,
                      f"P@10 {p10:.4f} below the floor {w.p10_floor}")
    return p10, pass_s


def probe_setup(work, cfg, n_items, count):
    """setup_s samples, each from a fresh process (see setup_probe.py)."""
    samples = []
    for _ in range(count):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), str(work),
             json.dumps(cfg.to_dict()), str(n_items)],
            capture_output=True, text=True, timeout=150, check=True)
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return samples


# -- one run -------------------------------------------------------------------

def run_workload(w, seed, seconds, trace, out_dir=OUT, probes=SETUP_PROBES):
    """Run workload ``w`` once; returns the result and details dicts."""
    m = load_sessrec()
    harness = m["harness"]
    cfg = harness.TrainConfig(seed=seed, **w.config)
    train_pairs, test_pairs, n_items = make_corpus(w, seed, harness.make_planted_corpus)
    out_dir.mkdir(parents=True, exist_ok=True)
    work = out_dir / f"work-{w.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    dataio = m["dataio"]
    for name, pairs in (("train", train_pairs), ("test", test_pairs)):
        dataio.write_examples(work / f"{name}.jsonl",
                              [dataio.Example(p, t) for p, t in pairs])
    ckpt = work / "checkpoint"
    outcome = Outcome()
    details = {"workload": w.name, "why": w.why, "seed": seed,
               "seconds": seconds, "trace": trace,
               "input_shape": input_shape(train_pairs, test_pairs, n_items),
               "environment": environment()}
    try:
        if trace:
            metrics = _traced(m, w, cfg, work, ckpt, n_items, seconds, outcome,
                              details, out_dir)
        else:
            metrics = _untraced(m, w, cfg, work, ckpt, n_items, seconds, outcome,
                                details, probes)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    details["error_rate"] = outcome.failed / max(outcome.attempted, 1)
    details["failures"] = outcome.notes
    result = {"correct": outcome.failed == 0, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    (out_dir / f"result-{w.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps({"result": result, "details": details}, indent=1),
        encoding="utf-8")
    return result, details


def _save(m, params, cfg, ckpt, n_items):
    return lambda: m["params"].save_checkpoint(ckpt, params, cfg.to_dict(), n_items)


def _untraced(m, w, cfg, work, ckpt, n_items, seconds, outcome, details, probes):
    train, test, params, opt = setup(m, cfg, work, n_items)
    step_s, _, examples = train_phase(
        m, params, opt, train, cfg, outcome,
        budget_s=(1.0 - w.eval_share) * seconds,
        min_steps=w.checkpoint_step,
        checkpoint=(w.checkpoint_step, _save(m, params, cfg, ckpt, n_items)))
    setups = probe_setup(work, cfg, n_items, probes)
    p10, pass_s = eval_phase(m, w, ckpt, test, cfg, n_items, outcome,
                             w.eval_share * seconds)
    beyond = sum(s > np.percentile(step_s, w.tail_pct) for s in step_s)
    details.update(steps=len(step_s), eval_passes=len(pass_s),
                   tail={"percentile": w.tail_pct, "samples": len(step_s),
                         "beyond": int(beyond)},
                   setup_samples=setups)
    if beyond < 10:
        print(f"warning: only {beyond} steps beyond p{w.tail_pct:g}", file=sys.stderr)
    values = {
        "train_examples_per_s": examples / sum(step_s),
        "step_p50_ms": 1e3 * statistics.median(step_s),
        "step_tail_ms": 1e3 * float(np.percentile(step_s, w.tail_pct)),
        "eval_prefixes_per_s": len(test) * len(pass_s) / sum(pass_s),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "p_at_10": p10,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in END_TO_END}


def _traced(m, w, cfg, work, ckpt, n_items, seconds, outcome, details, out_dir):
    train, _, params, opt = setup(m, cfg, work, n_items)
    ref_s, ref_losses, _ = train_phase(m, params, opt, train, cfg, outcome,
                                       budget_s=REF_SHARE * seconds, min_steps=3)
    tracer = Tracer()
    tracer.install(m)
    try:
        train, test, params, opt = setup(m, cfg, work, n_items)
        steps = max(len(ref_s), w.checkpoint_step)
        step_s, losses, _ = train_phase(
            m, params, opt, train, cfg, outcome, steps=steps, tracer=tracer,
            checkpoint=(w.checkpoint_step, _save(m, params, cfg, ckpt, n_items)))
        same = [x.hex() for t in losses[:len(ref_losses)] for x in t] == \
            [x.hex() for t in ref_losses for x in t]
        outcome.check(same, "traced loss sequence differs from the untraced one")
        tracer.phase = "setup"
        eval_phase(m, w, ckpt, test, cfg, n_items, outcome,
                   w.eval_share * seconds, tracer, TRACED_EVAL_PASSES)
    finally:
        tracer.uninstall()
    spans_path = out_dir / f"spans-{w.name}-seed{cfg.seed}.jsonl"
    tracer.write_spans(spans_path)
    values, extra = layer_values(tracer, len(step_s), w.checkpoint_step)
    values["trace.overhead_ms"] = 1e3 * (statistics.median(step_s[:len(ref_s)])
                                         - statistics.median(ref_s))
    details.update(steps=len(step_s), reference_steps=len(ref_s),
                   spans_file=str(spans_path.relative_to(ROOT)), **extra)
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in per_layer_spec()}


def layer_values(tracer, steps, count_steps):
    """Per-layer metric values from a finished trace, plus details."""
    ms = 1e3
    v = {"model.forward_total_ms":
         ms * tracer.total_s[("train", "model.training_forward")] / steps}
    for layer, spans in LAYERS.items():
        v[f"{layer}.forward_ms"] = ms * sum(
            tracer.self_s[("train", s)] for s in spans) / steps
        v[f"{layer}.backward_ms"] = ms * sum(
            tracer.backward_layer_s[s] for s in spans) / steps
    for name, span in STEP_SPANS.items():
        v[name] = ms * tracer.self_s[("train", span)] / steps
    for op in TAPE_OPS:
        v[f"tape.backward_ms.{op}"] = ms * tracer.backward_op_s[op] / steps
    counted = [tracer.counts[i] for i in range(count_steps)]
    total = {k: sum(c[k] for c in counted)
             for k in ("nodes", "substream_calls", "independence_rows",
                       "real_slots", "padded_slots")}
    v["tape.nodes_per_step"] = total["nodes"] / count_steps
    v["rng.substream_calls_per_step"] = total["substream_calls"] / count_steps
    v["disentangle.rows_per_step"] = total["independence_rows"] / count_steps
    v["model.pad_efficiency"] = total["real_slots"] / total["padded_slots"]
    chunks = tracer.calls[("eval", "model.score_batch")]
    for name, span in EVAL_SPANS.items():
        v[name] = ms * tracer.total_s[("eval", span)] / chunks
    for name, span in SETUP_SPANS.items():
        v[name] = ms * tracer.self_s[("setup", span)]
    extra = {
        "count_steps": count_steps,
        "pad_efficiency_base": {"real_slots": total["real_slots"],
                                "padded_slots": total["padded_slots"]},
        "eval_chunks": chunks,
        "unlisted_op_backward_ms": {
            op: ms * s / steps for op, s in tracer.backward_op_s.items()
            if op not in TAPE_OPS},
    }
    return v, extra


# -- environment ---------------------------------------------------------------

def git_sha():
    """HEAD's commit id read from ``.git``, or None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pin": {v: os.environ.get(v) for v in THREAD_PIN},
        "machine": platform.machine(),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


# -- command line --------------------------------------------------------------

def print_run(result, details):
    name = details["workload"]
    for metric, entry in result["metrics"].items():
        print(f"{name:14s} {metric:40s} {entry['value']:>14.6g} {entry['unit']}")
    if not details["trace"]:
        print(f"{name:14s} {'error_rate':40s} {details['error_rate']:>14.6g} ratio")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))


def run_all(seed, seconds):
    """Every workload untraced then traced, each in its own process."""
    summary, code = {}, 0
    for name in WORKLOADS:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            sys.stderr.write(done.stderr)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-2]))
            code = code or done.returncode
            if lines:
                summary[f"{name}/trace{trace}"] = json.loads(lines[-1])
    print(json.dumps(summary))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, details = run_workload(WORKLOADS[args.workload], args.seed,
                                   args.seconds, args.trace)
    print_run(result, details)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

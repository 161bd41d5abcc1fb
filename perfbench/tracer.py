"""Span tracer that times sessrec's layers from outside the package.

``Tracer.install`` replaces public functions of sessrec modules with
timing wrappers and ``uninstall`` puts the originals back; nothing in
the package changes.  Forward layers are the names ``sessrec.model``
binds with ``from ... import``, so they are patched in that namespace.
Every tape op is patched in ``sessrec.tape``, where every module looks
it up as ``tape.<op>``: each node an op puts on the tape is tagged with
the innermost open span, and its backward closure is wrapped so that
the backward time lands on that span's layer.

Spans are kept in memory and written out once the run ends.  A span's
self time is its duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import defaultdict

# Names patched in each sessrec module's namespace.
PATCHED_NAMES = {
    "harness": ("train_step", "training_forward", "pack_batch", "score_batch",
                "rank_of", "evaluate"),
    "model": ("ggnn_step", "star_step", "project", "independence_loss",
              "encode", "encode_factors", "catalog_factor_embeddings",
              "score", "prediction_loss", "substream", "build_session_graph"),
    "params": ("init_parameters", "load_checkpoint"),
    "dataio": ("read_examples",),
}
# (module, class, method) patched on the class.
PATCHED_METHODS = (("tape", "Tensor", "backward"), ("optim", "Adam", "step"),
                   ("contrast", "Discriminator", "score"))
NOT_OPS = ("as_tensor",)         # public tape functions that make no node
SPAN_FIELDS = ("id", "name", "phase", "start", "end", "parent", "step")


def _span_name(fn):
    return f"{fn.__module__.rpartition('.')[2]}.{fn.__qualname__}"


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, name, value):
        had = name in vars(owner)
        self._undo.append((owner, name, vars(owner).get(name), had))
        setattr(owner, name, value)

    def undo(self):
        while self._undo:
            owner, name, old, had = self._undo.pop()
            if had:
                setattr(owner, name, old)
            else:
                delattr(owner, name)


class Tracer:
    """Spans, self times, per-node backward times and per-step counts.

    ``phase`` and ``step`` are set by the caller and stamped on every
    span; counts and node backward times are kept per training step.
    """

    def __init__(self):
        self.phase = "setup"
        self.step = None
        self.spans = []             # [name, phase, start, end, parent, step]
        self._stack = []            # [span index, child seconds]
        self.self_s = defaultdict(float)       # (phase, name) -> seconds
        self.total_s = defaultdict(float)      # (phase, name) -> seconds
        self.calls = defaultdict(int)          # (phase, name) -> count
        self.backward_layer_s = defaultdict(float)   # span name -> seconds
        self.backward_op_s = defaultdict(float)      # op name -> seconds
        self.counts = defaultdict(lambda: defaultdict(float))  # step -> key -> n
        self._patches = Patches()

    # -- spans ---------------------------------------------------------------

    def _open(self, name):
        self.spans.append([name, self.phase, time.perf_counter(), None,
                           self._stack[-1][0] if self._stack else None,
                           self.step])
        self._stack.append([len(self.spans) - 1, 0.0])

    def _close(self):
        end = time.perf_counter()
        idx, child = self._stack.pop()
        span = self.spans[idx]
        span[3] = end
        dur = end - span[2]
        key = (span[1], span[0])
        self.self_s[key] += dur - child
        self.total_s[key] += dur
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][1] += dur

    def count(self, key, n=1):
        if self.step is not None:
            self.counts[self.step][key] += n

    def _spanned(self, fn, counter=None):
        name = _span_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close()
            if counter is not None:
                counter(self, args, out)
            return out
        return wrapper

    # -- tape nodes ----------------------------------------------------------

    def _op(self, fn, tensor_cls):
        op = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if (isinstance(out, tensor_cls) and out._backward is not None
                    and not any(out is a for a in args)):
                self.count("nodes")
                layer = self.spans[self._stack[-1][0]][0] if self._stack \
                    else "(none)"
                backward = out._backward

                def timed_backward():
                    t0 = time.perf_counter()
                    backward()
                    dt = time.perf_counter() - t0
                    self.backward_layer_s[layer] += dt
                    self.backward_op_s[op] += dt
                out._backward = timed_backward
            return out
        return wrapper

    # -- install -------------------------------------------------------------

    def install(self, sessrec_modules):
        """Patch the modules in ``sessrec_modules`` (short name -> module)."""
        m = sessrec_modules
        counters = {
            "substream": lambda t, a, out: t.count("substream_calls"),
            "independence_loss": lambda t, a, out: t.count(
                "independence_rows", a[0][0].shape[0] if a[0] else 0),
            "pack_batch": _count_slots,
        }
        for mod, names in PATCHED_NAMES.items():
            for name in names:
                fn = getattr(m[mod], name)
                self._patches.set(m[mod], name,
                                  self._spanned(fn, counters.get(name)))
        for mod, cls_name, meth in PATCHED_METHODS:
            cls = getattr(m[mod], cls_name)
            self._patches.set(cls, meth, self._spanned(getattr(cls, meth)))
        tape = m["tape"]
        for name, fn in list(vars(tape).items()):
            if (inspect.isfunction(fn) and fn.__module__ == tape.__name__
                    and not name.startswith("_") and name not in NOT_OPS):
                self._patches.set(tape, name, self._op(fn, tape.Tensor))

    def uninstall(self):
        self._patches.undo()

    def write_spans(self, path):
        """A header line naming the fields, then one JSON array per span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")


def _count_slots(tracer, args, pack):
    tracer.count("real_slots", float(pack.node_mask.sum()))
    tracer.count("padded_slots", float(pack.node_mask.size))

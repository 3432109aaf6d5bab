"""Spans around the package's public entry points, for the traced run.

The tracer rebinds every public function and method listed in ``install``
with a wrapper that records a span: name, start, end, parent span and op id.
Module-level names in any ``modbanach`` module that refer to an original are
rebound too, so callers that did ``from .x import f`` are caught.  Two hot
boundaries, ``ScaleProfile.__call__`` and ``BlockVector`` construction, are
counted but get no span; their time falls to the enclosing span, which lives
in the same module.

Spans stay in memory until the end of each traced pass, when they are
reduced to per-name totals.  Self time is apportioned by a sweep over span
starts and ends: at every instant the elapsed time goes to the innermost
open spans, split evenly when worker threads run several at once.  So the
self times of all spans add up exactly to the time covered by the root
spans, one per op.
"""
from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict

SPACE_KINDS = {"Lp": "lp", "Euclid": "euclid", "Schatten": "schatten", "TwoSum": "two_sum"}

_perf = time.perf_counter


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("ns_per_row", "ns"), ("us_per_solve", "us"), ("jobs_speedup", "x"),
                         ("_share", "ratio"), ("overhead", "ratio"), ("_s", "s")):
        if metric.endswith(suffix):
            return unit
    return "count"


class Tracer:
    """Records spans and counts while an op runs; see the module docstring."""

    def __init__(self):
        self.spans = []               # [name, start, end, parent, op, work]
        self.op = -1
        self.active = False           # spans and counts are taken only inside run_op
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._counters = {}
        self._restore = []            # (owner, attribute, original)
        # per-name totals over the passes folded so far
        self.calls = defaultdict(int)
        self.selfs = defaultdict(float)
        self.total = defaultdict(float)
        self.work = defaultdict(int)
        self.self_sum = 0.0

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, work=None):
        """``fn`` wrapped in a span; ``work(args, result)`` sizes the call."""
        spans, stack_of, main_stack = self.spans, self._stack, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stack = stack_of()
            # a worker thread's outermost span hangs under the span that
            # handed it the work, which is open on the main thread
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            rec = [name, _perf(), 0.0, parent, self.op, 0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = _perf()
                stack.pop()
            if work is not None:
                rec[5] = work(args, result)
            return result
        return traced

    def count(self, name: str, fn):
        # one counter per name across installs, so every traced pass adds to it
        counter = self._counters.setdefault(name, itertools.count())

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.active:
                next(counter)
            return fn(*args, **kwargs)
        return counted

    def counted(self, name: str) -> int:
        """Calls counted under ``name``; reading advances the counter, so read once."""
        c = self._counters.get(name)
        return next(c) if c is not None else 0

    def run_op(self, op_id: int, fn):
        """Run one op under a root span; returns (result, seconds)."""
        self.op = op_id
        rec = ["bench.op", _perf(), 0.0, None, op_id, 0]
        self.spans.append(rec)
        self._main_stack.append(rec)
        self.active = True
        try:
            result = fn()
        finally:
            rec[2] = _perf()
            self.active = False
            self._main_stack.pop()
        return result, rec[2] - rec[1]

    # -- installation --------------------------------------------------------

    def _rebind(self, owner, attr: str, new) -> None:
        """Point ``owner.attr`` and every module alias of the original at ``new``."""
        original = owner.__dict__[attr]
        targets = [(owner, attr)]
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "modbanach" or mod is None:
                continue
            for k, v in list(vars(mod).items()):
                if v is original and (mod, k) != (owner, attr):
                    targets.append((mod, k))
        for obj, k in targets:
            self._restore.append((obj, k, original))
            setattr(obj, k, new)

    def install(self) -> None:
        from modbanach import cli, geomconst, isolab, modular, nakano, sampling, spaces, verify

        def rows(args, res):
            return int(res.shape[0])

        funcs = [
            (cli, "run_campaign", None),
            (cli, "validate_config", None),
            (geomconst, "jvn_lower_bound", lambda a, r: (r.evaluations, r.starts)),
            (geomconst, "tail_parallelogram_defect", None),
            (isolab, "find_one_dim_two_summand", lambda a, r: r.starts),
            (isolab, "two_summand_grid_floor", None),
            (nakano, "nakano_norm", None),
            (nakano, "nakano_modular", None),
            (modular, "luxemburg_norm", None),
            (sampling, "rng_stream", None),
            (sampling, "gaussian_batch", lambda a, r: int(r.shape[0])),
        ]
        funcs += [(verify, k, lambda a, r: r.samples) for k in vars(verify)
                  if k.startswith("verify_")]
        for mod, attr, work in funcs:
            short = mod.__name__.rsplit(".", 1)[1]
            self._rebind(mod, attr, self.wrap(f"{short}.{attr}", getattr(mod, attr), work))

        for cls_name, kind in SPACE_KINDS.items():
            cls = getattr(spaces, cls_name)
            self._rebind(cls, "norm", self.wrap(f"spaces.{kind}.norm", cls.norm))
            self._rebind(cls, "norm_batch", self.wrap(f"spaces.{kind}.norm_batch", cls.norm_batch, rows))
        self._rebind(modular.ScaleProfile, "__call__",
                     self.count("modular.profile_evals", modular.ScaleProfile.__call__))
        self._rebind(nakano.BlockVector, "__post_init__",
                     self.count("nakano.blockvectors", nakano.BlockVector.__post_init__))

    def uninstall(self) -> None:
        for obj, k, original in reversed(self._restore):
            setattr(obj, k, original)
        self._restore.clear()

    # -- reduction -----------------------------------------------------------

    def self_times(self) -> tuple:
        """(self time, parent index) of every span, by the sweep in the module docstring."""
        spans = self.spans
        index = {id(rec): i for i, rec in enumerate(spans)}
        parent = [index.get(id(rec[3]), -1) if rec[3] is not None else -1 for rec in spans]
        events = []
        for i, rec in enumerate(spans):
            events.append((rec[1], 1, i))
            events.append((rec[2], 0, i))
        events.sort()
        open_children = [0] * len(spans)
        is_open = [False] * len(spans)
        leaves = set()
        own = [0.0] * len(spans)
        prev = None
        for t, starting, i in events:
            if leaves:
                share = (t - prev) / len(leaves)
                for j in leaves:
                    own[j] += share
            prev = t
            p = parent[i]
            if starting:
                is_open[i] = True
                leaves.add(i)
                if p >= 0 and is_open[p]:
                    open_children[p] += 1
                    leaves.discard(p)
            else:
                is_open[i] = False
                leaves.discard(i)
                if p >= 0 and is_open[p]:
                    open_children[p] -= 1
                    if open_children[p] == 0:
                        leaves.add(p)
        return own, parent

    def fold(self) -> None:
        """Reduce the spans recorded so far into per-name totals and drop them.

        Called after every traced pass, so memory holds one pass of spans.
        """
        spans = self.spans
        own, parent = self.self_times()

        def under(i, names):
            p = parent[i]
            while p >= 0:
                if spans[p][0] in names:
                    return True
                p = parent[p]
            return False

        verify_names = {rec[0] for rec in spans if rec[0].startswith("verify.")}
        for i, (rec, s) in enumerate(zip(spans, own)):
            name, work = rec[0], rec[5]
            self.calls[name] += 1
            self.selfs[name] += s
            self.total[name] += rec[2] - rec[1]
            self.self_sum += s
            if name == "geomconst.jvn_lower_bound":
                self.work[name] += work[0]
                self.work["geomconst.jvn_starts"] += work[1]
            else:
                self.work[name] += work
            if name.endswith(".norm_batch") and under(i, {"isolab.two_summand_grid_floor"}):
                self.work["isolab.grid_rows"] += work
            elif name in verify_names and not under(i, verify_names):
                self.calls["verify.top"] += 1
                self.work["verify.top"] += work
            elif name == "sampling.rng_stream" and under(i, verify_names):
                self.work["verify.batches"] += 1
        spans.clear()

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer counts and times per traced pass, keyed by the names in BENCHMARK.json."""
        calls, selfs, total, work = self.calls, self.selfs, self.total, self.work

        def layer_self(prefix):
            return sum(v for k, v in selfs.items() if k.startswith(prefix))

        def ratio(a, b):
            return a / b if b else 0.0

        m = {}
        run = "cli.run_campaign"
        m["cli.campaigns"] = calls[run]
        m["cli.validate_calls"] = calls["cli.validate_config"]
        m["cli.validate_s"] = selfs["cli.validate_config"]
        m["cli.validate_share"] = ratio(total["cli.validate_config"], total[run])
        m["cli.self_s"] = layer_self("cli.")

        jvn = "geomconst.jvn_lower_bound"
        m["geomconst.jvn_calls"] = calls[jvn]
        m["geomconst.ratio_evals"] = work[jvn]
        m["geomconst.evals_per_start"] = ratio(work[jvn], work["geomconst.jvn_starts"])
        m["geomconst.self_s"] = layer_self("geomconst.")
        m["geomconst.tail_self_s"] = selfs["geomconst.tail_parallelogram_defect"]

        search = "isolab.find_one_dim_two_summand"
        m["isolab.search_calls"] = calls[search]
        m["isolab.search_self_s"] = selfs[search]
        m["isolab.grid_rows"] = work["isolab.grid_rows"]
        m["isolab.grid_self_s"] = selfs["isolab.two_summand_grid_floor"]

        m["verify.campaigns"] = calls["verify.top"]
        m["verify.pairs"] = work["verify.top"]
        m["verify.batches"] = work["verify.batches"]
        m["verify.self_s"] = layer_self("verify.")

        for kind in SPACE_KINDS.values():
            n, b = f"spaces.{kind}.norm", f"spaces.{kind}.norm_batch"
            pre = f"spaces.{kind}"
            m[f"{pre}.norm_calls"] = calls[n]
            m[f"{pre}.norm_s"] = selfs[n]
            m[f"{pre}.batch_calls"] = calls[b]
            m[f"{pre}.batch_rows"] = work[b]
            m[f"{pre}.batch_s"] = selfs[b]
            m[f"{pre}.rows_per_batch"] = ratio(work[b], calls[b])
            m[f"{pre}.ns_per_row"] = ratio(selfs[b], work[b]) * 1e9

        lux = "modular.luxemburg_norm"
        m["modular.solves"] = calls[lux]
        m["modular.profile_evals"] = self.counted("modular.profile_evals")
        m["modular.evals_per_solve"] = ratio(m["modular.profile_evals"], calls[lux])
        m["modular.self_s"] = layer_self("modular.")
        m["modular.us_per_solve"] = ratio(total[lux], calls[lux]) * 1e6

        m["nakano.norm_calls"] = calls["nakano.nakano_norm"]
        m["nakano.modular_calls"] = calls["nakano.nakano_modular"]
        m["nakano.blockvectors"] = self.counted("nakano.blockvectors")
        m["nakano.self_s"] = layer_self("nakano.")

        m["sampling.streams"] = calls["sampling.rng_stream"]
        m["sampling.gaussian_rows"] = work["sampling.gaussian_batch"]
        m["sampling.gaussian_s"] = selfs["sampling.gaussian_batch"]

        m["bench.self_s"] = selfs["bench.op"]
        m["trace.spans"] = sum(calls.values()) - calls["verify.top"]
        m["trace.wall_s"] = total["bench.op"]
        m["trace.self_sum_s"] = self.self_sum
        for k, v in m.items():
            if unit_of(k) in ("count", "s") and "_per_" not in k:
                m[k] = v / passes
        return m

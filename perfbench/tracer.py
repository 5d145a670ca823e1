"""Run one ``binram`` subcommand with timing wrappers around each layer.

Usage: python3 perfbench/tracer.py TRACE.json SUBCOMMAND [flags...]

The wrappers are installed from outside the package: every public function
listed in ``LAYERS`` is replaced, in every ``binram`` module (and module-level
dict, such as the CLI's handler table) that binds it, by a wrapper that
records a span.  Spans stay in memory and are written to TRACE.json when the
subcommand returns, together with per-function call counts, self times and
the counters below.  The subcommand's report goes to stdout exactly as with
``python3 -m binram.cli`` and the exit code is passed through.

Spans inside ``--workers`` child processes are not collected; the parent's
time inside the process pool is recorded as the span ``cli.pool_wait``.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = {
    "exactcore": ["tail_numerator", "tail_value", "ramanujan_z", "p_diff_sign"],
    "kernel": ["integrate_g_delta", "verify_claim1", "taylor_sandwich",
               "derivative_oracle", "derivative_closed_form_polynomial"],
    "intervals": ["exp_neg_enclosure", "e_enclosure", "sqrt_enclosure"],
    "poisson": ["summarize", "y_poisson", "alpha_beta", "tail_weight"],
    "highprec": ["z_diff_sign", "z_highprec"],
    "smalldev": ["binomial_tail_below", "tilde_p", "two_point_tail"],
    "certificates": ["check_exp_bounds", "check_z_lowerbound", "z_diff_lower_bound",
                     "check_boundary_cases", "check_medium", "check_small_b",
                     "check_root_bounds"],
    "report": ["Report.to_csv", "Report.to_json", "ViolationReport.from_rationals",
               "merge_reports"],
    "cli": ["cmd_scan_p", "cmd_scan_z", "cmd_threshold", "cmd_verify", "cmd_poisson",
            "cmd_certify", "cmd_smalldev", "cmd_report_merge"],
}


class Tracer:
    """In-memory spans (name, start, end, parent index) with self-time totals.

    A span's self time is its duration minus the time covered by its child
    spans; calls nest strictly, so a stack of open spans suffices.
    """

    def __init__(self):
        self.spans = []
        self.stack = []  # [span index, time covered by children]
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.tails = set()

    def _close(self, name, index, t0, t1, parent, child_time):
        self.spans[index] = (name, t0, t1, parent)
        self.calls[name] += 1
        self.self_s[name] += (t1 - t0) - child_time
        if self.stack:
            self.stack[-1][1] += t1 - t0

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                self._close(name, frame[0], t0, t1, parent, frame[1])
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def record(self, name, t0, t1):
        """Add a finished leaf span under the innermost open span."""
        parent = self.stack[-1][0] if self.stack else -1
        self.spans.append(None)
        self._close(name, len(self.spans) - 1, t0, t1, parent, 0.0)

    def dump(self, path, exit_code):
        names = sorted({s[0] for s in self.spans if s is not None})
        index = {name: i for i, name in enumerate(names)}
        doc = {
            "exit_code": exit_code,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
            "distinct_tails": len(self.tails),
            "span_names": names,
            "spans": [[index[s[0]], s[1], s[2], s[3]] for s in self.spans if s is not None],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _count_tail(tracer, args, result):
    spec = args[0]
    tracer.tails.add((spec.b, spec.n))
    tracer.counters["tail_evals"] += 1


def _make_sign_hook(cutoff, inconclusive):
    def hook(tracer, args, result):
        if result == inconclusive:
            tracer.counters["inconclusive"] += 1
        elif args[1] > cutoff:  # decided in floating point
            tracer.counters["float_signs"] += 1
    return hook


def install(tracer):
    """Replace every binding of the LAYERS functions with a traced wrapper."""
    import binram.cli as cli
    import binram.highprec as highprec

    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "binram" or name.startswith("binram."))]
    hooks = {
        "exactcore.tail_numerator": _count_tail,
        "exactcore.tail_value": _count_tail,
        "highprec.z_diff_sign": _make_sign_hook(highprec.EXACT_CUTOFF, highprec.INCONCLUSIVE),
    }
    for layer, fns in LAYERS.items():
        module = sys.modules[f"binram.{layer}"]
        for fn in fns:
            name = f"{layer}.{fn}"
            if "." in fn:  # a method: patch it on its class
                cls_name, attr = fn.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, tracer.wrap(name, raw))
                continue
            original = getattr(module, fn)
            traced = tracer.wrap(name, original, hooks.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = traced

    class TimedPool(cli.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            self._t0 = perf_counter()
            super().__init__(*args, **kwargs)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.record("cli.pool_wait", self._t0, perf_counter())

    cli.ProcessPoolExecutor = TimedPool
    return cli


def main(argv) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    cli = install(tracer)
    code = 1
    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

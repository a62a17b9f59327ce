"""Runtime spans around the package's public callables.

``install`` replaces each traced callable, wherever the package binds
it, with a wrapper that records a span: name, start, end, parent span
and one optional measured value.  Spans stay in memory and are written
out once, when the traced run ends; ``layer_metrics`` turns them into
the per-layer numbers.  Nothing here changes what a call returns.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute path, workloads on which it must fire)
ALL = ("verify-all", "tables", "user-morphisms")
SPANS = (
    ("cli.main", "morphic.cli", "main", ("verify-all", "tables")),
    ("reports.to_json", "morphic.cli", "_reports_json", ("verify-all",)),
    ("reports.to_csv", "morphic.complexity", "ComplexityTable.to_csv", ("tables",)),
    ("morphisms.parse", "morphic.morphisms", "parse_morphism_spec", ("user-morphisms",)),
    ("morphisms.array", "morphic.morphisms", "FixedPointStream.array", ALL),
    ("morphisms.ensure", "morphic.morphisms", "FixedPointStream.ensure", ALL),
    ("morphisms.automatic_prefix", "morphic.morphisms", "automatic_prefix", ("user-morphisms",)),
    ("complexity.build_complexity_table", "morphic.complexity", "build_complexity_table", ("tables", "user-morphisms")),
    ("complexity.digit_sum_set", "morphic.complexity", "FactorScanner.digit_sum_set", ALL),
    ("complexity.parikh_set", "morphic.complexity", "FactorScanner.parikh_set", ALL),
    ("complexity.distinct_profile", "morphic.complexity", "FactorScanner.distinct_profile", ALL),
    ("complexity.distinct_substring_profile", "morphic.complexity", "distinct_substring_profile", ALL),
    ("complexity.factor_index", "morphic.complexity", "FactorScanner.factor_index", ("verify-all",)),
    ("complexity.recurrence_index", "morphic.complexity", "FactorScanner.recurrence_index", ("verify-all",)),
    ("ivp.check_ivp", "morphic.ivp", "check_ivp", ("user-morphisms",)),
    ("witnesses.witness", "morphic.witnesses", "witness", ("verify-all",)),
    ("witnesses.is_factor", "morphic.witnesses", "is_factor", ("verify-all",)),
    ("words.Word.digit_sum", "morphic.words", "Word.digit_sum", ("verify-all",)),
) + tuple(
    # one span per registered check, so that cli.main's self time is
    # the CLI's own work and not the checks' loops
    (f"checks.{fn}", mod, fn, ("verify-all",))
    for mod, fn in (
        ("morphic.checks", "verify_additive_formula"),
        ("morphic.checks", "verify_ds_bounds"),
        ("morphic.checks", "verify_witnesses"),
        ("morphic.checks", "verify_swap_reverse_commutation"),
        ("morphic.checks", "verify_mirror_closure"),
        ("morphic.checks", "verify_surplus_balance_counts"),
        ("morphic.checks", "verify_witness_affixes"),
        ("morphic.checks", "verify_shift_gain_exhaustive"),
        ("morphic.checks", "verify_interior_sums_small"),
        ("morphic.regularity", "verify_additive_recurrence"),
        ("morphic.regularity", "verify_kernel_affine"),
        ("morphic.ivp", "verify_parikh_prediction"),
        ("morphic.checks", "verify_subword_recurrence"),
    )
)

# Scanner methods whose outermost calls are answers; windows are the
# stream snapshots taken underneath them.
SCANNER_ANSWERS = {
    "complexity.digit_sum_set",
    "complexity.parikh_set",
    "complexity.distinct_profile",
    "complexity.factor_index",
    "complexity.recurrence_index",
}


def _length(args, kwargs, result):
    return len(args[0])


def _encoded(args, kwargs, result):
    return len(result.encode())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, value]
        self.streams: list[list[int]] = []  # per stream: [largest request, materialized]
        self._stack: list[int] = []
        self._measure = {
            "morphisms.ensure": self._stream_request,
            "morphisms.array": lambda args, kwargs, result: args[1],
            "complexity.distinct_substring_profile": _length,
            "ivp.check_ivp": lambda args, kwargs, result: result.tuples_checked,
            "reports.to_json": _encoded,
            "reports.to_csv": _encoded,
        }

    def _stream_request(self, args, kwargs, result):
        """Symbols this ensure() call added; tracks the stream's largest request."""
        stream, n = args[0], args[1]
        rec = stream.__dict__.get("_bench_stream")
        if rec is None:
            rec = stream.__dict__["_bench_stream"] = [0, 1]
            self.streams.append(rec)
        added = stream.materialized - rec[1]
        rec[0] = max(rec[0], n)
        rec[1] = stream.materialized
        return added

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        measure = self._measure.get(name)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name_id, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if measure is not None:
                rec[4] = measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Patch every traced callable where it is defined and where it is imported."""
        for name, module, attr, _ in SPANS:
            owner = importlib.import_module(module)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapped = self.wrap(name, original)
            setattr(owner, leaf, wrapped)
            if path:
                continue  # a method: every caller looks it up on the class
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "morphic":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def dump(self) -> dict:
        return {"names": self.names, "spans": self.spans, "streams": self.streams}


def layer_metrics(trace: dict) -> tuple[dict[str, tuple[float, str]], dict[str, int], float]:
    """Per-layer (value, unit) by metric name, calls by span name, top-level span seconds.

    A span's self time is its duration minus the time its child spans cover.
    """
    names = trace["names"]
    spans = trace["spans"]
    n = len(spans)
    child_time = [0.0] * n
    under_scanner = [False] * n
    for i, (name_id, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += end - start
            under_scanner[i] = under_scanner[parent] or names[spans[parent][0]] in SCANNER_ANSWERS
    self_s = {name: 0.0 for name in names}
    calls = {name: 0 for name in names}
    values = {name: 0 for name in names}
    answers = windows = window_max = extending = 0
    top_level = 0.0
    for i, (name_id, start, end, parent, value) in enumerate(spans):
        name = names[name_id]
        self_s[name] += end - start - child_time[i]
        calls[name] += 1
        values[name] += value
        if parent < 0:
            top_level += end - start
        if name in SCANNER_ANSWERS and not under_scanner[i]:
            answers += 1
        if name == "morphisms.array" and under_scanner[i]:
            windows += 1
            window_max = max(window_max, value)
        if name == "morphisms.ensure" and value > 0:
            extending += 1
    requested = sum(r for r, _ in trace["streams"])
    materialized = sum(m for _, m in trace["streams"])
    metrics = {
        "complexity.digit_sum_set.s": (self_s["complexity.digit_sum_set"], "s"),
        "complexity.digit_sum_set.calls": (calls["complexity.digit_sum_set"], "count"),
        "complexity.windows_per_answer": (windows / answers if answers else 0.0, "ratio"),
        "complexity.parikh_set.s": (self_s["complexity.parikh_set"], "s"),
        "complexity.parikh_set.calls": (calls["complexity.parikh_set"], "count"),
        "complexity.distinct_substring_profile.calls": (calls["complexity.distinct_substring_profile"], "count"),
        "complexity.distinct_substring_profile.symbols": (values["complexity.distinct_substring_profile"], "symbols"),
        # the profile's time: the scanner method plus the suffix automaton it runs
        "complexity.distinct_profile.s": (
            self_s["complexity.distinct_profile"] + self_s["complexity.distinct_substring_profile"],
            "s",
        ),
        "complexity.factor_index.s": (self_s["complexity.factor_index"], "s"),
        "complexity.recurrence_index.s": (self_s["complexity.recurrence_index"], "s"),
        "complexity.window_max": (window_max, "symbols"),
        "morphisms.ensure.s": (self_s["morphisms.ensure"], "s"),
        "morphisms.ensure.calls": (extending, "count"),
        "morphisms.symbols_materialized": (values["morphisms.ensure"], "symbols"),
        "morphisms.overshoot": (materialized / requested if requested else 0.0, "ratio"),
        "morphisms.automatic_prefix.s": (self_s["morphisms.automatic_prefix"], "s"),
        "morphisms.parse.s": (self_s["morphisms.parse"], "s"),
        "ivp.check_ivp.s": (self_s["ivp.check_ivp"], "s"),
        "ivp.check_ivp.tuples": (values["ivp.check_ivp"], "count"),
        "witnesses.witness.s": (self_s["witnesses.witness"], "s"),
        "witnesses.is_factor.s": (self_s["witnesses.is_factor"], "s"),
        "words.Word.digit_sum.s": (self_s["words.Word.digit_sum"], "s"),
        "words.Word.digit_sum.calls": (calls["words.Word.digit_sum"], "count"),
        "cli.main.self_s": (self_s["cli.main"], "s"),
        "reports.serialize.s": (self_s["reports.to_json"] + self_s["reports.to_csv"], "s"),
        "reports.output_bytes": (values["reports.to_json"] + values["reports.to_csv"], "bytes"),
    }
    return metrics, calls, top_level

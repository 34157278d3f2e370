"""Span tracing of rac's public functions, installed from outside the package.

`Tracer.install()` replaces each function in TRACED at every attribute of every
loaded `rac` / `rac.*` module that binds it, so names imported with
`from .x import y` are covered as well as the defining module. Modules are
reached through sys.modules, because the package re-exports a function named
`classify` that shadows the `rac.classify` module. `uninstall()` puts the
original objects back, so traced and untraced ops can alternate in one
process.

Spans (name, start, end, parent, op id) are kept in memory. `summary()` turns
them into per-function call counts, total and self time, where self time is a
span's duration minus the time its direct children cover. The benchmark opens
one "op" span around each CLI call, so the self times of one op sum to at most
the op's duration.

Run as a script, it executes one traced CLI call in a fresh interpreter (the
traced form of the cold_cli workload) and writes the summary to a JSON file:

    python bench/tracer.py SUMMARY.json -- calibrate --format json
"""

from __future__ import annotations

import json
import sys
import time

# Functions whose spans the benchmark reports, by defining module.
TRACED = {
    "cli": ("make_parser", "build_config", "main"),
    "dataset": ("load_dataset", "load_projection", "with_final_consumption"),
    "moments": ("compute_moments",),
    "calibration": ("calibrate_variant", "solve_system", "system_residuals", "condition_diagnostic"),
    "classify": ("classify_pipeline", "classify"),
    "utility": ("crra_utility", "expected_utility_unconditional", "make_comparison", "uncertain_utility"),
    "report": ("render_table", "export_run"),
}
OP = "op"


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.rows_parsed = 0
        self.op_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every TRACED function wherever a rac module binds it."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "rac" or name.startswith("rac."))]
        self.missing = []
        for short, names in TRACED.items():
            home = sys.modules.get(f"rac.{short}")
            for fname in names:
                fn = getattr(home, fname, None)
                if not callable(fn):
                    self.missing.append(f"{short}.{fname}")
                    continue
                wrapper = self._wrap(f"{short}.{fname}", fn)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            self._patches.append((module, attr, fn))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        count_rows = name == "dataset.load_dataset"

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op_id)
            if count_rows:
                self.rows_parsed += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    # -- ops ------------------------------------------------------------------

    def call_op(self, op_id: int, fn, *args):
        """Run fn(*args) inside an "op" span; returns its result."""
        self.op_id = op_id
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (OP, start, end, -1, op_id)

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """{name: [calls, total_ns, self_ns]} over all spans, plus op facts."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        per_name: dict[str, list[int]] = {}
        for (name, start, end, _, _), covered in zip(self.spans, child_ns):
            acc = per_name.setdefault(name, [0, 0, 0])
            acc[0] += 1
            acc[1] += end - start
            acc[2] += end - start - covered
        return {"functions": per_name, "rows_parsed": self.rows_parsed, "missing": self.missing}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def merge(total: dict, part: dict) -> dict:
    """Add one summary into another (both as returned by Tracer.summary)."""
    for name, acc in part["functions"].items():
        mine = total["functions"].setdefault(name, [0, 0, 0])
        for i, v in enumerate(acc):
            mine[i] += v
    total["rows_parsed"] += part["rows_parsed"]
    total["missing"] = sorted(set(total["missing"]) | set(part["missing"]))
    return total


def empty_summary() -> dict:
    return {"functions": {}, "rows_parsed": 0, "missing": []}


def _main(argv: list[str]) -> int:
    out_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SUMMARY.json -- CLI-ARGS...")
    import rac.cli  # noqa: F401  (loads every rac module before wrapping)

    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.call_op(0, sys.modules["rac.cli"].main, cli_argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    raise SystemExit(_main(sys.argv[1:]))

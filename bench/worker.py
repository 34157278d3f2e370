"""The workload process: the one process that generates a run's load.

    python bench/worker.py import                   one `import rac` sample
    python bench/worker.py setup SPEC.json          one set-up sample
    python bench/worker.py run SPEC.json OUT.json   a timed in-process run
    python bench/worker.py cold SPEC.json OUT.json  a timed cold_cli run

SPEC.json is written by run.py and holds the ops (CLI argv lists, already in
seeded order), the oracle's record for each op and the run length. All load is
closed loop from this single thread: an op starts when the previous one has
returned. Ops run in blocks of the whole op list, and the run ends at the
first block boundary after the deadline, so every run has the same op mix.

In-process workloads call rac.cli.main(argv) with stdout and stderr captured;
only that call is timed, and its output is checked against the oracle outside
the timed region. The cold_cli workload starts one `python -m rac.cli`
subprocess per op instead and times it from spawn to exit.

After each block the process starts probes, one at a time, so that they
sample the same stretch of machine time as the ops: an untraced run starts a
set-up probe (`worker.py setup`: `import rac`, then the warm-up op, in a fresh
interpreter) and IMPORT_PROBES import probes (`worker.py import`); a traced
run starts `python -X importtime -c "import rac"`. Both then start
PASS_PROBES `python -c pass`.

`import rac` runs before this module imports anything beyond sys and time, so
its measured import time matches that of a fresh `python -c "import rac"`.
"""

import sys
import time

# `python -c pass` spawns after each block; run.py scales the block's timings
# by their median, the machine-speed reference.
PASS_PROBES = 3
# Extra fresh-process `import rac` samples per block, beside the set-up probe's.
IMPORT_PROBES = 2


def _import_rac() -> float:
    """Import the package and its CLI; returns the `import rac` time in s."""
    t0 = time.perf_counter()
    import rac  # noqa: F401
    t1 = time.perf_counter()
    import rac.cli  # noqa: F401
    return t1 - t0


def main(argv: list[str]) -> int:
    mode = argv[0]
    t0 = time.perf_counter()
    # The cold_cli process only spawns; rac loads in its children.
    import_s = _import_rac() if mode != "cold" else 0.0
    if mode == "import":
        print(import_s * 1e3)
        return 0
    import json

    with open(argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    if mode == "setup":
        warmup = spec["warmup"]
        code, out, err, _ = _call_in_process(warmup["argv"])
        setup_s = time.perf_counter() - t0
        bad = _check(warmup["expected"], code, out, err)
        print(json.dumps({"import_ms": import_s * 1e3, "setup_s": setup_s, "failed": bool(bad)}))
        return 0
    run = ColdRun(spec) if mode == "cold" else InProcessRun(spec)
    run.loop()
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(run.result(), fh)
    return 0


def _check(record: dict, code: int, out: str, err: str) -> list[str]:
    import oracle

    return oracle.check(record, code, out, err)


def _op_kind(argv: list[str], code: int) -> str:
    """command-variant[-eta][-exitN], e.g. "classify-both": the unit of
    per-kind counts. "-eta" marks a --eta override (one investor table
    instead of two), "-exitN" an op that ended with exit code N."""
    variant = argv[argv.index("--variant") + 1] if "--variant" in argv else "both"
    return (f"{argv[0]}-{variant}" + ("-eta" if "--eta" in argv else "")
            + (f"-exit{code}" if code else ""))


def _spawn(cmd: list[str], env: dict, out_path: str):
    """(exit code, stdout, stderr, wall ns, peak RSS kB) of one child process.

    Output goes to files rather than pipes, so the child can be reaped with
    os.wait4, which reports that child's own peak RSS.
    """
    import os

    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, out_path + ".out", flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, out_path + ".err", flags, 0o644)]
    start = time.perf_counter_ns()
    pid = os.posix_spawn(cmd[0], cmd, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    ns = time.perf_counter_ns() - start
    with open(out_path + ".out", encoding="utf-8") as out, open(out_path + ".err", encoding="utf-8") as err:
        return os.waitstatus_to_exitcode(status), out.read(), err.read(), ns, usage.ru_maxrss


class Run:
    """State shared by both kinds of run: tallies, timings, probes, trace."""

    def __init__(self, spec: dict):
        import os

        import tracer

        self.spec = spec
        self.trace = spec["trace"]
        self.env = dict(os.environ)  # run.py set PYTHONPATH and cleared RAC_DATASET
        self.child_out = os.path.join(spec["work"], "child")
        self.attempted = self.failed = 0
        self.examples: list[str] = []
        self.op_ns: list[int] = []
        self.rows = 0
        self.probes: list[dict] = []
        self.import_ms: list[float] = []
        self.imports: list[dict] = []
        self.pass_ns: list[int] = []
        self.summary = tracer.empty_summary()
        self.kinds: list[str] = []
        self.per_kind: dict[str, dict[str, int]] = {}
        self.traced_ns = self.untraced_ns = 0

    def loop(self) -> None:
        deadline = time.perf_counter() + self.spec["seconds"]
        while True:
            for i, argv in enumerate(self.spec["ops"]):
                if not self.trace:
                    self.op_ns.append(self.timed(i, argv))
                    self.rows += self.spec["rows"][i]
                    continue
                # The traced and untraced call alternate which goes first.
                for traced in (True, False) if len(self.kinds) % 2 == 0 else (False, True):
                    if traced:
                        self.traced_ns += self.traced(i, argv)
                    else:
                        self.untraced_ns += self.timed(i, argv)
            self.probe()
            if time.perf_counter() >= deadline:
                break

    def check(self, i: int, argv: list[str], code: int, out: str, err: str) -> None:
        bad = _check(self.spec["expected"][i], code, out, err)
        self.attempted += 1
        if bad:
            self.failed += 1
            if len(self.examples) < 5:
                self.examples.append(f"rac {' '.join(argv)}: {'; '.join(bad[:3])}")

    def count_kind(self, argv: list[str], code: int, calls: dict[str, int]) -> None:
        kind = _op_kind(argv, code)
        self.kinds.append(kind)
        per = self.per_kind.setdefault(kind, {})
        for name, n in calls.items():
            per[name] = per.get(name, 0) + n

    def probe(self) -> None:
        import json

        exe = sys.executable
        if self.trace:
            code, _, err, _, _ = _spawn([exe, "-X", "importtime", "-c", "import rac"], self.env, self.child_out)
            if code != 0:
                raise RuntimeError(f"import probe failed: {err}")
            self.imports.append(_parse_importtime(err))
        else:
            code, out, err, _, _ = _spawn([exe, __file__, "setup", self.spec["spec_path"]],
                                          self.env, self.child_out)
            if code != 0:
                raise RuntimeError(f"set-up probe failed: {err}")
            self.probes.append(json.loads(out.splitlines()[-1]))
            self.import_ms.append(self.probes[-1]["import_ms"])
            for _ in range(IMPORT_PROBES):
                code, out, err, _, _ = _spawn([exe, __file__, "import"], self.env, self.child_out)
                if code != 0:
                    raise RuntimeError(f"import probe failed: {err}")
                self.import_ms.append(float(out))
        for _ in range(PASS_PROBES):
            self.pass_ns.append(_spawn([exe, "-c", "pass"], self.env, self.child_out)[3])

    def result(self) -> dict:
        return {
            "attempted": self.attempted, "failed": self.failed, "examples": self.examples,
            "op_ns": self.op_ns, "rows": self.rows, "peak_rss_kb": self.peak_rss_kb(),
            "probes": self.probes, "import_ms": self.import_ms, "imports": self.imports,
            "pass_ns": self.pass_ns, "ops_per_block": len(self.spec["ops"]),
            "pass_per_block": PASS_PROBES, "import_per_block": 1 + IMPORT_PROBES,
            "trace": {"summary": self.summary, "kinds": self.kinds, "per_kind": self.per_kind,
                      "traced_ns": self.traced_ns, "untraced_ns": self.untraced_ns},
        }


def _parse_importtime(stderr: str) -> dict:
    """Import cost in ms from `-X importtime` output: numpy's cumulative time,
    the self time of rac's own modules, and rac's cumulative time."""
    numpy_ms = rac_own_ms = rac_total_ms = 0.0
    for line in stderr.splitlines():
        parts = line.split("|")
        if not line.startswith("import time:") or len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        self_us, cum_us, name = int(parts[0].split(":")[1]), int(parts[1]), parts[2].strip()
        if name == "numpy":
            numpy_ms = cum_us / 1e3
        if name == "rac":
            rac_total_ms = cum_us / 1e3
        if name == "rac" or name.startswith("rac."):
            rac_own_ms += self_us / 1e3
    return {"import.numpy_ms": numpy_ms, "import.rac_own_ms": rac_own_ms,
            "import.rac_total_ms": rac_total_ms}


# -- in-process workloads -------------------------------------------------------

def _call_in_process(argv: list[str], tracer=None, op_id: int = 0):
    """(exit code, stdout, stderr, ns) of one rac.cli.main call."""
    import io
    from contextlib import redirect_stderr, redirect_stdout

    main = sys.modules["rac.cli"].main
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            code = tracer.call_op(op_id, main, argv) if tracer else main(argv)
        except SystemExit as exc:
            code = exc.code
        ns = time.perf_counter_ns() - start
    return code, out.getvalue(), err.getvalue(), ns


class InProcessRun(Run):
    def __init__(self, spec: dict):
        super().__init__(spec)
        import tracer

        self.tracer = tracer.Tracer()
        _call_in_process(spec["warmup"]["argv"])  # untimed warm-up

    def timed(self, i: int, argv: list[str]) -> int:
        code, out, err, ns = _call_in_process(argv)
        self.check(i, argv, code, out, err)
        return ns

    def traced(self, i: int, argv: list[str]) -> int:
        tracer = self.tracer
        first = len(tracer.spans)
        tracer.install()
        code, out, err, ns = _call_in_process(argv, tracer, len(self.kinds))
        tracer.uninstall()
        self.check(i, argv, code, out, err)
        calls: dict[str, int] = {}
        for span in tracer.spans[first:]:
            calls[span[0]] = calls.get(span[0], 0) + 1
        self.count_kind(argv, code, calls)
        return ns

    def peak_rss_kb(self) -> int:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def result(self) -> dict:
        if self.trace:
            self.summary = self.tracer.summary()
            self.tracer.write_spans(self.spec["spans_path"])
        return super().result()


# -- cold_cli -------------------------------------------------------------------

class ColdRun(Run):
    def __init__(self, spec: dict):
        super().__init__(spec)
        import os

        self.shim = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracer.py")
        self.max_child_rss_kb = 0

    def timed(self, i: int, argv: list[str]) -> int:
        code, out, err, ns, rss_kb = _spawn([sys.executable, "-m", "rac.cli", *argv],
                                            self.env, self.child_out)
        self.check(i, argv, code, out, err)
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        return ns

    def traced(self, i: int, argv: list[str]) -> int:
        import json

        import tracer

        path = self.spec["spans_path"]
        code, out, err, ns, _ = _spawn([sys.executable, self.shim, path, "--", *argv],
                                       self.env, self.child_out)
        self.check(i, argv, code, out, err)
        with open(path, encoding="utf-8") as fh:
            part = json.load(fh)
        tracer.merge(self.summary, part)
        self.count_kind(argv, code, {name: acc[0] for name, acc in part["functions"].items()})
        return ns

    def peak_rss_kb(self) -> int:
        return self.max_child_rss_kb


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

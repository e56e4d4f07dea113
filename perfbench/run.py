#!/usr/bin/env python3
"""flatrank benchmark: closed-loop CLI workloads, checked outputs, per-module traces.

    python3 perfbench/run.py --workload gf2-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One process, one client, FLATRANK_THREADS=1.  Each operation is one in-process
``flatrank.cli.main(argv)`` call with stdout captured; its exit code and report
are checked against the op list that ``gen.py`` builds from the seed.  After
WARMUP_S of warm-up passes the op list is replayed in whole passes until
``--seconds`` have passed.  Op times are scaled by a reference kernel (see
``reference_s``).  With ``--trace 0`` the last stdout line is a JSON object
holding the end-to-end metrics; with ``--trace 1`` it holds the per-layer
metrics of a traced run (see ``spans.py``), measured after an untraced run of
equal length.  The program is imported from ``src/`` of the checkout this file
sits in.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import gen
import oracle
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_LAUNCHES = 7
REFERENCE_NOMINAL_S = 0.010
WARMUP_S = 1.0

# Library set-up a CLI call of each workload pays: fields (each binary field
# re-verifies its polynomial), log tables, and index classes of its shapes.
SETUP = {
    "gf2-sweep": {"primes": [2], "binary": [], "shapes": [(4, 3), (5, 3), (4, 4), (6, 3), (3, 3), (2, 4)]},
    "field-rank": {"primes": [3, 5], "binary": [2, 8], "shapes": [(3, 3), (8, 3)]},
    "verify-mix": {"primes": [2, 3], "binary": [8], "shapes": []},
}

SETUP_SNIPPET = """
import sys
sys.path.insert(0, sys.argv[1])
import flatrank.cli
from flatrank import field, tensor
spec = {spec!r}

def step(mod, name, *args):
    fn = getattr(mod, name, None)
    if fn is None:
        print("missing:" + name)
        return None
    return fn(*args)

for p in spec["primes"]:
    step(field, "make_prime_field", p)
for k in spec["binary"]:
    f = step(field, "make_binary_field", k)
    if f is not None:
        step(field, "discrete_log_tables", f)
for a, d in spec["shapes"]:
    step(tensor, "classify_indices", a, d)
"""


def measure_setup(workload: str) -> tuple[float, list[str]]:
    """Median wall time of fresh interpreters doing the workload's set-up.

    Unlike op times this is not scaled by the reference kernel: the kernel runs
    in this process and does not track a child's start-up (file reads, dynamic
    loading).  Over six back-to-back measurements the scaled median spread 34%
    and the unscaled one 13%.
    """
    argv = [sys.executable, "-c", SETUP_SNIPPET.format(spec=SETUP[workload]), str(SRC)]
    times, missing = [], set()
    for i in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed:\n{proc.stderr}")
        missing.update(line[8:] for line in proc.stdout.splitlines() if line.startswith("missing:"))
        if i:  # the first launch may compile bytecode; it is not timed
            times.append(elapsed)
    return statistics.median(times), sorted(missing)


def _get(report: dict, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise KeyError(path)
        node = node[key]
    return node


def check_output(op: dict, code, stdout: str) -> str | None:
    """None when the op produced what its construction predicts, else the reason."""
    if code != op["exit"]:
        return f"exit code {code}, expected {op['exit']}"
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return f"stdout is not JSON: {exc}"
    if "stdout_sha256" in op:
        if oracle.sha256_text(oracle.canonical(report)) != op["stdout_sha256"]:
            return "constructed document differs from the construction"
        return None
    try:
        for path, want in op.get("fields", {}).items():
            if _get(report, path) != want:
                return f"{path} = {_get(report, path)!r}, expected {want!r}"
        for path, low in op.get("at_least", {}).items():
            if not _get(report, path) >= low:
                return f"{path} = {_get(report, path)!r}, expected >= {low}"
        for path, high in op.get("at_most", {}).items():
            if not _get(report, path) <= high:
                return f"{path} = {_get(report, path)!r}, expected <= {high}"
    except KeyError as exc:
        return f"report lacks {exc.args[0]}"
    if "witness" in op:
        return oracle.check_witness(op["witness"], report.get("results", {}))
    return None


class Runner:
    """Runs ops in process and judges each output once per distinct result."""

    def __init__(self, cli, ops: list[dict]):
        self.cli = cli  # main is looked up per call, so the traced run reaches its wrapper
        self.ops = ops
        self.reference: dict[int, tuple] = {}  # op index -> (code, stdout) of the untraced run
        self.judged: dict[int, tuple] = {}  # op index -> (code, stdout) already checked good
        self.errors: list[str] = []

    def run_op(self, i: int) -> tuple[float, object, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = self.cli.main(self.ops[i]["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # counted as a failed op, never raised
                code = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        return elapsed, code, out.getvalue()

    def judge(self, i: int, code, stdout: str, traced: bool) -> bool:
        result = (code, stdout)
        if traced:
            if self.reference.get(i) != result:
                self.errors.append(f"{self.ops[i]['name']}: traced output differs from untraced")
                return False
        else:
            self.reference.setdefault(i, result)
        if self.judged.get(i) == result:
            return True
        reason = check_output(self.ops[i], code, stdout)
        if reason:
            self.errors.append(f"{self.ops[i]['name']}: {reason}")
            return False
        self.judged[i] = result
        return True

    def loop(self, seconds: float, tracer=None) -> dict:
        """Whole passes over the op list until ``seconds`` of wall time have passed.

        The reference kernel runs between passes; each pass's op times are
        scaled by the mean of the two reference times around it (see
        ``reference_s``).  Throughput is the op count of a pass over the
        median scaled pass time.
        """
        latencies, raw, failed, pass_s = [], [], 0, []
        deadline = time.perf_counter() + seconds
        ref = [reference_s()]
        while True:
            start = len(raw)
            for i in range(len(self.ops)):
                if tracer is not None:
                    tracer.op = len(raw)
                elapsed, code, stdout = self.run_op(i)
                raw.append(elapsed)
                failed += not self.judge(i, code, stdout, traced=tracer is not None)
            ref.append(reference_s())
            scale = REFERENCE_NOMINAL_S / ((ref[-2] + ref[-1]) / 2)
            latencies.extend(x * scale for x in raw[start:])
            pass_s.append(sum(raw[start:]) * scale)
            if time.perf_counter() >= deadline:
                break
        per_op = [statistics.median(latencies[i :: len(self.ops)]) for i in range(len(self.ops))]
        return {
            "latencies": latencies,
            "per_op": per_op,
            "raw": raw,
            "failed": failed,
            "passes": len(pass_s),
            "ops_per_s": len(self.ops) / statistics.median(pass_s),
            "reference_s": statistics.median(ref),
        }


def reference_kernel() -> int:
    """Fixed interpreter, numpy and file work that never touches flatrank,
    in roughly the proportions of a flatrank op."""
    acc, table, rows = 0, {}, []
    for i in range(2500):
        key = (i & 63, i >> 6)
        acc ^= table.get(key, i) * 0x9E3779B1 & 0xFFFF
        table[key] = acc
        rows.append([acc >> s & 1 for s in range(0, 16, 4)])
    a = np.arange(1 << 16, dtype=np.uint64)
    for _ in range(12):
        a = (a * np.uint64(0x9E3779B97F4A7C15)) ^ (a >> np.uint64(29))
    for _ in range(80):  # the file reads and small parses every CLI op does
        with open(__file__, encoding="utf-8") as fh:
            acc ^= len(json.loads(json.dumps(fh.read(2048))))
    return acc ^ int(a[-1]) ^ len(rows)


def reference_s() -> float:
    """Wall time of one reference kernel run.

    A shared host's speed drifts by tens of percent within a minute.  Every
    reported time is multiplied by REFERENCE_NOMINAL_S over the reference time
    measured around it, i.e. expressed at the machine speed where the kernel
    takes REFERENCE_NOMINAL_S.  Machine drift cancels; a change in flatrank
    cannot move the kernel, so it shows in full.
    """
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def git_sha() -> str:
    """Commit of the checkout, read from .git without running git; 'unknown' outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def write_inputs(workdir: Path, docs: dict, ops: list[dict]) -> str:
    """Write documents and the op list; returns the sha256 of the seed's inputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for name in sorted(docs):
        text = oracle.canonical(docs[name])
        (workdir / f"{name}.json").write_text(text)
        digest.update(name.encode() + b"\0" + text.encode())
    text = oracle.canonical(ops)
    (workdir / "ops.json").write_text(text)
    digest.update(b"ops\0" + text.encode())
    for op in ops:
        op["argv"] = [str(workdir / f"{a[1:]}.json") if a.startswith("@") else a for a in op["argv"]]
    return digest.hexdigest()


def load_program():
    if not (SRC / "flatrank" / "cli.py").is_file():
        raise FileNotFoundError(f"no flatrank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import flatrank.cli

    if SRC.resolve() not in Path(flatrank.cli.__file__).resolve().parents:
        raise ImportError(f"flatrank was imported from {flatrank.cli.__file__}, not {SRC}")
    return flatrank.cli


def run_workload(args) -> int:
    os.environ["FLATRANK_THREADS"] = "1"
    try:
        cli = load_program()
    except (ImportError, FileNotFoundError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2

    docs, ops = gen.build(args.workload, args.seed)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        inputs_sha = write_inputs(workdir, docs, ops)
        print(f"flatrank benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        print(
            f"meta: git={git_sha()} nproc={os.cpu_count()} python={platform.python_version()}"
            f" numpy={np.__version__} seed={args.seed} ops_per_pass={len(ops)} inputs_sha256={inputs_sha}"
        )
        runner = Runner(cli, ops)
        if args.trace:
            return traced_run(args, runner)
        return untraced_run(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def emit(correct: bool, attempted: int, failed: int, metrics: dict[str, tuple[float, str]]) -> None:
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def report_errors(runner: Runner) -> None:
    for line in sorted(set(runner.errors))[:20]:
        print(f"FAILED {line}")


def freeze_heap() -> None:
    """Move the benchmark's own objects (inputs, op list, outputs) out of the
    collector's reach, so the program's collections cost what they would in a
    CLI process."""
    gc.collect()
    gc.freeze()


def untraced_run(args, runner: Runner) -> int:
    setup_s, missing = measure_setup(args.workload)
    warm = runner.loop(WARMUP_S)  # caches, log tables and bytecode are warm before timing
    freeze_heap()
    run = runner.loop(args.seconds)
    # op_p50_ms and op_p90_ms are percentiles over the op list, each op at its
    # median scaled latency over the passes.  Percentiles of the pooled samples
    # are printed too; they are noisier, because per-sample jitter moves them
    # across the gaps between op kinds.
    lat, per_op, raw = run["latencies"], run["per_op"], run["raw"]
    n, failed = len(lat), run["failed"]
    p90 = percentile(per_op, 90)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (run["ops_per_s"], "ops/s"),
        "op_p50_ms": (statistics.median(per_op) * 1e3, "ms"),
        "op_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    above = sum(x > p90 for x in per_op) * run["passes"]
    notes = {
        "setup_s": f"median of {SETUP_LAUNCHES} fresh interpreters, unscaled"
        + (f"; missing {missing}" if missing else ""),
        "ops_per_s": f"n={n} ops in {run['passes']} passes, median pass; unscaled {n / sum(raw):.4f}",
        "op_p50_ms": f"n={n}; pooled {statistics.median(lat) * 1e3:.4f}",
        "op_p90_ms": f"n={n}, {above} samples above; pooled {percentile(lat, 90) * 1e3:.4f}",
        "peak_rss_mb": "workload process",
    }
    print(f"reference kernel: median {run['reference_s'] * 1e3:.3f} ms, times scaled to {REFERENCE_NOMINAL_S * 1e3:g} ms")
    for name, (value, unit) in metrics.items():
        print(f"{name:<14} {value:>12.4f} {unit:<6} ({notes[name]})")
    print(f"{'failed_ratio':<14} {failed / n:>12.4f} {'fraction':<6} ({failed} of {n} ops failed)")
    report_errors(runner)
    correct = failed == 0 and warm["failed"] == 0
    emit(correct, n, failed, metrics)
    return 0


# A workload's reason holds when these modules' share of op time is as stated.
REASONS = {
    "gf2-sweep": "tensor+linalg+formats < 0.05 of op time and search+rng the largest share",
    "field-rank": "tensor+linalg the largest share",
    "verify-mix": "setfam+fw+rainbow+extalg+tensor the largest share",
}


def reason_holds(workload: str, shares: dict[str, float]) -> bool:
    def top_besides(group) -> float:
        return max(v for k, v in shares.items() if k not in group)

    def total(group) -> float:
        return sum(shares[m] for m in group)

    if workload == "gf2-sweep":
        group = ("search", "rng")
        return total(("tensor", "linalg", "formats")) < 0.05 and total(group) > top_besides(group)
    group = ("tensor", "linalg") if workload == "field-rank" else ("setfam", "fw", "rainbow", "extalg", "tensor")
    return total(group) > top_besides(group)


def traced_run(args, runner: Runner) -> int:
    half = args.seconds / 2
    warm = runner.loop(WARMUP_S)
    freeze_heap()
    plain = runner.loop(half)
    tracer = spans.Tracer()
    tracer.install()
    try:
        stale = tracer.unwrapped_references()
        traced = runner.loop(half, tracer) if not stale else {"latencies": [], "failed": 0}
    finally:
        tracer.uninstall()
    info = getattr(getattr(sys.modules["flatrank.tensor"], "classify_indices", None), "cache_info", None)
    counters = {"tensor.classify_indices.misses": info().misses if info else 0}
    WORK.mkdir(exist_ok=True)
    sidecar = WORK / f"trace-{args.workload}-{args.seed}.jsonl"
    tracer.write_sidecar(sidecar, counters)

    n = len(traced["latencies"])
    layers = spans.layer_metrics(sidecar, n, plain["ops_per_s"], traced.get("ops_per_s", 0.0))
    metrics = {name: (layers[name], spans.PER_LAYER_UNITS[name][0]) for name in spans.PER_LAYER_UNITS}

    print(f"trace: sidecar {sidecar.relative_to(ROOT)} with {len(tracer.spans)} spans over {n} ops")
    if tracer.missing:
        print(f"trace: traced functions missing from the program: {', '.join(tracer.missing)}")
    if tracer.counter_errors:
        print(f"trace: counts lost for: {', '.join(sorted(tracer.counter_errors))}")
    for ref in stale:
        print(f"trace: unwrapped reference left at {ref}")
    op_s = layers["trace.op_s"]
    shares = {m: layers[f"{m}.module.self_s"] / op_s for m in spans.MODULES} if op_s else {}
    if shares:
        print("share of op time: " + ", ".join(f"{m} {s:.3f}" for m, s in sorted(shares.items(), key=lambda kv: -kv[1])))
        verdict = "holds" if reason_holds(args.workload, shares) else "DOES NOT hold"
        print(f"reason ({REASONS[args.workload]}): {verdict}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    report_errors(runner)
    failed = plain["failed"] + traced["failed"] + warm["failed"]
    attempted = len(plain["latencies"]) + n
    emit(failed == 0 and not stale and n > 0, max(attempted, 1), failed, metrics)
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak memory stays per workload."""
    results = {}
    for workload in gen.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*gen.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

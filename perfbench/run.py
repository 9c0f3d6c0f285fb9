#!/usr/bin/env python3
"""Benchmark of the xyzent CLI: end-to-end runs and a traced run per layer.

    python3 perfbench/run.py --workload field_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is taken from ``src/`` next to this
directory.  With ``--trace 0`` every op is a fresh ``python -m xyzent.cli``
process, timed from spawn to exit, one at a time (closed loop, one
client).  With ``--trace 1`` the ops of the first round run in this
process through ``xyzent.cli.main(argv)``, once plain and once with
every public function of every layer module wrapped in a span.  Every
op's output is checked against independent oracles (see checks.py)
outside the timed region, and compared with the stored reference
outputs of the seed commit.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The line before it holds the
provenance and the per-run details (reference match, defect probe).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

WORKLOADS = ("field_scan", "model_limits", "temp_sweep")
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("op_s_p50", "s"),
    ("peak_rss_mb", "MB"),
)
#: seconds the Clock's calibration task takes on the reference host
CAL_REF_S = 0.15
#: scaled seconds one round takes at the seed commit, setup samples and
#: calibration included; a run is round(--seconds / this) whole rounds,
#: the same ops on every commit for a given seed
ROUND_S = {"field_scan": 14.7, "model_limits": 16.0, "temp_sweep": 7.8}
#: no op may take longer than this (s); the run must end within 180 s
OP_TIMEOUT = 100.0
#: no new round starts once the run is this old (s); the first always runs
RUN_DEADLINE = 120.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
    return env


def _spawn(argv: list[str], stdout, stderr) -> tuple[int, float, float]:
    """Run a child to completion: (exit code, wall seconds, max RSS in MB)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=_env(), cwd=ROOT)
    timer = threading.Timer(OP_TIMEOUT, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024.0


def _out_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _argv(op, out: Path) -> list[str]:
    return [a.replace("{out}", str(out)) for a in op.argv]


def _collect(op, out: Path, stdout: bytes) -> dict[str, bytes]:
    if op.files == ("stdout",):
        return {"stdout": stdout}
    return {name: (out / name).read_bytes() for name in op.files if (out / name).is_file()}


def run_op(op) -> dict:
    """One op as a fresh CLI process."""
    out = _out_dir("out")
    stdout_path = WORK / "stdout"
    with open(stdout_path, "wb") as fo, open(WORK / "stderr", "wb") as fe:
        code, seconds, rss = _spawn([sys.executable, "-m", "xyzent.cli", *_argv(op, out)], fo, fe)
    return {
        "code": code,
        "seconds": seconds,
        "rss_mb": rss,
        "outputs": _collect(op, out, stdout_path.read_bytes()),
        "stderr": (WORK / "stderr").read_bytes()[-400:].decode(errors="replace"),
    }


def run_inprocess(op, name: str) -> dict:
    """One op through xyzent.cli.main(argv) in this process."""
    import xyzent.cli

    out = _out_dir(name)
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            code = xyzent.cli.main(_argv(op, out))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the interpreter would exit 1 with a traceback
            code = 1
    seconds = time.perf_counter() - t0
    return {"code": code, "seconds": seconds, "outputs": _collect(op, out, buf.getvalue().encode())}


def judge(op, res: dict, references: dict) -> list[str]:
    """Failures of one finished op; records the reference comparison."""
    import checks

    if res["code"] != 0:
        return [f"exit code {res['code']}: {res.get('stderr', '')[-200:]}"]
    missing = [f for f in op.files if f not in res["outputs"]]
    if missing:
        return [f"missing output {missing}"]
    ref = references.get(op.key)
    if ref is not None and ref["argv"] == list(op.argv):
        res["ref_same"], res["ref_rel"] = checks.compare(ref["files"], res["outputs"])
    return checks.check(op, res["outputs"])


def load_references(workload: str) -> dict:
    path = REFERENCE / f"{workload}.json"
    if not path.is_file():
        return {}
    return json.loads(path.read_text())["ops"]


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance(workload: str, seed: int, load1: float) -> dict:
    import numpy
    import scipy

    sha = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        git = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=20,
        )
        lines = git.stdout.split()
        if git.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
    src = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "load1_at_start": load1,
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------


class Clock:
    """Host-speed calibration interleaved with the measurements.

    The host's speed drifts by tens of percent within minutes, for every
    process alike.  A fixed numpy and pure-Python task that does not
    touch xyzent runs in this process before the first op and after
    every op (and its setup sample); both are scaled by CAL_REF_S over
    the mean of the two calibrations around them, i.e. reported as
    seconds on a host where the task takes CAL_REF_S.
    """

    def __init__(self):
        self.samples = [self._calibrate()]

    @staticmethod
    def _calibrate() -> float:
        t0 = time.perf_counter()
        x = np.linspace(0.1, 2.0, 4000)
        acc = 0.0
        for i in range(6000):
            acc += float(np.exp(-x / (0.1 + i * 1e-4)).sum())
        n = 0
        for i in range(1_400_000):
            n += i % 7
        return time.perf_counter() - t0

    def tick(self) -> float:
        """Scale factor for the measurements taken since the last tick."""
        self.samples.append(self._calibrate())
        return CAL_REF_S / (0.5 * (self.samples[-2] + self.samples[-1]))


def time_import() -> float:
    """Wall time of a fresh interpreter importing xyzent.cli and exiting."""
    code, seconds, _ = _spawn([sys.executable, "-c", "import xyzent.cli"], subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise RuntimeError(f"`import xyzent.cli` exited {code}")
    return seconds


def run_probe(workload: str) -> dict:
    """The workload's op kind at an energy scale the seed commit gets
    wrong.  Reported, not counted in attempted/failed."""
    op = workloads.probe_op(workload)
    res = run_op(op)
    fails = judge(op, res, {})
    return {
        "lambda": op.lam,
        "argv": list(op.argv),
        "exit_code": res["code"],
        "passed": not fails,
        "first_failure": fails[0] if fails else None,
    }


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    started = time.perf_counter()
    schedule = workloads.Schedule(workload, seed)
    references = load_references(workload)
    time_import()  # untimed warm-up: fills the bytecode cache
    clock = Clock()

    results, failures, setup, setup_raw = [], [], [], []
    rounds_wanted, rounds = max(1, round(seconds / ROUND_S[workload])), 0
    while rounds < rounds_wanted and time.perf_counter() - started < RUN_DEADLINE:
        rounds += 1
        for op in schedule.round():
            res = run_op(op)
            # a setup sample after every other op: enough for a median
            sample = time_import() if len(results) % 2 else None
            scale = clock.tick()
            res["norm_s"] = res["seconds"] * scale
            if sample is not None:
                setup_raw.append(sample)
                setup.append(sample * scale)
            fails = judge(op, res, references)
            res.update(op=op, failed=bool(fails), outputs=None)
            failures += [f"{op.key}: {f}" for f in fails[:3]]
            results.append(res)

    op_s = [r["norm_s"] for r in results]
    raw_s = [r["seconds"] for r in results]
    items = sum(r["op"].items for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": items / sum(op_s),
        "op_s_p50": statistics.median(op_s),
        "peak_rss_mb": max(r["rss_mb"] for r in results),
    }
    compared = [r for r in results if "ref_same" in r]
    detail = {
        "samples": {
            "setup_s": len(setup),
            "items_per_s": len(op_s),
            "op_s_p50": len(op_s),
            "peak_rss_mb": len(op_s),
            "rounds": rounds,
        },
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "items_per_s": items / sum(raw_s),
            "op_s_p50": statistics.median(raw_s),
            "calibration_s": statistics.median(clock.samples),
            "calibration_ref_s": CAL_REF_S,
            "calibrations": clock.samples,
        },
        "failed_ratio": failed / len(results),
        "failures": failures[:20],
        "reference": {
            "compared": len(compared),
            "sha256_matched": sum(r["ref_same"] for r in compared),
            "max_rel_diff": max((r["ref_rel"] for r in compared), default=0.0),
        },
        "probe": run_probe(workload),
        "ops": [[r["op"].key, r["seconds"], r["norm_s"], r["rss_mb"], r["failed"]] for r in results],
    }
    return {"attempted": len(results), "failed": failed, "metrics": metrics}, detail


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------


def setup_breakdown(samples: int) -> dict[str, float]:
    import tracing

    argv = [sys.executable, "-X", "importtime", "-c", "import xyzent.cli"]
    runs = []
    for _ in range(samples):
        err = WORK / "importtime"
        with open(err, "wb") as fe:
            code, _, _ = _spawn(argv, subprocess.DEVNULL, fe)
        if code != 0:
            raise RuntimeError(f"`import xyzent.cli` exited {code}")
        runs.append(tracing.import_times(err.read_text()))
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def traced(workload: str, seed: int) -> tuple[dict, dict]:
    """The first round's ops, each run plain and then traced, in process."""
    import tracing

    metrics = setup_breakdown(5)
    ops = workloads.Schedule(workload, seed).round()
    references = load_references(workload)
    tracer = tracing.Tracer()
    run_inprocess(ops[0], "warmup")
    plain_s = traced_s = 0.0
    out_bytes, failed, failures = 0, 0, []
    for i, op in enumerate(ops):
        plain = run_inprocess(op, "plain")
        restore = tracing.instrument(tracer)
        tracer.op = i
        try:
            res = run_inprocess(op, "traced")
        finally:
            restore()
        plain_s += plain["seconds"]
        traced_s += res["seconds"]
        out_bytes += sum(len(v) for v in res["outputs"].values())
        fails = judge(op, res, references)
        if res["outputs"] != plain["outputs"]:
            fails.append("traced output differs from the plain run")
        failed += bool(fails)
        failures += [f"{op.key}: {f}" for f in fails[:3]]
    tracer.write(WORK / f"spans_{workload}_{seed}.jsonl.gz")
    metrics.update(tracing.layer_metrics(tracer))
    metrics.update(
        {
            "cli.output_bytes": out_bytes,
            "trace.ops": len(ops),
            "trace.items": sum(op.items for op in ops),
            "trace.overhead_ratio": traced_s / plain_s,
        }
    )
    ordered = {name: metrics[name] for name, _ in tracing.metric_spec()}
    detail = {"failures": failures[:20], "plain_s": plain_s, "traced_s": traced_s}
    return {"attempted": len(ops), "failed": failed, "metrics": ordered}, detail


# ---------------------------------------------------------------------------
# reference outputs
# ---------------------------------------------------------------------------


def write_reference(workload: str) -> int:
    """Run every pool op once, check it, and store its output digest."""
    import checks

    ops, bad = {}, 0
    for members in workloads.pool(workload).values():
        for op in members:
            res = run_op(op)
            fails = judge(op, res, {})
            if fails:
                bad += 1
                print(f"{workload} {op.key}: {fails[:3]}", file=sys.stderr)
            ops[op.key] = {"argv": list(op.argv), "files": checks.digest(res["outputs"])}
    if bad:
        print(f"{bad} ops failed; reference not written", file=sys.stderr)
        return 1
    REFERENCE.mkdir(exist_ok=True)
    body = {"pool_seed": workloads.POOL_SEED, "ops": ops}
    (REFERENCE / f"{workload}.json").write_text(json.dumps(body, indent=1, sort_keys=True) + "\n")
    print(f"{workload}: {len(ops)} reference outputs written")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _units(trace: bool) -> dict[str, str]:
    if trace:
        import tracing

        return dict(tracing.metric_spec())
    return dict(END_TO_END)


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load1 = os.getloadavg()[0]
    result, detail = traced(workload, seed) if trace else end_to_end(workload, seed, seconds)
    units = _units(trace)
    print(f"# {workload} (seed {seed})")
    n = detail.get("samples", {})
    for name, value in result["metrics"].items():
        samples = f"  n={n[name]}" if name in n else ""
        print(f"{name:44s} {value:>16.6g} {units[name]}{samples}")
    print(f"{'failed_ratio':44s} {result['failed'] / result['attempted']:>16.6g} ratio"
          f"  n={result['attempted']}")
    detail["provenance"] = provenance(workload, seed, load1)
    print(json.dumps({"detail": detail}))
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()}
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="run every pool op once and store its output digest (maintenance)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "xyzent" / "cli.py").is_file():
        print(f"perfbench: no xyzent package under {SRC}; run it in a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)

    if args.write_reference:
        return max(write_reference(w) for w in chosen)

    results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in chosen}
    if len(results) == 1:
        final = results[chosen[0]]
    else:
        final = {
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(
        json.dumps(
            {
                "correct": final["failed"] == 0,
                "attempted": final["attempted"],
                "failed": final["failed"],
                "metrics": final["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

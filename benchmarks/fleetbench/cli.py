"""fleetbench command line: run passes in fresh processes and report.

    PYTHONPATH=src python -m benchmarks.fleetbench [--workload NAME]
        [--seed S] [--seconds S] [--out PATH] [--trace [0|1]]
        [--trace-out PATH]

Each pass runs in its own subprocess (single-threaded BLAS, journal and
stream in a fresh temp dir under the checkout that is deleted after).
Without ``--workload`` all three workloads run.  The untraced pass
gives the end-to-end metrics; ``--trace`` adds a traced pass per
workload for the per-layer metrics.  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``
holding the gated end-to-end metrics (per-layer metrics with
``--trace``); the exit code is 1 when any correctness check failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, Optional, Sequence

from repro.sim.checkpoint import atomic_write_text

from .metrics import END_TO_END, GATED, PER_LAYER, end_to_end
from .workloads import WORKLOADS, workload

__all__ = ["main", "summarize"]

#: The checkout root: passes run from here.
ROOT = Path(__file__).resolve().parents[2]

#: Timed steady-state epochs: the fewest for which the 75th
#: percentile still has 10 samples beyond it.
MIN_EPOCHS = 40
#: Timed epochs of a traced pass (and of the untraced pass that gives
#: its overhead baseline when only the trace is asked for).
TRACE_EPOCHS = 8
#: Epochs the pooled workload re-serves on a serial twin.
TWIN_EPOCHS = 2
#: Wall-clock budget of one single-workload invocation.
BUDGET_S = 175.0


class PassFailed(RuntimeError):
    """A pass subprocess crashed, timed out or printed no result."""


def timed_epochs(seconds: float, nominal_epoch_s: float) -> int:
    """Epochs in ``seconds`` at the workload's reference epoch time.

    The count is fixed from the arguments, never from the clock, so
    both sides of a comparison do the same work.
    """
    return max(MIN_EPOCHS, int(seconds / nominal_epoch_s))


def _run_child(request: Dict[str, Any], timeout_s: float) -> Dict[str, Any]:
    """Run one pass in a fresh process group; returns its result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.fleetbench.runpass",
         json.dumps(request)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        out, err = "", f"pass exceeded its {timeout_s:.0f} s budget"
    finally:
        # Reap the whole group: the pass's pool workers too.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{request['workload_name']} pass failed "
                         f"(exit {proc.returncode}):\n{err[-4000:]}")
    return json.loads(lines[-1])


def _run_pass(request: Dict[str, Any], deadline: float) -> Dict[str, Any]:
    """Run one pass with a fresh temp dir that is deleted afterwards."""
    tmp_root = ROOT / ".fleetbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=tmp_root)
    try:
        return _run_child(dict(request, tmp=tmp),
                          max(1.0, deadline - time.monotonic()))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another pass still uses it


def _digest(epoch_digests: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(epoch_digests).encode()).hexdigest()


def _git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` (None outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _filesystem(path: Path) -> Optional[str]:
    """Type of the filesystem holding ``path`` (from the mount table)."""
    target = str(path.resolve())
    best, fstype = "", None
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return None
    for line in mounts:
        fields = line.split()
        mount = fields[1] if len(fields) > 2 else ""
        inside = target == mount or target.startswith(mount.rstrip("/")
                                                      + "/")
        if inside and len(mount) > len(best):
            best, fstype = mount, fields[2]
    return fstype


def _meta(args: argparse.Namespace, wall_s: float) -> Dict[str, Any]:
    def version(package: str) -> Optional[str]:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {"cpus": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "commit": _git_commit(), "seed": args.seed,
            "seconds": args.seconds,
            "tmp_filesystem": _filesystem(ROOT),
            "wall_s": wall_s}


def summarize(untraced: Dict[str, Any],
              traced: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One workload's report from its untraced and traced pass results.

    The traced pass must render the same epochs as the untraced one;
    its overhead compares the two over the epochs both timed.
    """
    report: Dict[str, Any] = {
        "metrics": end_to_end(untraced),
        "digest": _digest(untraced["epoch_digests"]),
        "violations": list(untraced["violations"]),
        "attempted": untraced["attempted"], "failed": untraced["failed"],
        "epochs": len(untraced["epoch_s"]),
        "n_users": untraced["n_users"],
        "slowdown": untraced["slowdown"]}
    if "stream" in untraced:
        report["stream"] = untraced["stream"]
    if traced is None:
        return report
    both = min(len(untraced["epoch_digests"]), len(traced["epoch_digests"]))
    if untraced["epoch_digests"][:both] != traced["epoch_digests"][:both]:
        report["violations"].append(
            "traced and untraced passes rendered different epochs")
        report["failed"] += 1
    report["violations"].extend(traced["violations"])
    report["attempted"] += traced["attempted"]
    report["failed"] += traced["failed"]
    timed = len(traced["epoch_s"])
    base = statistics.median(untraced["epoch_s"][:timed])
    report["layers"] = dict(
        traced["layers"],
        **{"trace.overhead": statistics.median(traced["epoch_s"]) / base - 1})
    return report


def _workload_report(name: str, args: argparse.Namespace,
                     deadline: float) -> Dict[str, Any]:
    """Run a workload's passes in subprocesses and summarize them."""
    load = workload(name)
    trace_only = bool(args.trace) and args.workload is not None
    request: Dict[str, Any] = {
        "workload_name": name, "seed": args.seed,
        "epochs": (TRACE_EPOCHS if trace_only
                   else timed_epochs(args.seconds, load.nominal_epoch_s)),
        "twin_epochs": TWIN_EPOCHS if load.pooled else 0}
    if trace_only:
        request.update(setups=1, resumes=1)
    untraced = _run_pass(request, deadline)
    if not args.trace:
        return summarize(untraced)
    trace_out = None
    if args.trace_out is not None:
        path = Path(args.trace_out)
        trace_out = str(path if args.workload is not None
                        else path.with_name(f"{path.stem}-{name}"
                                            f"{path.suffix}"))
    traced = _run_pass(dict(request, epochs=TRACE_EPOCHS, setups=1,
                            resumes=1, traced=True, twin_epochs=0,
                            trace_out=trace_out), deadline)
    return summarize(untraced, traced)


def _print_report(name: str, report: Dict[str, Any]) -> None:
    print(f"{name}: {report['n_users']} users, {report['epochs']} timed "
          f"epochs, times in reference seconds (this machine ran "
          f"{report['slowdown']:.3f}x slower), digest {report['digest']}")
    for metric in END_TO_END:
        value = report["metrics"][metric.name]
        bound = ("" if metric.bound is None
                 else f"  (bound {metric.bound:.0%})")
        print(f"  {metric.name:<22} {value:>14.6g} {metric.unit:<8} "
              f"{metric.better} is better{bound}")
    if "stream" in report:
        stream = report["stream"]
        print(f"  stream: {stream['records']} records, "
              f"{stream['omitted']} omitted "
              f"({stream['omission_rate']:.2%}), quiet share "
              f"{stream['quiet_share']:.2f}, "
              f"{stream['segments_per_building']:g} segments/building")
    for metric in PER_LAYER if "layers" in report else ():
        print(f"  {metric.name:<36} {report['layers'][metric.name]:>12.6g}"
              f" {metric.unit}")
    for problem in report["violations"]:
        print(f"  VIOLATION: {problem}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.fleetbench",
        description="Absolute end-to-end and per-layer cost of a "
                    "wolt serve epoch.")
    parser.add_argument("--workload", choices=[w.name for w in WORKLOADS],
                        help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=2020)
    parser.add_argument("--seconds", type=float, default=16.0,
                        help="timed length at the reference epoch time "
                             f"(at least {MIN_EPOCHS} epochs run)")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=0, choices=(0, 1),
                        help="add a traced pass for per-layer metrics")
    parser.add_argument("--trace-out", help="write spans here as JSONL")
    parser.add_argument("--out", help="write the full report here as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    start = time.monotonic()
    names = ([args.workload] if args.workload is not None
             else [w.name for w in WORKLOADS])
    deadline = start + (BUDGET_S if args.workload is not None
                        else BUDGET_S * 2 * len(names))
    try:
        reports = {name: _workload_report(name, args, deadline)
                   for name in names}
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 2
    wall_s = time.monotonic() - start
    meta = _meta(args, wall_s)
    for name, report in reports.items():
        _print_report(name, report)
    print("meta: " + json.dumps(meta, sort_keys=True))
    if args.out is not None:
        atomic_write_text(args.out, json.dumps(
            {"meta": meta, "workloads": reports}, indent=2) + "\n")
    chosen = PER_LAYER if args.trace else GATED
    metrics: Dict[str, Dict[str, Any]] = {}
    for name, report in reports.items():
        values = report["layers"] if args.trace else report["metrics"]
        prefix = "" if args.workload is not None else f"{name}."
        for metric in chosen:
            metrics[prefix + metric.name] = {"value": values[metric.name],
                                             "unit": metric.unit}
    failed = sum(r["failed"] for r in reports.values())
    correct = (failed == 0
               and not any(r["violations"] for r in reports.values()))
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"]
                                       for r in reports.values()),
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1

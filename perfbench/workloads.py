"""The benchmark's workloads: inputs made from the seed, the operations
that run the program, the end-to-end metrics and the traced runs.

Every operation starts the program as a child process through
launch.py, so the benchmark process never imports the package under
test. The benchmark plays the laboratory in sessions; in the study the
program draws its own noise.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

import reference as ref
import tracer

N_MAX = 2000
SETUP_STUDIES = 2  # mc-study: set-up studies after each study
MC_REPLICATES = 8  # two chunks of the study's pool.map, one per worker
MC_CHECKPOINTS = (200, 2000)
MC_WORKERS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s: children still alive then are killed


def input_seed(seed: int, index: int) -> int:
    """The program's `seed` for input `index` of a run."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0] >> 1)


def lab_noise(sc: ref.Scenario, seed: int, index: int, n: int) -> np.ndarray:
    """The noise the benchmark adds to the responses it sends in a session."""
    return sc.sigma * np.random.default_rng([seed, index, 1]).standard_normal(n)


class Bench:
    """One benchmark run: where it works, what it counted, what it found."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root, self.work, self.seed = root, work, seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._children: list[Child] = []
        self._serial = 0
        self._deadline = time.perf_counter() + RUN_LIMIT_S

    def tag(self, kind: str) -> str:
        self._serial += 1
        return f"{kind}{self._serial}"

    def config(self, tag: str, cfg: dict) -> str:
        cfg["output"] = {"dir": str(self.work), "prefix": tag}
        path = self.work / f"{tag}_config.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def spawn(self, tag: str, args: list[str], spans: bool, **popen) -> "Child":
        cmd = [sys.executable, str(self.root / "perfbench" / "launch.py")]
        if spans:
            cmd += ["--spans", str(self.work / f"{tag}_spans.json")]
        timeout = max(1.0, self._deadline - time.perf_counter())
        child = Child(cmd + args, self.work / f"{tag}.log", timeout, **popen)
        self._children.append(child)
        return child

    def count(self, attempted: int, failed: int, what: str, log: Optional[Path] = None) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            tail = log.read_text()[-2000:] if log is not None and log.exists() else ""
            print(f"{what}: {failed} of {attempted} operations failed\n{tail}", file=sys.stderr)

    def check(self, what: str, errors: list[str]) -> None:
        self.errors += [f"{what}: {e}" for e in errors]

    def stop_children(self) -> None:
        for child in self._children:
            child.stop()


class Child:
    """A program process in its own session, killed after `timeout` seconds."""

    def __init__(self, cmd: list[str], log: Path, timeout: float, **popen):
        self.log = log
        self.start = time.perf_counter()
        with open(log, "wb") as err:
            self.proc = subprocess.Popen(cmd, stderr=err, start_new_session=True, **popen)
        self._timer = threading.Timer(timeout, self._kill)
        self._timer.start()
        self.returncode: Optional[int] = None
        self.end = self.rss_mb = 0.0

    def _kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    def reap(self) -> int:
        """Wait for the process; records its end time and peak RSS (its
        own or a waited-for child's, whichever is larger)."""
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.end = time.perf_counter()
        self._timer.cancel()
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.rss_mb = usage.ru_maxrss / 1024.0
        return self.returncode

    def stop(self) -> None:
        if self.returncode is None:
            self._kill()
            self.reap()


# --------------------------------------------------------------------------
# Operations
# --------------------------------------------------------------------------


@dataclass
class SessionRun:
    tag: str
    wall: float  # launch to exit
    setup: float  # launch to the first ESTIMATE: the first step can be taken
    steps: int
    rss_mb: float
    latencies: list[float]  # OBSERVE written -> next SUGGEST read, adaptive steps
    xs: list[float] = field(repr=False)
    ys: list[float] = field(repr=False)
    spans: Optional[Path] = None


def session(bench: Bench, sc: ref.Scenario, n_max: int, index: int, spans: bool = False) -> Optional[SessionRun]:
    """One closed-loop `adwynn session`, answered by the benchmark's lab.

    The benchmark and the program share one CPU while it runs. Every step
    wakes the other side; across CPUs of a virtual machine that wake-up
    costs a variable 0.1 to 0.5 ms, set by the load of other guests, which
    would be measured in place of the program. The program inherits the
    benchmark's CPU when it is started.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        return _session(bench, sc, n_max, index, spans)
    finally:
        os.sched_setaffinity(0, cpus)


def _session(bench: Bench, sc: ref.Scenario, n_max: int, index: int, spans: bool) -> Optional[SessionRun]:
    tag = bench.tag("session")
    cfg = bench.config(tag, {"model": sc.model_config(), "wynn": {"n_max": n_max},
                             "seed": input_seed(bench.seed, index)})
    noise = lab_noise(sc, bench.seed, index, n_max)
    theta_bar = np.asarray(sc.theta_bar)
    child = bench.spawn(tag, ["cli", "session", "--config", cfg], spans,
                        stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    out, inp = child.proc.stdout, child.proc.stdin
    xs: list[float] = []
    ys: list[float] = []
    latencies: list[float] = []
    setup = None
    sent = 0.0
    adaptive = False  # the last OBSERVE answered an adaptive SUGGEST
    steps = errs = 0
    try:
        for line in out:
            now = time.perf_counter()
            word = line[:8]
            if word.startswith(b"SUGGEST"):
                if adaptive:
                    latencies.append(now - sent)
                if len(ys) == n_max:  # asked for more than n_max responses
                    errs += 1
                    break
                x = float(line.split()[2])
                y = float(sc.mu(x, theta_bar)) + float(noise[len(ys)])
                xs.append(x)
                ys.append(y)
                adaptive = setup is not None
                steps += adaptive
                sent = time.perf_counter()
                inp.write(b"OBSERVE %r\n" % y)
                inp.flush()
            elif word.startswith(b"ESTIMATE") and setup is None:
                setup = now - child.start
            elif word.startswith(b"ERR"):
                errs += 1
    except BrokenPipeError:
        pass
    rc = child.reap()
    failed = errs + int(rc != 0 or setup is None)
    bench.count(len(ys) + 1, failed, f"session {tag}", child.log)
    if failed:
        return None
    return SessionRun(tag, child.end - child.start, setup, steps, child.rss_mb,
                      latencies, xs, ys, _spans(bench, tag, spans))


def check_session(bench: Bench, sc: ref.Scenario, run: SessionRun) -> None:
    traj = ref.Traj.load(bench.work / f"{run.tag}_trajectory.json")
    if not (np.array_equal(traj.points, run.xs) and np.array_equal(traj.responses, run.ys)):
        bench.check(run.tag, ["trajectory does not hold the suggested points and sent responses"])
    bench.check(run.tag, ref.check_path(sc, traj, simulated=False))


@dataclass
class ProcRun:
    tag: str
    wall: float
    rss_mb: float
    spans: Optional[Path] = None


def study(bench: Bench, sc: ref.Scenario, replicates: int, checkpoints, workers: int,
          index: int, spans: bool = False, keep: bool = True) -> Optional[ProcRun]:
    """One Monte Carlo study; with `keep`, every path is kept and diagnosed.

    Its wall time ends at the DONE mark, before the checks' data is saved.
    """
    tag = bench.tag("study")
    cfg = bench.config(tag, {
        "model": sc.model_config(),
        "theta_bar": list(sc.theta_bar),
        "noise": {"variant": "iid_gaussian", "sigma": sc.sigma},
        "mc": {"replicates": replicates, "checkpoints": list(checkpoints),
               "workers": workers, "keep_paths": replicates if keep else 0},
        "seed": input_seed(bench.seed, index),
    })
    checks = str(bench.work / f"{tag}_checks.npz")
    child = bench.spawn(tag, ["study", cfg, checks], spans, stdout=subprocess.PIPE)
    marks = [line.split() for line in child.proc.stdout if line.startswith(b"DONE ")]
    rc = child.reap()
    ok = rc == 0 and len(marks) == 1
    failed_replicates = replicates
    if ok:
        with open(bench.work / f"{tag}_mc.json") as fh:
            failed_replicates = len(json.load(fh)["failed_replicates"])
    bench.count(replicates + 1, failed_replicates + int(not ok), f"study {tag}", child.log)
    if failed_replicates or not ok:
        return None
    return ProcRun(tag, float(marks[0][1]) - child.start, child.rss_mb, _spans(bench, tag, spans))


def check_studies(bench: Bench, sc: ref.Scenario, runs: list[ProcRun]) -> None:
    """Checks every kept path, and the error decrease over all studies."""
    errors_at = {n: [] for n in MC_CHECKPOINTS}
    for run in runs:
        with open(bench.work / f"{run.tag}_mc.json") as fh:
            report = json.load(fh)
        data = np.load(bench.work / f"{run.tag}_checks.npz")
        for n in MC_CHECKPOINTS:
            errors_at[n] += report["per_checkpoint"][str(n)]["error_samples"]
        theta_bar = np.asarray(sc.theta_bar)
        for r in range(int(data["kept"])):
            traj = ref.Traj(*(data[k][r] for k in (
                "points", "responses", "n_start", "rec_n", "x_next", "theta",
                "logdet", "max_d", "y_next", "theta_hat", "sse_value")))
            what = f"{run.tag} path {r}"
            bench.check(what, ref.check_path(sc, traj, simulated=True))
            err = float(np.linalg.norm(traj.theta_hat - theta_bar))
            if abs(report["per_checkpoint"][str(N_MAX)]["error_samples"][r] - err) > 1e-12:
                bench.check(what, ["reported error at n_max is not |theta_hat - theta_bar|"])
            found = int(data["clusters_found"][r])
            bench.check(what, ref.check_clusters(sc, found, data["cluster_ranges"][r][:found]))
            bench.check(what, ref.check_window_mass(sc, data["window_stages"], data["window_masses"][r]))
        if int(data["kept"]) != report["replicates"]:
            bench.check(run.tag, ["not every replicate's path was kept"])
    early, late = (float(np.median(errors_at[n])) for n in MC_CHECKPOINTS)
    if not late < early:
        bench.check("study", [f"median error {late:.4g} at n = {MC_CHECKPOINTS[1]} is not below "
                              f"{early:.4g} at n = {MC_CHECKPOINTS[0]}"])


def _spans(bench: Bench, tag: str, spans: bool) -> Optional[Path]:
    return bench.work / f"{tag}_spans.json" if spans else None


# --------------------------------------------------------------------------
# End-to-end runs
# --------------------------------------------------------------------------
#
# The host's speed swings by up to 1.7x within a minute, and single
# steps are slowed by interference bursts. Every input is therefore
# played PLAYS times, the plays spread over the run, and a time figure is
# the best of them: interference only ever adds time. Sessions are timed
# step by step, each step at its best play. The best of more plays is
# not steadier: it follows the host's fastest moments, which come and go
# with the minute, while medians over inputs average the minutes out.

PLAYS = 3
PROBES = 2  # mc-study: probe sessions after each study
PROBE_N = 1000  # mc-study: a probe session's n_max


def _require(runs: list, what: str) -> list:
    if not runs:
        raise RuntimeError(f"no {what} completed; nothing to measure")
    return runs


def _median(values) -> float:
    return float(np.median(list(values)))


def _plays(seconds: float, play) -> list[list]:
    """Plays inputs 0, 1, ... until about `seconds / PLAYS` have passed
    (always at least one), then plays the same inputs again, in order,
    PLAYS - 1 more times. Returns, per input, its plays' results."""
    start = time.perf_counter()
    first = [play(0)]
    while (time.perf_counter() - start) * (len(first) + 1) / len(first) <= seconds / PLAYS:
        first.append(play(len(first)))
    plays = [first] + [[play(i) for i in range(len(first))] for _ in range(PLAYS - 1)]
    return [list(p) for p in zip(*plays)]


def _complete(runs: list) -> list:
    """The inputs whose every play succeeded."""
    return [r for r in runs if None not in r]


def _same_sessions(bench: Bench, plays: list[SessionRun]) -> bool:
    if all(p.xs == plays[0].xs and p.ys == plays[0].ys for p in plays):
        return True
    bench.check(plays[0].tag, ["plays of the same input took different paths"])
    return False


def _best_steps(plays: list[SessionRun]) -> np.ndarray:
    """The best of the plays at every adaptive step, in seconds."""
    return np.min([p.latencies for p in plays], axis=0)


def _best_wall(plays: list[SessionRun]) -> float:
    """A session's wall time with its set-up, every adaptive step and the
    rest (starting design, final fit, writing, exit) each at its best play."""
    rest = min(p.wall - p.setup - sum(p.latencies) for p in plays)
    return min(p.setup for p in plays) + float(_best_steps(plays).sum()) + rest


def _latency(inputs: list[list[SessionRun]]) -> dict[str, float]:
    """p50 and p99 of the best step times of every input together: about
    2000 steps or more, so 20 or more lie beyond p99."""
    best = np.concatenate([_best_steps(plays) for plays in inputs]) * 1e3
    return {
        "suggest_latency_p50_ms": float(np.percentile(best, 50)),
        "suggest_latency_p99_ms": float(np.percentile(best, 99)),
    }


def _checked_sessions(bench: Bench, sc: ref.Scenario, inputs: list[list]) -> list[list[SessionRun]]:
    """Checks every session; returns the inputs whose plays all succeeded
    and took the same path."""
    for plays in inputs:
        for s in plays:
            if s is not None:
                check_session(bench, sc, s)
    return [p for p in _complete(inputs) if _same_sessions(bench, p)]


def session_mm(bench: Bench, seconds: float) -> dict[str, float]:
    """Plays of one 2000-step session per input. Throughput counts the
    adaptive steps per second of their best step times. The set-up time
    is the median over every session; the peak RSS is the largest."""
    sc = ref.MICHAELIS_MENTEN
    inputs = _plays(seconds, lambda i: session(bench, sc, N_MAX, i))
    inputs = _require(_checked_sessions(bench, sc, inputs), "session")
    runs = [s for plays in inputs for s in plays]
    return {
        "setup_s": _median(s.setup for s in runs),
        "steps_per_s": sum(p[0].steps for p in inputs) / sum(_best_steps(p).sum() for p in inputs),
        **_latency(inputs),
        "replicates_per_s": _median(1.0 / _best_wall(plays) for plays in inputs),
        "peak_rss_mb": max(s.rss_mb for s in runs),
    }


def mc_study(bench: Bench, seconds: float) -> dict[str, float]:
    """Plays of one study per input, each followed by SETUP_STUDIES cuts of
    it at its starting designs, whose median wall time is the set-up
    time, and by PROBES PROBE_N-step sessions on the same scenario for
    the suggestion latency: every workload reports every end-to-end
    metric, and a study has no suggestions to wait for."""
    sc = ref.MICHAELIS_MENTEN
    n_start = None

    def play(i: int):
        nonlocal n_start
        run = study(bench, sc, MC_REPLICATES, MC_CHECKPOINTS, MC_WORKERS, i)
        if run is not None and n_start is None:
            n_start = int(np.load(bench.work / f"{run.tag}_checks.npz")["n_start"][0])
        cuts = [study(bench, sc, 2, [n_start], MC_WORKERS, i, keep=False)
                for _ in range(SETUP_STUDIES if n_start is not None else 0)]
        return run, cuts, [session(bench, sc, PROBE_N, PROBES * i + k) for k in range(PROBES)]

    inputs = _plays(seconds, play)
    studies = _require(_complete([[run for run, _, _ in plays] for plays in inputs]), "study")
    check_studies(bench, sc, [run for plays in studies for run in plays])
    probes = _checked_sessions(bench, sc, [[ss[k] for _, _, ss in plays]
                                           for plays in inputs for k in range(PROBES)])
    cuts = [c for plays in inputs for _, cs, _ in plays for c in cs if c is not None]
    setup_s = _median(c.wall for c in _require(cuts, "set-up study"))
    best = [min(run.wall for run in plays) for plays in studies]
    return {
        "setup_s": setup_s,
        "steps_per_s": _median(MC_REPLICATES * (N_MAX - n_start) / (w - setup_s) for w in best),
        **_latency(_require(probes, "probe session")),
        "replicates_per_s": _median(MC_REPLICATES / w for w in best),
        "peak_rss_mb": max(run.rss_mb for plays in studies for run in plays),
    }


# --------------------------------------------------------------------------
# Traced runs
# --------------------------------------------------------------------------


def _layers(traced, untraced: list, pool_efficiency: float = 0.0) -> dict[str, float]:
    with open(traced.spans) as fh:
        metrics = tracer.layer_metrics([json.load(fh)])
    metrics["analysis.pool_efficiency"] = pool_efficiency
    metrics["trace.overhead_s"] = traced.wall - float(np.mean([r.wall for r in untraced]))
    return metrics


def _succeeded(runs: list) -> list:
    if None in runs:
        raise RuntimeError("an operation of the traced run failed")
    return runs


def session_mm_traced(bench: Bench) -> dict[str, float]:
    """The input-0 session untraced, traced, and untraced again."""
    sc = ref.MICHAELIS_MENTEN
    first, traced, last = _succeeded([session(bench, sc, N_MAX, 0, spans=(k == 1)) for k in range(3)])
    for s in (first, traced, last):
        check_session(bench, sc, s)
    return _layers(traced, [first, last])


def mc_study_traced(bench: Bench) -> dict[str, float]:
    """The input-0 study on the pool, then serially untraced and traced.

    Tracing runs with one worker, in-process, so counts do not depend on
    the pool; the serial run also gives the pool's efficiency.
    """
    sc = ref.MICHAELIS_MENTEN
    pooled, serial, traced = _succeeded([
        study(bench, sc, MC_REPLICATES, MC_CHECKPOINTS, MC_WORKERS, 0),
        study(bench, sc, MC_REPLICATES, MC_CHECKPOINTS, 1, 0),
        study(bench, sc, MC_REPLICATES, MC_CHECKPOINTS, 1, 0, spans=True),
    ])
    check_studies(bench, sc, [pooled, serial, traced])
    return _layers(traced, [serial], serial.wall / (MC_WORKERS * pooled.wall))


WORKLOADS = {
    "session-mm": (session_mm, session_mm_traced),
    "mc-study": (mc_study, mc_study_traced),
}

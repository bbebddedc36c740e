"""Closed-loop session benchmark for dualgc.

One caller thread runs whole ``run_session`` calls one after another on a
fixed workload, checks every verdict against the plaintext auction and the
README guarantees, and reports the end-to-end metrics (``--trace 0``) or,
in a separate traced run, the per-layer metrics (``--trace 1``). The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``perfbench/README.md``
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from time import perf_counter

from dualgc import messages as M
from dualgc.auction import AuctionConfig, build_auction_circuit, oracle_run
from dualgc.errors import ProtocolError
from dualgc.session import (BEHAVIORS, STATUS_ACCEPT, STATUS_REJECT,
                            AdversaryScript, run_session)
from dualgc.transport import InProcessTransport, TcpTransport

import tracing

HERE = Path(__file__).resolve().parent
SETUP_PROBE = HERE / "setup_probe.py"
SPANS_DIR = HERE / "out"

SETUP_PROBES = 11         # fresh processes a run at least; setup_s: median
PROBE_TIMEOUT_S = 60

END_TO_END = {            # name -> unit, in BENCHMARK.json order
    "session_s": "s",
    "sessions_per_s": "1/s",
    "bytes_per_session": "bytes",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: AuctionConfig
    bidders: int
    s: int = 10
    tcp: bool = False
    attacks: bool = False

    @property
    def behaviors(self) -> tuple:
        """One cycle of the session list: None is an honest session."""
        return (None,) + BEHAVIORS if self.attacks else (None,)


def _auction(vm_types: int, weights: tuple[int, ...]) -> AuctionConfig:
    return AuctionConfig(vm_types=vm_types, capacities=(3,) * vm_types,
                         weights=weights, width=16)


WORKLOADS = {w.name: w for w in (
    # Garbling is about 3/4 of session time: moves with the compute layer.
    Workload("honest-n6m2", _auction(2, (1, 2)), bidders=6),
    # Input phase is about 3/4 of the bytes and frames cross loopback
    # sockets: moves with input-phase, codec and transport changes. Not in
    # BENCHMARK.json: its 13 s sessions leave one or two timed samples in
    # a run the gated run budget allows.
    Workload("honest-n8m6-tcp", _auction(6, (1,) * 6), bidders=8, tcp=True),
    # Every scripted cheat once per cycle: the only workload that reaches
    # arbitration, abort broadcasts and failure proofs.
    Workload("attack-mix-n2m2", _auction(2, (1, 2)), bidders=2,
             attacks=True),
)}


@dataclass(frozen=True)
class Job:
    index: int
    seed: int
    bids: tuple
    behavior: str | None


def jobs(workload: Workload, seed: int):
    """The workload's endless session list; the same seed gives the same
    list."""
    rng = random.Random(f"perfbench:{workload.name}:{seed}")
    config = workload.config
    index = 0
    while True:
        for behavior in workload.behaviors:
            bids = tuple(
                tuple((rng.randint(0, config.max_quantity),
                       rng.randint(0, config.max_bid))
                      for _ in range(config.vm_types))
                for _ in range(workload.bidders))
            yield Job(index, rng.getrandbits(32), bids, behavior)
            index += 1


@dataclass
class Outcome:
    job: Job
    wall_s: float = 0.0
    nbytes: int = 0
    signature: str = ""
    problem: str | None = None
    transcript: object = None

    @property
    def completed(self) -> bool:
        return self.transcript is not None


def verdict_problem(config: AuctionConfig, job: Job, result) -> str | None:
    """Why ``result`` breaks a README guarantee, or None if it keeps them."""
    if result.status == STATUS_ACCEPT and \
            result.result != oracle_run(config, job.bids):
        return "accepted a result that differs from the plaintext auction"
    try:
        result.transcript.audit_output_privacy()
    except ProtocolError as exc:
        return f"output privacy audit failed: {exc}"
    if job.behavior is None:
        if result.status != STATUS_ACCEPT or result.blamed is not None:
            return (f"honest session ended {result.status}, blamed "
                    f"{result.blamed}: {result.reason}")
        return None
    target = AdversaryScript(job.behavior).target
    if result.blamed not in (None, target):
        return f"blamed {result.blamed}, who was not scripted to cheat"
    # A substituted output label names no culprit but its confirmed failure
    # proof defeats it; an inconsistent input that survives the copy audit
    # ends in a reject. Both are allowed by the README.
    caught = result.blamed == target or (
        result.status == STATUS_REJECT and job.behavior in
        ("substitute_output_label", "inconsistent_labels"))
    if not caught:
        return f"{job.behavior} by {target} was not caught: {result.status}"
    return None


def _roles(bidders: int) -> list:
    return ([M.Role(M.P1), M.Role(M.P2)]
            + [M.Role(M.PROVIDER, i) for i in range(bidders)]
            + [M.Role(M.CLOUD)])


def run_job(workload: Workload, job: Job, tracer=None) -> Outcome:
    """Run one session and check its verdict. An exception from the
    program is recorded as the outcome's problem, never raised."""
    outcome = Outcome(job)
    transport = None

    def span(name):
        return nullcontext() if tracer is None else tracer.span(name)

    try:
        with span("transport.setup"):
            transport = (TcpTransport(_roles(workload.bidders))
                         if workload.tcp else InProcessTransport())
        session_transport = (transport if tracer is None
                             else tracing.TracedTransport(tracer, transport))
        with span("session"):
            start = perf_counter()
            result = run_session(workload.config, job.bids, s=workload.s,
                                 seed=job.seed, adversary=job.behavior,
                                 transport=session_transport)
            outcome.wall_s = perf_counter() - start
    except Exception as exc:  # counted as a failed session; the run goes on
        where = traceback.extract_tb(exc.__traceback__)[-1]
        outcome.problem = (f"raised {type(exc).__name__} at "
                           f"{Path(where.filename).name}:{where.lineno}: {exc}")
        return outcome
    finally:
        if transport is not None:
            transport.close()
    outcome.transcript = result.transcript
    outcome.nbytes = sum(e.nbytes for e in result.transcript.entries)
    outcome.signature = result.transcript.signature()
    outcome.problem = verdict_problem(workload.config, job, result)
    return outcome


def check_repeat(first: Outcome, again: Outcome) -> None:
    """A session run twice from the same job must leave the same
    transcript signature."""
    if first.completed and again.completed and \
            first.signature != again.signature and again.problem is None:
        again.problem = (f"session {again.job.index} repeated with another "
                         "transcript signature")


def closed_loop(workload: Workload, seed: int, seconds: float,
                sessions: int | None = None, tracer=None, between=None):
    """Warm up on the first job, then run whole cycles of the session list
    from its start until ``sessions`` sessions are done or, without
    ``sessions``, while the next cycle is expected to end within
    ``seconds``: a cycle as long as the median cycle so far would.

    With a tracer each job runs twice, untraced then traced, so the two
    medians give the tracing overhead. ``between()``, if given, runs before
    each cycle; its time counts towards ``seconds`` but not towards the
    returned wall time. Returns the warm-up outcome, the timed outcomes
    (untraced, traced) and the loop's wall time.
    """
    cycle = len(workload.behaviors)
    warmup = run_job(workload, next(jobs(workload, seed)))
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    cycle_walls: list[float] = []
    paused = 0.0
    start = cycle_start = perf_counter()
    for job in jobs(workload, seed):
        if job.index % cycle == 0:
            now = perf_counter()
            if plain:
                cycle_walls.append(now - cycle_start)
                if sessions is not None:
                    if len(plain) >= sessions:
                        break
                elif now - start + statistics.median(cycle_walls) > seconds:
                    break
            cycle_start = now
            if between is not None:
                between()
                paused += perf_counter() - now
        plain.append(run_job(workload, job))
        if tracer is not None:
            tracer.session = len(traced)
            with tracer.installed():
                traced.append(run_job(workload, job, tracer))
            check_repeat(plain[-1], traced[-1])
    elapsed = perf_counter() - start - paused
    check_repeat(warmup, plain[0])
    return warmup, plain, traced, elapsed


def probe_setup(workload: Workload, probes: int = SETUP_PROBES) -> list[dict]:
    """Cold set-up in fresh processes: import, circuit build, hash."""
    arg = json.dumps({"config": asdict(workload.config),
                      "bidders": workload.bidders})
    out = []
    for _ in range(probes):
        done = subprocess.run([sys.executable, str(SETUP_PROBE), arg],
                              capture_output=True, text=True, check=True,
                              timeout=PROBE_TIMEOUT_S)
        out.append(json.loads(done.stdout.splitlines()[-1]))
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def session_seconds(outcomes) -> float:
    """Each behaviour's median session wall, averaged over the behaviours.

    On the honest workloads this is the plain median. Half the attack mix
    ends in the input phase; a plain median of that bimodal mix falls
    between the modes and swings with their extremes, while every
    behaviour's median is steady.
    """
    walls: dict = {}
    for o in outcomes:
        walls.setdefault(o.job.behavior, []).append(o.wall_s)
    return statistics.fmean(statistics.median(w) for w in walls.values()) \
        if walls else 0.0


def signature_digest(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(o.signature.encode() + b"\n")
    return h.hexdigest()[:16]


def end_to_end_metrics(plain, elapsed, probes) -> dict:
    done = [o for o in plain if o.completed]
    return {
        "session_s": session_seconds(done),
        "sessions_per_s": len(done) / elapsed if elapsed > 0 else 0.0,
        "bytes_per_session": (sum(o.nbytes for o in done) / len(done)
                              if done else 0.0),
        "setup_s": _median([p["setup_s"] for p in probes]),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(workload: Workload, tracer, summary, plain, traced,
                  probes) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the traced sessions, as per-session means."""
    n = max(summary["sessions"], 1)
    gates = len(build_auction_circuit(workload.config,
                                      workload.bidders).gates)
    counts = tracer.counts
    done = [o for o in traced if o.completed]

    def step(stem):
        return tracing.step_totals(summary, stem)

    def per_gate_us(stem):
        busy, calls = step(stem)
        return busy / (calls * gates) * 1e6 if calls else 0.0

    busy = summary["busy"]
    m: dict[str, tuple[float, str]] = {
        "auction.build_s": (_median([p["build_s"] for p in probes]), "s"),
        "circuits.hash_s": (_median([p["hash_s"] for p in probes]), "s"),
        "auction.gates": (probes[0]["gates"], "count"),
    }
    for kind in ("and", "or", "xor", "not"):
        m[f"auction.gates_{kind}"] = (probes[0][f"gates_{kind}"], "count")
    m["auction.input_wires"] = (probes[0]["input_wires"], "count")
    for stem in ("garble", "blob", "parse", "evaluate"):
        m[f"garbling.{stem}_s"] = (step(f"garbling.{stem}")[0] / n, "s")
        if stem in ("garble", "evaluate"):
            m[f"garbling.{stem}_us_per_gate"] = (
                per_gate_us(f"garbling.{stem}"), "us")
    blobs = step("garbling.blob")[1]
    m["garbling.blob_bytes"] = (
        counts["blob_bytes"] / blobs if blobs else 0.0, "bytes")
    for way in ("encode", "decode"):
        m[f"messages.{way}_s"] = (sum(
            t for name, t in busy.items()
            if name.startswith(f"messages.{way}_")) / n, "s")
    frames = {t: 0 for t in tracing.TYPE_NAMES}
    nbytes = dict(frames)
    for o in done:
        for e in o.transcript.entries:
            frames[e.type] += 1
            nbytes[e.type] += e.nbytes
    for t, secs in tracing.decode_time_by_type(summary).items():
        m[f"messages.decode_s.{t}"] = (secs / n, "s")
    for t in tracing.TYPE_NAMES:
        m[f"messages.bytes.{t}"] = (nbytes[t] / n, "bytes")
        m[f"messages.frames.{t}"] = (frames[t] / n, "count")
    for stem in ("material", "toss", "audit", "derive", "hash_tuple",
                 "arbitrate"):
        busy_s, calls = step(f"consistency.{stem}")
        m[f"consistency.{stem}_s"] = (busy_s / n, "s")
        if stem in ("audit", "arbitrate"):
            m[f"consistency.{stem}_calls"] = (calls / n, "count")
        if stem == "toss":
            tosses = counts["combine_calls"]
            m["consistency.retoss_ratio"] = (
                counts["combine_none"] / tosses if tosses else 0.0, "ratio")
    commit_s, commit_calls = step("commitments.commit")
    m["commitments.commit_calls"] = (commit_calls / n, "count")
    m["commitments.commit_s"] = (commit_s / n, "s")
    for stem in ("commit", "verify", "failure_proof"):
        m[f"outputs.{stem}_s"] = (step(f"outputs.{stem}")[0] / n, "s")
    for stem in ("send", "recv"):
        m[f"transport.{stem}_s"] = (step(f"transport.{stem}")[0] / n, "s")
    m["transport.frames"] = (counts["frames"] / n, "count")
    m["transport.bytes"] = (counts["bytes"] / n, "bytes")
    m["transport.setup_s"] = (step("transport.setup")[0] / n, "s")
    for phase in M.PHASES:
        m[f"session.{phase}_s"] = (sum(
            o.transcript.phase_seconds.get(phase, 0.0) for o in done) / n,
            "s")
    for phase in M.PHASES:
        m[f"session.bytes_{phase}"] = (sum(
            e.nbytes for o in done for e in o.transcript.entries
            if e.phase == phase) / n, "bytes")
    m["session.self_s"] = (summary["self_s"] / n, "s")
    m["trace.overhead_s"] = (
        session_seconds(done)
        - session_seconds([o for o in plain if o.completed]), "s")
    return m


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(workload: Workload, seed: int, warmup, plain, traced,
           metrics: dict[str, tuple[float, str]], shares=None) -> dict:
    """Print the human-readable report and return the result object."""
    outcomes = [warmup] + plain + traced
    failed = [o for o in outcomes if o.problem is not None]
    for o in failed:
        print(f"FAILED session {o.job.index} ({o.job.behavior or 'honest'},"
              f" seed {o.job.seed}): {o.problem}")
    done = [o for o in plain if o.completed]
    walls = sorted(o.wall_s for o in done)
    print(f"workload {workload.name} seed {seed}: {len(done)} timed sessions "
          f"after 1 warm-up"
          + (f", {len(traced)} traced" if traced else ""))
    if walls:
        print(f"  session wall min/max {_fmt(walls[0])}/{_fmt(walls[-1])} s")
    print(f"  fail_rate = {len(failed)}/{len(outcomes)} = "
          f"{_fmt(len(failed) / len(outcomes))} (failed/attempted)")
    print(f"  determinism: {len(done)} signatures sha256 "
          f"{signature_digest(done)}, {sum(o.nbytes for o in done)} bytes "
          f"over {len(done)} sessions")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {_fmt(value)} {unit}")
    for layer, share in sorted((shares or {}).items()):
        print(f"  share of traced session time: {layer} {share:.1%}")
    return {"correct": not failed, "attempted": len(outcomes),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()}}


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            sessions: int | None = None, spans_path: Path | None = None
            ) -> dict:
    # One set-up probe before each timed cycle, topped up to SETUP_PROBES
    # afterwards: spread over the run, setup_s sees the same host as the
    # sessions rather than the few seconds before them.
    probe_results: list[dict] = []
    tracer = tracing.Tracer() if trace else None
    warmup, plain, traced, elapsed = closed_loop(
        workload, seed, seconds, sessions, tracer,
        between=lambda: probe_results.extend(probe_setup(workload, 1)))
    probe_results += probe_setup(workload,
                                 max(SETUP_PROBES - len(probe_results), 0))
    if trace:
        summary = tracing.summarize(tracer)
        metrics = layer_metrics(workload, tracer, summary, plain, traced,
                                probe_results)
        shares = tracing.shares(summary)
        if spans_path is not None:
            tracer.write_spans(spans_path)
            print(f"spans written to {spans_path}")
    else:
        metrics = {name: (value, END_TO_END[name]) for name, value in
                   end_to_end_metrics(plain, elapsed,
                                      probe_results).items()}
        shares = None
    return report(workload, seed, warmup, plain, traced, metrics, shares)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--sessions", type=int, default=None,
                        help="untimed: run this many sessions (rounded up "
                             "to whole cycles) instead of --seconds")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    spans_path = None
    if args.trace:
        SPANS_DIR.mkdir(exist_ok=True)
        spans_path = SPANS_DIR / f"spans-{workload.name}-{args.seed}.json"
    result = measure(workload, args.seed, args.seconds, bool(args.trace),
                     args.sessions, spans_path)
    print(json.dumps(result))
    return 0

"""Smoke test of the benchmark on the small session config of
``tests/test_session.py`` (width 4, s=4). It runs in seconds:

    python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import tracing  # noqa: E402
from dualgc import commitments, messages  # noqa: E402
from dualgc import session as session_module  # noqa: E402
from dualgc.auction import AuctionConfig, oracle_run  # noqa: E402
from dualgc.garbling import GarbledCircuit  # noqa: E402
from dualgc.session import Transcript  # noqa: E402

SMALL = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,), width=4,
                      max_bid=15)
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def small(name: str) -> bench.Workload:
    workload = bench.WORKLOADS[name]
    return dataclasses.replace(workload, config=SMALL, s=4,
                               bidders=min(workload.bidders, 3))


def test_every_workload_shape_passes_the_verdict_gate():
    for name in bench.WORKLOADS:
        result = bench.measure(small(name), seed=0, seconds=0, trace=False,
                               sessions=1)
        assert result["correct"] and result["failed"] == 0, name
        expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} \
            == expected
        assert all(v["value"] > 0 for v in result["metrics"].values())
    gated = [w["name"] for w in SPEC["workloads"]]
    assert gated == [w for w in bench.WORKLOADS if w != "honest-n8m6-tcp"]


def test_a_seed_repeats_its_signatures_and_bytes():
    workload = small("attack-mix-n2m2")
    runs = [bench.closed_loop(workload, seed=5, seconds=0, sessions=1)[1]
            for _ in range(2)]
    assert [len(r) for r in runs] == [len(workload.behaviors)] * 2
    assert bench.signature_digest(runs[0]) == bench.signature_digest(runs[1])
    assert [o.nbytes for o in runs[0]] == [o.nbytes for o in runs[1]]
    other = bench.closed_loop(workload, seed=6, seconds=0, sessions=1)[1]
    assert bench.signature_digest(other) != bench.signature_digest(runs[0])


def _wrappable():
    names = {(session_module, n): f for n, f in vars(session_module).items()}
    names.update({(messages, n): f for n, f in vars(messages).items()})
    names[(commitments, "commit")] = commitments.commit
    names[(GarbledCircuit, "tables_blob")] = GarbledCircuit.tables_blob
    return names


def _check_spans(spans):
    by_session = {}
    for index, (name, start, end, parent, sid) in enumerate(spans):
        assert start <= end, name
        if parent < 0:
            assert name in ("session", "transport.setup"), name
            continue
        p_name, p_start, p_end, _pp, p_sid = spans[parent]
        assert parent < index and p_sid == sid
        assert p_start <= start and end <= p_end, (name, p_name)
        if p_name == "session":
            by_session.setdefault(parent, 0.0)
            by_session[parent] += end - start
    for parent, covered in by_session.items():
        _n, start, end, _p, _s = spans[parent]
        assert covered <= end - start


def test_traced_run_nests_spans_and_restores_every_name():
    before = _wrappable()
    for name in ("honest-n8m6-tcp", "attack-mix-n2m2"):
        workload = small(name)
        tracer = tracing.Tracer()
        _warm, plain, traced, _elapsed = bench.closed_loop(
            workload, seed=2, seconds=0, sessions=1, tracer=tracer)
        assert _wrappable() == before
        assert all(o.problem is None for o in plain + traced)
        assert len(traced) == len(plain)
        layers = {tracing.layer_of(s[0]) for s in tracer.spans}
        assert {"session", "garbling", "messages", "consistency",
                "commitments", "outputs", "transport"} <= layers
        _check_spans(tracer.spans)
        probes = bench.probe_setup(workload, probes=1)
        metrics = bench.layer_metrics(workload, tracer,
                                      tracing.summarize(tracer), plain,
                                      traced, probes)
        assert {k: unit for k, (_v, unit) in metrics.items()} == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        assert metrics["transport.frames"][0] > 0
    assert metrics["consistency.arbitrate_calls"][0] > 0
    assert metrics["outputs.failure_proof_s"][0] > 0


def test_failures_are_counted_not_raised():
    workload = small("honest-n6m2")
    bad = bench.Job(0, 1, (((9, 99),),) * 3, None)  # quantity out of range
    outcome = bench.run_job(workload, bad)
    assert outcome.problem.startswith("raised") and not outcome.completed

    bids = (((2, 9),), ((1, 5),), ((3, 14),))
    truth = oracle_run(SMALL, bids)
    wrong = dataclasses.replace(truth, allocations=(0, 0, 0))
    honest = bench.Job(0, 1, bids, None)

    def result(**fields):
        base = dict(status="accept", result=truth, blamed=None, reason="",
                    transcript=Transcript())
        return SimpleNamespace(**{**base, **fields})

    assert bench.verdict_problem(SMALL, honest, result()) is None
    assert "differs" in bench.verdict_problem(SMALL, honest,
                                              result(result=wrong))
    attack = bench.Job(0, 1, bids, "tamper_garbled_gate")
    assert bench.verdict_problem(
        SMALL, attack, result(status="abort", result=None,
                              blamed="P1")) is None
    assert "not scripted" in bench.verdict_problem(
        SMALL, attack, result(status="abort", result=None, blamed="P2"))
    assert "not caught" in bench.verdict_problem(SMALL, attack, result())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "honest-n6m2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "{" not in done.stdout

"""Acceptance suite: every advertised guarantee at its stated tolerance.

Each test covers one end-to-end guarantee and prints a one-line summary
(visible under ``pytest -s``); the PASSED/FAILED verdict per test is the
pass/fail line for that guarantee.  Transcripts from every session run
here are pooled so the final test can audit all of them for output-phase
privacy on top of the static message-flow audit.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from dualgc import commitments
from dualgc.auction import AuctionConfig, circuit_run, oracle_run
from dualgc.circuits import eval_plain
from dualgc.consistency import (coin_toss_commit, coin_toss_open,
                                combine_challenge, generate_cheating_material,
                                generate_input_material)
from dualgc.garbling import (decode, evaluate, garble, random_input_encodings,
                             select_labels)
from dualgc.messages import audit_flow_table
from dualgc.outputs import ACCEPT
from dualgc.session import (BEHAVIORS, STATUS_ACCEPT, STATUS_REJECT,
                            AdversaryScript, run_session)

from oracles import random_circuit, random_inputs, wire_outcome

# Transcripts accumulated by the session-driving tests; the privacy audit
# at the end of the file replays all of them.
TRANSCRIPTS = []


def _line(tag, text):
    print(f"[{tag}] {text}")


def _random_bids(rng, n, m, max_quantity=3, max_bid=100):
    return [tuple((rng.randint(0, max_quantity), rng.randint(0, max_bid))
                  for _ in range(m))
            for _ in range(n)]


def test_criterion_1_honest_sessions_match_plaintext_auction():
    """100 seeded sessions (6 bidders, 2 VM types, capacity 3, s=10, 16-bit):
    every participant accepts and the outputs equal the plaintext auction."""
    config = AuctionConfig(vm_types=2, capacities=(3, 3), weights=(1, 2),
                           width=16)
    start = time.perf_counter()
    for seed in range(100):
        rng = random.Random(f"acceptance:{seed}")
        bids = _random_bids(rng, 6, 2)
        result = run_session(config, bids, s=10, seed=seed)
        TRANSCRIPTS.append(result.transcript)
        assert result.status == STATUS_ACCEPT, f"seed {seed}: {result.reason}"
        # Six bidders plus the cloud, each with an individual Accept verdict.
        assert len(result.decisions) == 7, seed
        assert all(d.status == ACCEPT for d in result.decisions.values()), seed
        assert result.result == oracle_run(config, bids), seed
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0, f"100 sessions took {elapsed:.0f}s"
    _line("criterion 1",
          f"100/100 sessions accepted, outputs bit-exact, {elapsed:.0f}s")


def test_criterion_2_cut_and_choose_soundness_bound():
    """Worst-case odds that an inconsistent input survives the copy checks:
    exhaustively 1/(2^s-2) <= 2^(-s+1) for s in 2..5 (equality at s=2), and
    a 10^4-trial Monte Carlo over the real primitives agrees within 3 sigma."""
    for s in range(2, 6):
        # Valid challenges exclude the all-check and all-evaluate strings.
        challenges = [rho for rho in itertools.product((0, 1), repeat=s)
                      if 0 < sum(rho) < s]
        assert len(challenges) == 2 ** s - 2
        worst = Fraction(0)
        for size in range(1, s):
            for tampered in itertools.combinations(range(s), size):
                # A tampered copy in the check set fails its construction
                # audit; a mixed evaluation set fails the cross-label hash
                # comparison.  The cheat survives only when the evaluation
                # set is exactly the tampered set.
                hits = sum(
                    1 for rho in challenges
                    if {j for j, bit in enumerate(rho) if bit == 0}
                    == set(tampered))
                worst = max(worst, Fraction(hits, len(challenges)))
        assert worst == Fraction(1, 2 ** s - 2)
        assert worst <= Fraction(2, 2 ** s)
        if s == 2:
            assert worst == Fraction(2, 2 ** s)

    s, trials = 5, 10_000
    p = 1 / (2 ** s - 2)
    rng = random.Random("lemma-mc")
    divergent = 0
    for _ in range(trials):
        consistent = [j != 0 for j in range(s)]
        material = generate_cheating_material(
            rng, rng.getrandbits(1), s, consistent)
        share1, com1, op1 = coin_toss_commit(rng)
        share2, com2, op2 = coin_toss_commit(rng)
        assert coin_toss_open(com1, op1, "P1") == share1
        assert coin_toss_open(com2, op2, "P2") == share2
        rho = combine_challenge(share1, share2, 0, s)
        if wire_outcome(material, rho) == "divergent":
            divergent += 1
    rate = divergent / trials
    sigma = math.sqrt(p * (1 - p) / trials)
    assert abs(rate - p) <= 3 * sigma, (rate, p, sigma)
    _line("criterion 2",
          f"exhaustive worst case 1/(2^s-2) for s=2..5; "
          f"MC rate {rate:.4f} vs {p:.4f} (3*sigma={3 * sigma:.4f})")


def test_criterion_3_commitment_count_per_provider(monkeypatch):
    """16 input wires at s=10 cost exactly 16*10*5 = 800 commitments: the
    ``commitments.commit`` calls made while generating their material. A
    copy's leaf is a hash over its five commitments, not a commitment, so
    it adds none."""
    rng = random.Random("volume")
    made = []
    commit = commitments.commit

    def counted(message, randomness):
        made.append(message)
        return commit(message, randomness)

    monkeypatch.setattr(commitments, "commit", counted)
    for _ in range(16):
        generate_input_material(rng, rng.getrandbits(1), 10)
    assert len(made) == 16 * 10 * 5 == 800
    _line("criterion 3", "16 wires x 10 copies -> 800 commitments")


def test_criterion_4_garbled_evaluation_matches_plain_evaluation():
    """1000 random circuits of up to 64 gates, random inputs: decoding the
    garbled evaluation always matches plain evaluation."""
    rng = random.Random("garble-sweep")
    for trial in range(1000):
        circuit = random_circuit(rng)
        inputs = random_inputs(rng, circuit)
        enc = random_input_encodings(circuit, rng)
        gc = garble(circuit, enc, rng.getrandbits(64))
        bits = {w: v for group, vals in zip(circuit.input_map, inputs)
                for w, v in zip(group, vals)}
        out_labels = evaluate(circuit, gc.tables, select_labels(enc, bits))
        decoded = [decode(group, [gc.output_encodings[w] for w in wires])
                   for group, wires in zip(out_labels, circuit.output_map)]
        assert decoded == eval_plain(circuit, inputs), trial
    _line("criterion 4", "1000/1000 random circuits decode correctly")


def test_criterion_5_scripted_adversaries_are_detected():
    """Seven scripted misbehaviours, 100 seeds each: the deterministic ones
    are caught every time, inconsistent inputs at >= 1 - 2^(-s+1), and no
    run ever accepts a wrong output silently."""
    config = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,),
                           width=4, max_bid=15)
    s = 5
    silent_wrong = 0
    report = []
    for behavior in BEHAVIORS:
        target = AdversaryScript(behavior).target
        detected = 0
        for seed in range(100):
            rng = random.Random(f"attack:{behavior}:{seed}")
            bids = _random_bids(rng, 2, 1, max_bid=15)
            result = run_session(config, bids, s=s, seed=seed,
                                 adversary=behavior)
            TRANSCRIPTS.append(result.transcript)
            # Detection = the cheater is named.  A substituted output label
            # cannot name a culprit, but the confirmed failure proof defeats
            # the attack, so a Reject verdict counts there too.
            if result.blamed == target or (
                    behavior == "substitute_output_label"
                    and result.status == STATUS_REJECT):
                detected += 1
            if (result.status == STATUS_ACCEPT
                    and result.result != oracle_run(config, bids)):
                silent_wrong += 1
        if behavior == "inconsistent_labels":
            # 1 - 2^(-s+1) = 93.75% at s=5; misses surface as divergent
            # Rejects, never as accepted wrong outputs.
            assert detected >= 94, detected
        else:
            assert detected == 100, (behavior, detected)
        report.append(f"{behavior}={detected}")
    assert silent_wrong == 0
    _line("criterion 5",
          "detections/100: " + ", ".join(report) + "; silent wrong outputs: 0")


def test_criterion_6_auction_circuit_is_bit_exact():
    """200 random instances (n <= 10, m <= 3, bids in [0,100], quantities in
    [0,3]) plus a hand-worked instance: circuit and plaintext auction agree
    on every allocation and every fixed-point payment."""
    rng = random.Random("auction-sweep")
    for trial in range(200):
        m = rng.randint(1, 3)
        n = rng.randint(1, 10)
        config = AuctionConfig(
            vm_types=m,
            capacities=tuple(rng.randint(1, 8) for _ in range(m)),
            weights=tuple(rng.randint(1, 3) for _ in range(m)),
            width=16,
        )
        bids = _random_bids(rng, n, m)
        assert circuit_run(config, bids) == oracle_run(config, bids), trial

    # [DERIVED] one type, capacity 1, two single-unit bids at 10 and 6:
    # bidder 0 wins and pays the critical price 6 (fixed point 6 * 2^8).
    config = AuctionConfig(vm_types=1, capacities=(1,), weights=(1,), width=8)
    bids = [((1, 10),), ((1, 6),)]
    result = circuit_run(config, bids)
    assert result == oracle_run(config, bids)
    assert result.allocations == (1, 0)
    assert result.payments_fp == (1536, 0)
    assert result.payments(config) == (6.0, 0.0)
    _line("criterion 6", "200/200 random instances + hand instance bit-exact")


def _r_squared(xs, ys):
    n = len(xs)
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = my - slope * mx
    ss_res = sum((y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys))
    ss_tot = sum((y - my) ** 2 for y in ys)
    return 1.0 - ss_res / ss_tot


def test_criterion_7_traffic_scaling_trends():
    """Bytes on the wire grow super-linearly with bidders, linearly with VM
    types (R^2 >= 0.9), and stay within 5% across capacity values."""
    def run_point(n, m, k, width):
        config = AuctionConfig(vm_types=m, capacities=(k,) * m,
                               weights=(1,) * m, width=width, max_bid=100)
        rng = random.Random(f"sweep:{n}:{m}:{k}")
        bids = _random_bids(rng, n, m)
        result = run_session(config, bids, s=4, seed=7)
        assert result.status == STATUS_ACCEPT
        assert result.result == oracle_run(config, bids)
        TRANSCRIPTS.append(result.transcript)
        return result.transcript.measure()["bytes_total"]

    n_values = (4, 8, 16, 32)
    n_bytes = [run_point(n, 2, 10, 8) for n in n_values]
    first = [b - a for a, b in zip(n_bytes, n_bytes[1:])]
    second = [b - a for a, b in zip(first, first[1:])]
    assert all(d > 0 for d in second), n_bytes

    m_values = (2, 4, 6)
    m_bytes = [run_point(8, m, 10, 8) for m in m_values]
    fit = _r_squared(m_values, m_bytes)
    assert fit >= 0.9, (m_bytes, fit)

    k_bytes = [run_point(4, 2, k, 16) for k in (10, 100, 1000)]
    spread = (max(k_bytes) - min(k_bytes)) / min(k_bytes)
    assert spread <= 0.05, k_bytes
    _line("criterion 7",
          f"bidders {n_values}: {n_bytes} bytes (super-linear); "
          f"VM types {m_values}: R^2={fit:.4f}; "
          f"capacity spread {spread * 100:.2f}%")


def test_criterion_8_output_phase_privacy_audit():
    """Statically, no output-phase message type flows from a provider to a
    computation party; dynamically, no transcript produced by this suite
    routes provider traffic to a party after output openings."""
    audit_flow_table()
    if not TRANSCRIPTS:  # this test ran standalone: produce some traffic
        config = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,),
                               width=4, max_bid=15)
        for seed in range(3):
            rng = random.Random(f"audit:{seed}")
            bids = _random_bids(rng, 2, 1, max_bid=15)
            TRANSCRIPTS.append(
                run_session(config, bids, s=3, seed=seed).transcript)
    for transcript in TRANSCRIPTS:
        transcript.audit_output_privacy()
    _line("criterion 8",
          f"static flow audit + privacy audit over "
          f"{len(TRANSCRIPTS)} transcripts")

"""Command-line behavior: demo output, attack reports, circuit dumps, and
argument validation."""

import random

import pytest

from dualgc.auction import AuctionConfig, gate_count, oracle_run
from dualgc.circuits import eval_plain, from_netlist
from dualgc.cli import main
from dualgc.auction import encode_bid_bits, decode_cloud_bits

FAST = ["--bits", "4", "--max-bid", "15", "--copies", "3",
        "--vm-types", "1", "--capacity", "3"]


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_demo_prints_the_oracle_outcome(capsys, tmp_path):
    bids_file = tmp_path / "bids.csv"
    bids_file.write_text("0,1,10\n1,1,6\n")
    code, out, _ = run_cli(capsys, [
        "demo", "--bids-file", str(bids_file), "--capacity", "1",
        "--bits", "8", "--copies", "3", "--seed", "1"])
    assert code == 0
    assert "winners: 0" in out
    assert "payments: 6 0" in out
    assert "payments_fp: 1536 0" in out
    assert "matches plaintext auction: yes" in out


def test_demo_random_bids_match_oracle(capsys):
    code, out, _ = run_cli(capsys, ["demo", "--bidders", "3", "--seed", "4"]
                           + FAST)
    assert code == 0
    config = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,),
                           width=4, max_bid=15)
    rng = random.Random("demo:4")
    bids = [tuple((rng.randint(0, 3), rng.randint(0, 15))
                  for _ in range(1)) for _ in range(3)]
    oracle = oracle_run(config, bids)
    fp_line = next(l for l in out.splitlines()
                   if l.startswith("payments_fp: "))
    assert tuple(int(x) for x in fp_line.split()[1:]) == oracle.payments_fp
    winners = next(l for l in out.splitlines() if l.startswith("winners:"))
    got = () if "(none)" in winners else tuple(
        int(x) for x in winners.split()[1:])
    assert got == tuple(j for j, x in enumerate(oracle.allocations) if x)


def test_demo_random_bids_fit_a_narrow_value_width(capsys):
    # The default --max-bid 100 does not fit 4 bits; bids are drawn up to 15.
    code, out, _ = run_cli(capsys, ["demo", "--bidders", "2", "--vm-types",
                                    "1", "--bits", "4", "--copies", "2"])
    assert code == 0
    asks = [l.split()[2] for l in out.splitlines() if l.startswith("bidder ")]
    assert len(asks) == 2
    assert all(int(x) <= 15 for ask in asks for x in ask.split("x"))
    assert "matches plaintext auction: yes" in out


def test_demo_missing_bids_file_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, ["demo", "--bids-file", "/nonexistent.csv"]
                           + FAST)
    assert code == 2
    assert "cannot read bids file" in err


def test_attack_reports_full_detection(capsys, tmp_path):
    out = tmp_path / "trials.csv"
    code, text, _ = run_cli(capsys, [
        "attack", "--adversary", "bias_coin_toss", "--trials", "4",
        "--out", str(out)] + FAST)
    assert code == 0
    assert "detected: 4 (100.00%)" in text
    assert "abort phases: input=4" in text
    assert "silent wrong outputs: 0" in text
    assert "honest roles blamed: 0" in text
    rows = out.read_text().splitlines()
    assert rows[0] == "trial,seed,status,blamed,phase,detected,bytes"
    assert len(rows) == 5
    assert all(r.split(",")[2] == "abort" and r.split(",")[3] == "P2"
               for r in rows[1:])


def test_attack_honest_baseline_accepts_everything(capsys):
    code, text, _ = run_cli(capsys, ["attack", "--trials", "3"] + FAST)
    assert code == 0
    assert "detected: 0 (0.00%)" in text
    assert "status counts: accept=3" in text


def test_attack_unknown_adversary_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, [
        "attack", "--adversary", "replay_everything"] + FAST)
    assert code == 2
    assert "unknown adversary" in err


def test_dump_circuit_netlist_round_trips(capsys, tmp_path):
    path = tmp_path / "auction.net"
    code, out, _ = run_cli(capsys, [
        "dump-circuit", "--bidders", "2", "--vm-types", "1", "--capacity",
        "3", "--bits", "3", "--max-bid", "7", "--out", str(path)])
    assert code == 0 and "gates" in out
    circuit = from_netlist(path.read_text())
    config = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,),
                           width=3, max_bid=7)
    assert len(circuit.gates) == gate_count(config, 2)
    bids = [((1, 5),), ((2, 3),)]
    outs = eval_plain(circuit, [encode_bid_bits(config, b) for b in bids])
    assert decode_cloud_bits(config, 2, outs[-1]) == oracle_run(config, bids)


def test_dump_circuit_to_stdout(capsys):
    code, out, _ = run_cli(capsys, [
        "dump-circuit", "--bidders", "1", "--vm-types", "1", "--capacity",
        "1", "--bits", "2", "--max-bid", "3", "--max-quantity", "1"])
    assert code == 0
    assert out.startswith("circuit ")


def test_tcp_flag_validation(capsys):
    code, _, err = run_cli(capsys, ["demo", "--tcp", "localhost"] + FAST
                           + ["--bidders", "2"])
    assert code == 2 and "HOST:PORT" in err
    code, _, err = run_cli(capsys, ["demo", "--tcp", "localhost:abc"] + FAST
                           + ["--bidders", "2"])
    assert code == 2 and "not a number" in err


def test_demo_over_tcp(capsys):
    code, out, _ = run_cli(capsys, [
        "demo", "--bidders", "2", "--seed", "3", "--tcp", "127.0.0.1:0"]
        + FAST)
    assert code == 0
    assert "matches plaintext auction: yes" in out


def test_missing_subcommand_exits_with_usage():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2

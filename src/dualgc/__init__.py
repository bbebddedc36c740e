"""Maliciously secure multi-provider computation with two role-swapped
garbled circuits.

Two computation parties each garble the agreed circuit and evaluate the
other's copy, so a single dishonest party cannot forge the result. Data
providers split their inputs into committed copies; a coin-tossed
cut-and-choose opens some copies for inspection and XORs the rest into the
final wire labels, which makes feeding different inputs to the two circuits
detectable with overwhelming probability. Outputs are committed before they
are opened, so every recipient can verify its result against both circuits
and prove misbehavior to third parties.

The bundled application is a truthful cloud resource auction: bidders are
the data providers, the cloud is an input-less provider that learns the
full outcome, and allocation/payments follow a greedy critical-bidder rule
compiled to Boolean gates.

Typical entry points: :func:`run_session` for a full protocol run,
:func:`oracle_run` for the plaintext auction, :func:`garble` /
:func:`evaluate` / :func:`decode` for the circuit layer, and the ``dualgc``
command-line tool.
"""

from .auction import (AuctionConfig, AuctionResult, build_auction_circuit,
                      circuit_run, encode_bid_bits, gate_count,
                      load_bids_file, oracle_run)
from .circuits import (AND, NOT, OR, XOR, Circuit, eval_plain, from_netlist,
                       to_netlist)
from .commitments import Opening, commit, open_commitment
from .consistency import (WireMaterial, coin_toss_commit, coin_toss_open,
                          combine_challenge, generate_input_material,
                          label_set, labels_consistent,
                          verify_check_failure_claim)
from .errors import (CoinTossCheatError, DecodeError, DualGCError,
                     EncodingCoverageError, EvaluationError, FramingError,
                     InputShapeError, OpeningError, ProtocolError,
                     TransportError, TransportTimeout, UsageError, WidthError)
from .garbling import (Encoding, GarbledCircuit, decode, evaluate, garble,
                       gate_rows, parse_tables_blob, random_input_encodings,
                       select_labels, tabled_gates)
from .messages import MessageType, Role, audit_flow_table
from .outputs import (OutputCommitments, OutputDecision, OutputOpenings,
                      verify_failure_proof, verify_output)
from .session import (AdversaryScript, Session, SessionResult, Transcript,
                      run_session)
from .transport import InProcessTransport, TcpTransport, Transport

__version__ = "0.1.0"

__all__ = [
    "AND", "NOT", "OR", "XOR",
    "AdversaryScript", "AuctionConfig", "AuctionResult", "Circuit",
    "CoinTossCheatError",
    "DecodeError", "DualGCError", "Encoding", "EncodingCoverageError",
    "EvaluationError", "FramingError", "GarbledCircuit",
    "InProcessTransport", "InputShapeError", "MessageType", "Opening",
    "OpeningError", "OutputCommitments", "OutputDecision", "OutputOpenings",
    "ProtocolError", "Role", "Session", "SessionResult",
    "TcpTransport", "Transcript", "Transport", "TransportError",
    "TransportTimeout", "UsageError", "WidthError", "WireMaterial",
    "audit_flow_table", "build_auction_circuit", "circuit_run",
    "coin_toss_commit", "coin_toss_open", "combine_challenge", "commit",
    "decode", "encode_bid_bits", "eval_plain", "evaluate", "from_netlist",
    "garble", "gate_count", "gate_rows", "generate_input_material",
    "label_set", "labels_consistent", "load_bids_file",
    "open_commitment", "oracle_run",
    "parse_tables_blob", "random_input_encodings", "run_session",
    "select_labels", "tabled_gates", "to_netlist",
    "verify_check_failure_claim", "verify_failure_proof", "verify_output",
]

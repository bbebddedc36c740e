"""Golden transcripts: a fixed (config, seed, adversary) grid whose
verdicts, transcript signatures and frame bytes must not change.

The signature covers each frame's phase, sender, receiver, type and size;
the frame digest (sha256 over every frame in send order) covers the bytes
themselves, so a refactor of the wire format or of the session that keeps
both is byte-identical. Runs with the same signature can still differ in
bytes: at seed 0, ``substitute_output_label`` and ``false_output_complaint``
share a signature but not a frame digest.
"""

import hashlib

import pytest

from dualgc.auction import AuctionConfig
from dualgc.session import run_session
from dualgc.transport import InProcessTransport

SMALL = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,), width=4,
                      max_bid=15)
BIDS = [((2, 9),), ((1, 5),), ((3, 14),)]

# (seed, adversary, status, blamed, transcript signature, frame digest)
GOLDEN = [
    (0, None, 'accept', None,
     "ba4037bc46c7f75cbed782d7efbdcf215ca2299439353760e4f8a6d0cda61c62",
     "e04d2e07bac84e2499b7acfa79901279916fe458a1ba30e8ebf4929522248d8a"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "c937c80d6bd8d534ee021ac162e11a5eeea330d605459d10820ee1ce8e725191",
     "d33c07d94ab0d2b3a78d08ebabc8b3d585a8625abd1706105132c0053f246527"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "676f7775a22f46242b169e4487ad346fb6c2b547d994e8e23704ad7916a7de79",
     "fb3c2aa98cf655b252d1790becf73e087a8a306304d200e61e34f642429addae"),
    (0, 'substitute_output_label', 'reject', None,
     "16c48945fb6aadbeb3f16c82b96ec20afad3db6ab4b5e8d40247f3733543348b",
     "1adb2dd0d98571d953b931f8d41c45871f6054269bc8a7ee04942ed8b72ad8ed"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "78482d9ae8fc4fd38e51c12f04a8c97305d592f0b952e339a73bd53cb72240b4",
     "af060479066a1f1cbee46cee9e05db1019f46bfbcc285b3424e94fbd8ebda273"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "88cd72da9fd3ed790ac7bdfea28e36663e30e0f066dd5d6ee3851ff17fb4ada0",
     "222eff21fe87a878ff32afdaef2f568491fe50d9427fdba06626c99fbb8cdd9d"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "964b841419b8c811d6a8758c571af8eddbd5e703131a12acc84dcaee9ecdf040",
     "d70d66c57e755dc1d8b684adeb0dcea17d7aef0710ed350e814662c0f17ab058"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "16c48945fb6aadbeb3f16c82b96ec20afad3db6ab4b5e8d40247f3733543348b",
     "2a2fce6c3f1a14c7e3d69abfdd20b05a62644cb583fd5e3b73cc6062488d9831"),
    (3, None, 'accept', None,
     "a00840ffea6516ca4a8ae9098681e892f36d38cffd227877668c8bd4fd8ae5d5",
     "d77339f35884f5b4f3250df28095976d2938bcf656e4d38721062b4f93899940"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "ccf96a7053a15bdecc1f17e09edcff699fe0db8bd5a0536bbb88ac65cb4bb088",
     "368bf9dd67681e36dd2d84a815694088ba0baf3b22305875552d25688b0101b0"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "52b852f56db01a9faa75092f4d06deef5c81307e607d0b01746ebb84d37d4f35",
     "731ad5136fc9e192fba6d5012cb073c85e1dc22652d5f4a789d6426ab98ddf67"),
    (3, 'substitute_output_label', 'reject', None,
     "c5a68a813e88f0a942727465ab49974a19b61bdd98dddf2848a97282ea2eb7bf",
     "d3f9de9371d4edb5d2dba9f76ada23c1342ad414aca02766cf3bc353355ea625"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "78482d9ae8fc4fd38e51c12f04a8c97305d592f0b952e339a73bd53cb72240b4",
     "ec2ad9a5ba44dd586be197aebfed0897095d85bde2d49229904b5996ecc4009c"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "b9f39ec00d7725317b1842d09a4de5d57e6bb2a170214c09b1958d25c4df873c",
     "0139662572b397214911ef28596defa12ce465203de4ae876f3d037b36edfc91"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "65f93ffdf27acefc07c6587898a9df2f31e5adc72b32d4cf78df1dea0068e254",
     "96587fb7467768e03e28944221f11831b727cb5e18584c9ead63e22f70077fd9"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "c5a68a813e88f0a942727465ab49974a19b61bdd98dddf2848a97282ea2eb7bf",
     "d1215216191eedca22c536f9b81f7d3b44c4ab26a472ba21608ae351e5a72de9"),
    (5, None, 'accept', None,
     "131122211d55cb292b23434ecb2bd4717a501038d7e4ccdfa17020913e75775a",
     "7505443b9c31b4fdd08b67a025277b488cf6d77fcebba7e9b96a0353b26d6768"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "b0bec85fd3ff0733a5b58956009ddefa5bd0dbabfb2866266761f1a3fb8ec804",
     "94cf418f56debfb3727360da887eb949842a05437566915b7e8991248dafc9b0"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "61886f95118d4045c2ba9b28acf1e3b7123369464c3c75dfda12f9445dd06929",
     "9a4bd5fbe0c9459f41040fb24cc27ccf9fb9371c515a42099a03b5cfa45901bb"),
    (5, 'substitute_output_label', 'reject', None,
     "20dd86f3bf3d23650f273eca1adb8b745eaf4b699a3a625de60bca52458015c3",
     "eb9997928806c53434122a552b4029035fe30120aa394608598f3b24e9959e9c"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "78482d9ae8fc4fd38e51c12f04a8c97305d592f0b952e339a73bd53cb72240b4",
     "3f52ae2ae3df4f5c1d329d3a54406e58252f758923d1cd6f025c230b02ce6041"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "fc75064e7e51fc7f27076a6be7601279c64f2cb971b78f4158479d3b9963e746",
     "19d488ef519327ad1a9221dd7e7ed137c8d971a7cd91d2e37edf24b4904ae934"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "809d6b2efaf64beea83522bc6cf0916afb01455ba42502d633e070b9b56e5205",
     "13b745bf128caf035b2d29d39f7cca9638f140ebb08d9de7051ffd6f5ef2d7c5"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "20dd86f3bf3d23650f273eca1adb8b745eaf4b699a3a625de60bca52458015c3",
     "c9267a803065a64b3aa97721a410fb517419d5b27cc1255c03b0413f7793a4a7"),
]


class FrameDigest(InProcessTransport):
    """Hashes every frame in send order."""

    def __init__(self):
        super().__init__()
        self.digest = hashlib.sha256()

    def send(self, sender, receiver, frame):
        self.digest.update(frame)
        super().send(sender, receiver, frame)


@pytest.mark.parametrize(
    "seed,adversary,status,blamed,signature,frames", GOLDEN,
    ids=[f"{row[0]}-{row[1] or 'honest'}" for row in GOLDEN])
def test_golden_transcript(seed, adversary, status, blamed, signature,
                           frames):
    transport = FrameDigest()
    res = run_session(SMALL, BIDS, s=4, seed=seed, adversary=adversary,
                      transport=transport)
    assert (res.status, res.blamed) == (status, blamed)
    assert res.transcript.signature() == signature
    assert transport.digest.hexdigest() == frames

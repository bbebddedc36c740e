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
from dualgc.session import AdversaryScript, run_session
from dualgc.transport import InProcessTransport

SMALL = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,), width=4,
                      max_bid=15)
BIDS = [((2, 9),), ((1, 5),), ((3, 14),)]

# Scripts beyond each behaviour's default: other targets, recipients, wires
# and gate choices.
VARIANTS = {
    "tamper_garbled_gate:gate0-mask01": AdversaryScript(
        "tamper_garbled_gate", gate=0, mask=0x01),
    "tamper_garbled_gate:P2": AdversaryScript("tamper_garbled_gate",
                                              target="P2"),
    "substitute_output_label:P2-recipient1": AdversaryScript(
        "substitute_output_label", target="P2", recipient=1),
    "falsify_check_failure:P2": AdversaryScript("falsify_check_failure",
                                                target="P2"),
    "forge_consistency_proof:P2": AdversaryScript("forge_consistency_proof",
                                                  target="P2"),
    "bias_coin_toss:P1": AdversaryScript("bias_coin_toss", target="P1"),
    "inconsistent_labels:provider1-wires01": AdversaryScript(
        "inconsistent_labels", target="provider:1", wires=(0, 1)),
    "false_output_complaint:provider2": AdversaryScript(
        "false_output_complaint", target="provider:2"),
}

# (seed, adversary or VARIANTS key, status, blamed, transcript signature,
#  frame digest)
GOLDEN = [
    (0, None, 'accept', None,
     "ba4037bc46c7f75cbed782d7efbdcf215ca2299439353760e4f8a6d0cda61c62",
     "e04d2e07bac84e2499b7acfa79901279916fe458a1ba30e8ebf4929522248d8a"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "3ab79c17fe97131508e17e6485c0395dbabb2aecd7c2ba7cdbcd2aef54c8e3ff",
     "89c06ae677174dadff850a4f97ed1c7e427e9d00ca01657d6c17bc7415582640"),
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
    (0, 'tamper_garbled_gate:gate0-mask01', 'abort', 'P1',
     "045d06b37de91d676de09546c92d8146f8872307e0613c9f9cf81714d57646be",
     "7596dae43c879e15f14fb120775c605e83aaa75bde98f500d761a6c36380d820"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "bf848846b5de101ba7f827196feddcbd2d99f65a19122b9c805c08301a185158",
     "0aa859d6ff6ca46a5ff9e018a79faf2d0a9589730098b64d5627a20e9b82bc66"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "8cdd23d160c2c3afd443dfd70fc3747483ac4340474c4ae1898d15a9ff3067ee",
     "63ffd8f5d2036f3c33e49c6fc29bebfa4e091d07946fa4530fe63d9be0811d13"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "97b0b4b20a6f893f7a3f6ab288e1f8541fcf397488e27ea06b25206b31b4e9ed",
     "5bfca0dfa15861e9a25d28c2332ef4e30b054a31ccd8a785e1ba054db5048013"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "3a50ba8c6889de5c4a9c49996ebb96d2911cfee1e80bf88ff449d94d7bf3255b",
     "b1c3d872e9decce1c45c14686a252584700b1c85b63c649284c6b25270dd8291"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "3e1b5d274613ccda0ea519102327b7b00d3ecb6f88f9860fcee07c0a3a5d96ab",
     "0d2e74a51739a5c833aa352f44be296c916e0873a7c3a02664282614f8542ce1"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "3ab79c17fe97131508e17e6485c0395dbabb2aecd7c2ba7cdbcd2aef54c8e3ff",
     "1b3c2c5e9f2b83bcc99e2fb02b3ec50ceb3fef9ca4fab477cc752918e23fb2eb"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "eb1d705001ddcb10b80ed145bffd37018278ff8e2d570177000656d3a4baf565",
     "07a9a6a27ee9ec24b1e8418ce182517f0ef83644bec86cc77dae636d85e7b646"),
    (3, 'tamper_garbled_gate:gate0-mask01', 'abort', 'P1',
     "04eb118ef1f3eadc7a140b7ca86966d45e77450ceb441cb721a5fa2e7c8d5e96",
     "7498db351647121a02f080fc6f5ecbece6eee6ebbf4a739f3d46337377c99830"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "42828820873e904860d57977850d3a16421d6cdfa037d4c7eaebec6c9f96b553",
     "a409d608943be84b6a3cda7f3064b2aa6f4be92f6683678d8660aeecf7637bd5"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "3a6362a61bd7c27122b09de528ab0bccdefdfc4da6ef5dbd3369081bc872ea90",
     "ea07af0c124f451942158fea3036945bcac6839e0063213252dc87226dc85cdb"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "30c480ea8aa14255f0620923f3089ff3231ebc06cc3d3da51984d5737ed6f1b9",
     "ef619d1b04774f2666f35f867dadc2eb6ff12c9b2bea7d805bd90f007fbaaad0"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "70641f2086bbbc00b8efa35d4cc36aa03bc5b3781fccde0bdf63d0f238e1b31a",
     "8fab73c08a666b29bcd3234aaff87e406b0859f59d85c22f6ea9de5199482021"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "3e1b5d274613ccda0ea519102327b7b00d3ecb6f88f9860fcee07c0a3a5d96ab",
     "0bca5e2984e93dea438f9860738ce414b868c35e25bf49290f9134af91fa0289"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "0d296e2d08753c129998845925fd0073c22e6857fe64ef507c65fe9c3021fdda",
     "24060a63e184b27af5869fec8fee1ba5e8028f17ffd811ecd786f3d5aa0ee427"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "5534c87ef4c9da39aa246fe0643e3eb262e51c6ea963ce2a25011157aa81b780",
     "d914ff703de6c87a9d382fd7ce2acb4be18fb1828f6dbfdaea26495e22cb8134"),
    (5, 'tamper_garbled_gate:gate0-mask01', 'abort', 'P1',
     "56292c35ad1c678c22f086dc4ed869ea425e54f03f858890c46dc95bcd7c3fd7",
     "7f50b6e65628cf0614299ad28718333ab6141ac5b4f71e19dae59870d6d3717b"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "60d9f07c8e82e417ae2d30856bb8a6d593d0e0635c5509161371205b618f4fda",
     "29e947bbcf2db93628af78f18a9ad7b7542db3c16b891039d1f715052ee389b1"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "89ea218395bf06d273004136325e199148ce7a3048cb14e462b0043d842c9de3",
     "86e8ad6bb27aa457bffca49e46446e98b1b70a46b98d98fcd57448d45fbec66b"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "2c2697d0e1ae6efa54986a89e88d2c46ceeb2a1048a00be9201d77c119beec84",
     "d63eb7f52691c9c332e32808d12f925bdb8e9633c3d93aade066f0b058ddcd96"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "8a2d54cc97987a55099b617698e59a290750b356e3d75b933c1520015f87f91d",
     "cd1fbbf72d58eab8d9d59e98f7c6fa12aba5039dc3b26406bdd8617d392668a8"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "3e1b5d274613ccda0ea519102327b7b00d3ecb6f88f9860fcee07c0a3a5d96ab",
     "ae90431a16175c569352d7bfced3f81606ecbbfd6765db2797a6467f9acda283"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "b0bec85fd3ff0733a5b58956009ddefa5bd0dbabfb2866266761f1a3fb8ec804",
     "4d39bffef5f62a6c160ba77d13b863175f9b3d6c52535d6b7aecd2d33f3578da"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "02964453b8b9b95b2a6a1995254dcd6cee8938a9953195d1c2aba5dea62c244a",
     "28489913f0d100dc8597035a456f0b31db39066487b05df26889869bb4423d12"),
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
    res = run_session(SMALL, BIDS, s=4, seed=seed,
                      adversary=VARIANTS.get(adversary, adversary),
                      transport=transport)
    assert (res.status, res.blamed) == (status, blamed)
    assert res.transcript.signature() == signature
    assert transport.digest.hexdigest() == frames

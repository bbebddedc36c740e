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
    # Gate 7 is the SMALL circuit's first AND gate, the first with a table.
    "tamper_garbled_gate:gate7-mask01": AdversaryScript(
        "tamper_garbled_gate", gate=7, mask=0x01),
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
     "e453575866aabcc9b61ab0baa99344e6e1550e4fbf69f7504c5fd96d153c24e8",
     "dd7e412745ece16d95f04766039f6884cc4502d9ab808bafa40915153d36bf44"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "3ab79c17fe97131508e17e6485c0395dbabb2aecd7c2ba7cdbcd2aef54c8e3ff",
     "89c06ae677174dadff850a4f97ed1c7e427e9d00ca01657d6c17bc7415582640"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "1521dfbb7c339aab6c08a11fbb70f589cf598e4ebbc2d39cf83345545d94bd8f",
     "8f4fb2dda3eed7e4307c9dbe352b4d37c04ec43610c1e81c4d9fcd5e8aafff38"),
    (0, 'substitute_output_label', 'reject', None,
     "8880693dd394badef39b6920118f5900b719a417a2aa05c6a795ae2298168a37",
     "5e645807a096ce10bc16e956bf20910fbbf695d53278c340f9099d1e7da29060"),
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
     "8880693dd394badef39b6920118f5900b719a417a2aa05c6a795ae2298168a37",
     "4b81e636f7300a50fa8d50c416d47c2da7d1fb628a1a5ffc9232946abfa2715a"),
    (3, None, 'accept', None,
     "0a16384b7d8e7ef139801d63a22c3d8b66371b07d8bb9683351d4e4a9ae68590",
     "7b128d43ca431b0f1e6a5bd32b09f14c0f1fee6c576863387e8edf8f2c242ae7"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "ccf96a7053a15bdecc1f17e09edcff699fe0db8bd5a0536bbb88ac65cb4bb088",
     "368bf9dd67681e36dd2d84a815694088ba0baf3b22305875552d25688b0101b0"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "99cc3b7e93804622241444967af129caa30204edba50dd405549cf724190aff8",
     "b7d4234fdac25be045c7cedf3c3fc573ec6593f200063cb16415c42b13528c59"),
    (3, 'substitute_output_label', 'reject', None,
     "8a28bcdfaac95442281d041e387f5419dc57bafe96fb654abc61380aeb372fd1",
     "0f5170f204e5abb99a1e941675db1f65fe6b839b0b3b65060ab28737f2b2f359"),
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
     "8a28bcdfaac95442281d041e387f5419dc57bafe96fb654abc61380aeb372fd1",
     "fba8123c84606853b2df08987c968e30fe7f7d91f7494d4e2b9f5cedb12e4ab7"),
    (5, None, 'accept', None,
     "b85c32ffb3bd780582f0f1d2d58e55f7249838ad848c48b3f6c91e76b1d5270a",
     "a4c095ef511deab219564885670f5d1a51a1a4675f38e1864cafcb1ba54cf5bb"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "b0bec85fd3ff0733a5b58956009ddefa5bd0dbabfb2866266761f1a3fb8ec804",
     "94cf418f56debfb3727360da887eb949842a05437566915b7e8991248dafc9b0"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "9322a8cc1802d24b2609f07594a7430eea43ad81145d6cff678c33ecb8bb8165",
     "3268fb8fdebcb00ce3f3bc698e90ea130f123f040e00ddee93bbf2a88479cad9"),
    (5, 'substitute_output_label', 'reject', None,
     "deee8d8764407d40553f125d27bba9a60344270e2fdafd8a02acfd6445c61179",
     "0415f02ea48f057f6d0665a3907b687890f4919d6e471dca2a88a870c03f51e5"),
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
     "deee8d8764407d40553f125d27bba9a60344270e2fdafd8a02acfd6445c61179",
     "546b59cbebbb9bd1b33d6affc9cba88a67f4f945646f59c59861945bd3ab954d"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "6c70e4e122086f9740209951bd871f0b37a3dbb5cdb6ed6aa4f1f9e23ad9ff88",
     "e836e3a5a81d483562a529675b2b2b3cbf7ec84a446ba6960ae21c5dbfff1d2e"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "e1341918d66f13c96449a1b1211423956001afe5bd9e6cacc9637b8f2fd1f87c",
     "8abb2f1208ee2fcac661b366bc0b7f6e559714eb4c412aef2f196fb2f1e3e537"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "a37994243bb7ef765ff641da7a74d6b27f9dea09b5a0a808908b46f15d85dfca",
     "37f2efb396c4bbe66f271f18c99e1834016c9759852cd4865b93f9d60511a865"),
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
     "5f9cb30588bc1ca35818f18e211572c54f8eeead0992c4b6ccffcb742cdceeb3",
     "d79bf26904b85f0de28c7b6e8e102a824714d48891b06ffd691e9c77f605ed3e"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "db76f0d5ea9bd6b3e7a5f4904b52080af4952df6639af3bdd26baad256165051",
     "5ccd73f9d7b1a92ef5737ad82d09390099391f6be52cebc145ee9120d0e01b48"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "97168acb035b078f879e41c15689f7c234549e4a847032629e70e947b14d634c",
     "0d286b57364f5eb2108dff42c1f0499a1b7e8f8701fca9a8879f8a7f2288cf99"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "2a52313a42807eec3b50c64686fce1dc634fc38bf6f3152bcf4ac9a45f6d59db",
     "02ec1d0fa6a46456d4e31424ca0bb2fc45f7eecb1852b8a5d1f0adc1f58bfe81"),
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
     "5866936d54a68f2c107cd19eaede807bc402c0d3c66d54eacb520dff48dac612",
     "9c1d1047dd0f53da0a5d2815eeda717b6b20584b4f85020480248e6af4368042"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "cc8009d74c898efee106efa943faf9abd4234fb04f4bcc71365c308138991f7e",
     "4938e38e5f8afae53b5708e38613fac4f73d63ef65f3a997b5e723af3d0661ae"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "43d9144e85cc2929c0b4125f8ff53e70fe2893a040604b43df5f0ed8c6b1bf65",
     "37bd3ff2ae34a04366ac4f19b213027a901f9bb9783aadb074eaaa8e96878832"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "397f7f95c998a2709b87600d5583ed67ebbcddca4914045f570cdafb91eed4b0",
     "1a9a5bd9bd0293a2684cbfc0df96a03a31777f1ebe787ee94c0fe5e9738e1553"),
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
     "bd727d43db1a2810c4718079e962304bef53e1f310946fcb0609912885886241",
     "0f4e83bbb342ce8c14cefd7c4bf97cf00d18cda510bb48fde0f0335acb61f4a5"),
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

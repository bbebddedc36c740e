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
    # Gate 7 is an AND gate of the SMALL circuit, so it has a table.
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
     "64eb86baf31ca3c4d69ccc507855c13c94473f892999fb8cf2384ddf480faff5",
     "8f9ff355a87262c5ff8908735ccea3f356d97ec4d49af24a4dbeeead2f5fb78a"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "3ab79c17fe97131508e17e6485c0395dbabb2aecd7c2ba7cdbcd2aef54c8e3ff",
     "89c06ae677174dadff850a4f97ed1c7e427e9d00ca01657d6c17bc7415582640"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "feba95f9258397ffbe84edfa6b4532f50f958682f1a7e17cdf55353fdfaaae23",
     "4f1df4d365ef128e2e5a942350fe768e4c338898cc3ebaa135e51688c75ce37d"),
    (0, 'substitute_output_label', 'reject', None,
     "23c136089387537a444a233ca84b54d1be0fdff722d49fb9593f5b7dab6453df",
     "e9e63bb9b730b2b99a34d1eda374fa51d2c3f32eb008748a83981bb78e6453fb"),
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
     "23c136089387537a444a233ca84b54d1be0fdff722d49fb9593f5b7dab6453df",
     "e6f7669c1261a47b0c44ec4b1a8ec12499059b3cbfcc021a28add6c69b76a860"),
    (3, None, 'accept', None,
     "4701042d1201400b515a752126a68f56d2401094f3cb6864def954b673c2569c",
     "e5d9e0c7a8aebd6e6806bdd64821604414f9556e0d7f3e6eb28e82ba7a94b660"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "ccf96a7053a15bdecc1f17e09edcff699fe0db8bd5a0536bbb88ac65cb4bb088",
     "368bf9dd67681e36dd2d84a815694088ba0baf3b22305875552d25688b0101b0"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "57170dd786e09446181be9ba789dc576189c654e3f8c2f5acc30a57911eee12b",
     "a02e12344426514514facd4c172852e3978617b2c7c7fe883d7fac7dc54de828"),
    (3, 'substitute_output_label', 'reject', None,
     "2e0193c7dfb06f1f54fc83258431416849da0d701abf75c8e0100d1fd809bd0a",
     "1da9b1fa7c7455d795133735bca17d906e9e0c3c294cd0c2f4e5e719c4f4e3fd"),
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
     "2e0193c7dfb06f1f54fc83258431416849da0d701abf75c8e0100d1fd809bd0a",
     "fed9df4f28369d1bedebcf9b817d5cf4739426561d4848879a5b9f6b9c947514"),
    (5, None, 'accept', None,
     "24ec6113dcf65b69f10a5f9f07ce2cd0e78ef1f57096152a0b5ade739f39f479",
     "71474dc45393ae4fb02d148597457b147b35bc93fb38952debbb3766cf9fcc70"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "b0bec85fd3ff0733a5b58956009ddefa5bd0dbabfb2866266761f1a3fb8ec804",
     "94cf418f56debfb3727360da887eb949842a05437566915b7e8991248dafc9b0"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "c05325798a53015b3f61ac59c7320bc60932f8600c4d0f3466e101f0969e69a6",
     "e49b13576b0214b2aba2a9661d26a13894fef9d9b2ebbf847902e451ec825572"),
    (5, 'substitute_output_label', 'reject', None,
     "239ed5ba183b29944612d871936010e3ea45934e5b6cb04461d135e00a906fbc",
     "ddac256fc08240bbbd5e3ef35fd411f75baba0f41063547e8e06ad45329bfabf"),
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
     "239ed5ba183b29944612d871936010e3ea45934e5b6cb04461d135e00a906fbc",
     "2f3215cdddd023665fa99fcf7661bf8778b38851a5571660f393aea2da44c8a0"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "9f049a8598b6bda663b173652e633e7d111e7bc004e8bd3069ba0055190d2ff2",
     "fccaf5efbd8e983dc4138e53b770910bf894d08eedc6dd7a522310926fae275b"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "e8bb1fbecd0d6f065b3545b07afc26773c5d0c109d337bef2d1f21daece77588",
     "88e69a254b48f70e125188847a91f5bcdfdb65abce6b7ffac152f44f755b866d"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "322534e5c281e0dd217653c19bb2e4b4ad4b1439bf417591019b787af75d61c8",
     "1ae3b156cb09c6bc536e4705278e22f23a48d44e9d58e0840f5ff4da8450f1c2"),
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
     "48605fe29e8d7d2944c090143725b3ea77fc0d8d231b3423d5624c603cf9c995",
     "08d755cb052d57e754707699a85f004cba6242ed6d99d17fb095fd66aacfb831"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "55ddf7bc9142b3747865e5dea76471fdb47de88499271a3dd93288e305c2d56d",
     "277052aed2b9ed821b831303a147b295418cf13b6d43f20c6cbd328c931d81d2"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "ab837572d7ac3b0294ecb330762eb75bda9fe62848354f9e7fa39f536e73424b",
     "9677691f3443572f9949effbf633e4e01f9c591bb9f93e004ab6bd9e613d8d26"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "1d713ab4ce7a9a792b741342fe986f5959b59c34702a9a75dd8aacf09ab60dad",
     "824190f72e8f08edbf344edeac77743e865a4ea6ab017beb326b062f6f6d7711"),
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
     "1e2cbb90dd923773a30ad8c318dc1782a37a7b645563aac45a15cbfa2d30550f",
     "977a61ffd7d8987d3167cd9f110e9621bd7dd46a610cc637de4af268b37742be"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "6d6f006847ad28d8bcfe3442278b2257eb353d3de6368dda536d6f3eac015f65",
     "620b2b63a755784f2a6973580a2b7a1769195b74f432e81496fe68ff341cca7a"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "971651801f78ab86e34b6bdec88dfcef23af8ea32e6ae64cf502180844375804",
     "05f578ebefaaee1eb2307a960fd425786c30f039b7942b48671d1c519d9cb07c"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "4e13780552a7ffbd91e1dd67fb14ddceba9fd93dafeb545f7674eeb162e23aed",
     "c5f272ffeb87a70a3ad6610dff42bf87301bf1b2dcfe8eb9f454b2a19c101f74"),
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
     "b6717062b04699ce72896c3816ec4aec00e918b3e7f992e4ae684ac57d2825e8",
     "065eaabc72702abfb87b9274650b9fa1dfab9c2579f9b6f43902b9c79ba4008b"),
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

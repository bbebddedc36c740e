"""Golden transcripts: a fixed (config, seed, adversary) grid whose
verdicts, transcript signatures and frame bytes must not change.

The signature covers each frame's phase, sender, receiver, type and size;
the frame digest (sha256 over every frame in send order) covers the bytes
themselves, so a refactor of the wire format or of the session that keeps
both is byte-identical. Runs with the same signature can still differ in
bytes: at seed 0, ``substitute_output_label`` and ``false_output_complaint``
share a signature but not a frame digest. The order-free digest (sha256 over
the sorted per-frame digests of sender tag, receiver tag and frame) covers
which frames went over which channel but not their order, so a change that
only reorders the sends of a round keeps it.
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
#  frame digest, order-free frame digest)
GOLDEN = [
    (0, None, 'accept', None,
     "64eb86baf31ca3c4d69ccc507855c13c94473f892999fb8cf2384ddf480faff5",
     "8f9ff355a87262c5ff8908735ccea3f356d97ec4d49af24a4dbeeead2f5fb78a",
     "b5c74204ffddc753d84f2fe6d1beb4d1269bd3025afdf3c8b11f8ae5023368a8"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "3ab79c17fe97131508e17e6485c0395dbabb2aecd7c2ba7cdbcd2aef54c8e3ff",
     "89c06ae677174dadff850a4f97ed1c7e427e9d00ca01657d6c17bc7415582640",
     "981b6b08d98250c81942ffd02e83935ef3f7cd159c3a779b3589dc6f2847ac33"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "feba95f9258397ffbe84edfa6b4532f50f958682f1a7e17cdf55353fdfaaae23",
     "4f1df4d365ef128e2e5a942350fe768e4c338898cc3ebaa135e51688c75ce37d",
     "223472df0529ce787bd54da19667732c6fdf6ea1bd0ed4627b862b091dc6e8bc"),
    (0, 'substitute_output_label', 'reject', None,
     "23c136089387537a444a233ca84b54d1be0fdff722d49fb9593f5b7dab6453df",
     "e9e63bb9b730b2b99a34d1eda374fa51d2c3f32eb008748a83981bb78e6453fb",
     "11ccdbf5fb359bd487d7a70dc93d26d3102f0c4643fd537684195ad3ab921c7c"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "78482d9ae8fc4fd38e51c12f04a8c97305d592f0b952e339a73bd53cb72240b4",
     "af060479066a1f1cbee46cee9e05db1019f46bfbcc285b3424e94fbd8ebda273",
     "1255bb401cca05612fd22b354b72375a4c9c880a5436326febf9f5766cf4560d"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "88cd72da9fd3ed790ac7bdfea28e36663e30e0f066dd5d6ee3851ff17fb4ada0",
     "222eff21fe87a878ff32afdaef2f568491fe50d9427fdba06626c99fbb8cdd9d",
     "f282dde4906547fe3b318651cd491ac1912a2cff9f08e56da912d0e3e4f6198f"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "cb05aaca7eaf3b296d6e6e4fc9f886254b40569d41e67ef51d03210b4e351234",
     "31f159cc4342ee40b265ae648dcdee9e8b7a5e076d52109321e43d9af35bd599",
     "a843e67247d22c04225405bed626f79fc52c24e1dd3ecfb2395493f1200c1172"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "23c136089387537a444a233ca84b54d1be0fdff722d49fb9593f5b7dab6453df",
     "e6f7669c1261a47b0c44ec4b1a8ec12499059b3cbfcc021a28add6c69b76a860",
     "4558da9d450ab2845e8d6cd78e5c291c4318b5bdeea2815d54f3e6f8bdbf1f98"),
    (3, None, 'accept', None,
     "4701042d1201400b515a752126a68f56d2401094f3cb6864def954b673c2569c",
     "e5d9e0c7a8aebd6e6806bdd64821604414f9556e0d7f3e6eb28e82ba7a94b660",
     "c5103141bebae17316c5ee26e7ff37c7a80d9f704e006f17f939c3b59ab6309c"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "e275840289803975b309eac3cb680fa93b6a0e85ce91e62eac8127c75eed7eea",
     "ce0c131abb2f2bbec7fa9325805fb465ec38c2540200e0984cbe09e5e90100b9",
     "da800c1e8967bb9126f0b2f8bd1e4a480454857fc1f715f44a64c431ba82fb12"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "57170dd786e09446181be9ba789dc576189c654e3f8c2f5acc30a57911eee12b",
     "a02e12344426514514facd4c172852e3978617b2c7c7fe883d7fac7dc54de828",
     "dc8bcd683d66acf5c0b81fb67df266a33c1f07bd93eb37cef83966cc76a0f3b6"),
    (3, 'substitute_output_label', 'reject', None,
     "2e0193c7dfb06f1f54fc83258431416849da0d701abf75c8e0100d1fd809bd0a",
     "1da9b1fa7c7455d795133735bca17d906e9e0c3c294cd0c2f4e5e719c4f4e3fd",
     "07baff12fc4cb9ea537975dc404a05ff1197085d51bd49a2b84a10686b44d93a"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "78482d9ae8fc4fd38e51c12f04a8c97305d592f0b952e339a73bd53cb72240b4",
     "ec2ad9a5ba44dd586be197aebfed0897095d85bde2d49229904b5996ecc4009c",
     "8d61671a6592a318b68e16e3798247fd1b98090fbc3b5c67e696037fc0685815"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "b9f39ec00d7725317b1842d09a4de5d57e6bb2a170214c09b1958d25c4df873c",
     "0139662572b397214911ef28596defa12ce465203de4ae876f3d037b36edfc91",
     "a5b3e7f739aba45d4fa8dd3857539075be599c649466b170df7fac86acec235e"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "0c9fd4522521c98e29e99f56d9cc951c645d7ddde14f9e54581a684d10426b23",
     "05e9811e472ca53e5363b416927eae1c4ae772b6f1c339fa42dae786a887d5b4",
     "806c4c5c2ad54e0850210eab0cc88beb3fd5820d1018162e1e2086bae330a9df"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "2e0193c7dfb06f1f54fc83258431416849da0d701abf75c8e0100d1fd809bd0a",
     "fed9df4f28369d1bedebcf9b817d5cf4739426561d4848879a5b9f6b9c947514",
     "b9b9757e74cf3b999c09520f2087fcca636f4646f31b2e29a2dac87e6c68e66e"),
    (5, None, 'accept', None,
     "24ec6113dcf65b69f10a5f9f07ce2cd0e78ef1f57096152a0b5ade739f39f479",
     "71474dc45393ae4fb02d148597457b147b35bc93fb38952debbb3766cf9fcc70",
     "eb74c68904adaa7d385d49f112f50e62bce9563f626ef194b17d8472ca2606f6"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "32cc9d63734102e25e74fb02001178c5166c9d24f5ac49c488e3bca3cf0e5054",
     "eed197e1071273e06c9958e05bdfb30f0910f41ce175519545842fc883a9617f",
     "b86c08412213c5f23f21c1787a720aa84a76e1578c6e0ce4ba1d09b65bca9ce5"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "c05325798a53015b3f61ac59c7320bc60932f8600c4d0f3466e101f0969e69a6",
     "e49b13576b0214b2aba2a9661d26a13894fef9d9b2ebbf847902e451ec825572",
     "7c650fa87672cf448d93d97782847b72afe88af2382ad96031ac9a1baf44b6fb"),
    (5, 'substitute_output_label', 'reject', None,
     "239ed5ba183b29944612d871936010e3ea45934e5b6cb04461d135e00a906fbc",
     "ddac256fc08240bbbd5e3ef35fd411f75baba0f41063547e8e06ad45329bfabf",
     "b56cba8d1b7c6226706c2087fa6dcb9035322fcc8da1f4a1552066f717476c9f"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "78482d9ae8fc4fd38e51c12f04a8c97305d592f0b952e339a73bd53cb72240b4",
     "3f52ae2ae3df4f5c1d329d3a54406e58252f758923d1cd6f025c230b02ce6041",
     "70c5cb1ea4deb62c43d7f0dc8dbc7d5d8894d9ddb1e78af1ebdedd9a5154a338"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "fc75064e7e51fc7f27076a6be7601279c64f2cb971b78f4158479d3b9963e746",
     "19d488ef519327ad1a9221dd7e7ed137c8d971a7cd91d2e37edf24b4904ae934",
     "02ededf1f14dbc792665f85f00854ac20bd55f45a3b19628fa8baa5792940e1f"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "a18bcb921bcee2065ef84b03246fcaa030fc3330e0598b32657dd9f1eb01cc19",
     "33c3af690c8d6eec8a5f1e2b581037396819007c494bca271a219b7679be9345",
     "771de62082868aff471c1435310c8a08ea7415223c5a6d1cecd7210dfc68d178"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "239ed5ba183b29944612d871936010e3ea45934e5b6cb04461d135e00a906fbc",
     "2f3215cdddd023665fa99fcf7661bf8778b38851a5571660f393aea2da44c8a0",
     "3d37587138b6ff53e349c3bcff66af9117b4e98493a55923799d8067b0ac30fc"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "9f049a8598b6bda663b173652e633e7d111e7bc004e8bd3069ba0055190d2ff2",
     "fccaf5efbd8e983dc4138e53b770910bf894d08eedc6dd7a522310926fae275b",
     "35941e4becb72f3db73cb411e80a3f49f35da0bee7aeec89fdbc824a74c153fc"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "e8bb1fbecd0d6f065b3545b07afc26773c5d0c109d337bef2d1f21daece77588",
     "88e69a254b48f70e125188847a91f5bcdfdb65abce6b7ffac152f44f755b866d",
     "417ac9343ec66cf87243f59eedda2f09ff1d56eff43de7239ee790e796bf9254"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "322534e5c281e0dd217653c19bb2e4b4ad4b1439bf417591019b787af75d61c8",
     "1ae3b156cb09c6bc536e4705278e22f23a48d44e9d58e0840f5ff4da8450f1c2",
     "3a4e7fe55845bf45cf57983d6121077932294749bea9a98813da7d057e7d6bb3"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "97b0b4b20a6f893f7a3f6ab288e1f8541fcf397488e27ea06b25206b31b4e9ed",
     "5bfca0dfa15861e9a25d28c2332ef4e30b054a31ccd8a785e1ba054db5048013",
     "741dad753730e156160bc4cf5b2f4835efdfbc0a0e7a25012f2830132f629dbc"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "3d4b8360eab769f162b5f95271dcdebe85df61353471c0bd96dcc0d04db944cd",
     "0b2486e57f3a3519b8fc60eb3edc0ebe279cb0ce3f880151a322e41021bc931f",
     "4b6fb936a215ab32cc0b54052df44abe4e70e4c0c69609d3817f0ac0d5055416"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "3e1b5d274613ccda0ea519102327b7b00d3ecb6f88f9860fcee07c0a3a5d96ab",
     "0d2e74a51739a5c833aa352f44be296c916e0873a7c3a02664282614f8542ce1",
     "a818d500f519770f0a38cbf10e87a80d5d7f513c923379974f95061ed9380a4f"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "3ab79c17fe97131508e17e6485c0395dbabb2aecd7c2ba7cdbcd2aef54c8e3ff",
     "1b3c2c5e9f2b83bcc99e2fb02b3ec50ceb3fef9ca4fab477cc752918e23fb2eb",
     "b3ae721615fc27ce3aa1890aae29a94853f05402795485ea860689f5e0d8cc47"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "48605fe29e8d7d2944c090143725b3ea77fc0d8d231b3423d5624c603cf9c995",
     "08d755cb052d57e754707699a85f004cba6242ed6d99d17fb095fd66aacfb831",
     "6bf87d2f0fa7aa2e8adce2323f38d59c1f2f9775b12c55983598e2329bd9e25d"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "55ddf7bc9142b3747865e5dea76471fdb47de88499271a3dd93288e305c2d56d",
     "277052aed2b9ed821b831303a147b295418cf13b6d43f20c6cbd328c931d81d2",
     "4711e3a52b7006ae03285daec5db8a472e528dc84466ffa67a20fa5f59075367"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "ab837572d7ac3b0294ecb330762eb75bda9fe62848354f9e7fa39f536e73424b",
     "9677691f3443572f9949effbf633e4e01f9c591bb9f93e004ab6bd9e613d8d26",
     "8649ccb2074f13a5fa4b0aeeacde8d570e58b5183dd970d4a1db0d20b2fd40a0"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "1d713ab4ce7a9a792b741342fe986f5959b59c34702a9a75dd8aacf09ab60dad",
     "824190f72e8f08edbf344edeac77743e865a4ea6ab017beb326b062f6f6d7711",
     "f031919a094eef760adf6d7bce5d96213264d9d59c8bb727f01fc2d12e51941c"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "30c480ea8aa14255f0620923f3089ff3231ebc06cc3d3da51984d5737ed6f1b9",
     "ef619d1b04774f2666f35f867dadc2eb6ff12c9b2bea7d805bd90f007fbaaad0",
     "1e02c21c6994025d0dc1ee4eae8f73a10f262cd27546a50d32b2e3d3678b9429"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "dee782e7061d1b4d8189a3febe49ca81c3fc088c89513e3044bf9f10700eb722",
     "b6a0eb649c951bb9bb8436b39ea0709108df9187985a9803e8d14840565722f4",
     "dc6580fb1bbf6eb95a4881401e1cc6d6c8643d4649447fdf66edacb52aa3797a"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "3e1b5d274613ccda0ea519102327b7b00d3ecb6f88f9860fcee07c0a3a5d96ab",
     "0bca5e2984e93dea438f9860738ce414b868c35e25bf49290f9134af91fa0289",
     "2e532c6dbe54095830889ea7d02253930f6680f8e0b1fc1f079ce8a044fea95f"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "0d296e2d08753c129998845925fd0073c22e6857fe64ef507c65fe9c3021fdda",
     "24060a63e184b27af5869fec8fee1ba5e8028f17ffd811ecd786f3d5aa0ee427",
     "925267a7203977da237ea242f524b9e9e4c086728982f88eb0730f793a349a34"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "1e2cbb90dd923773a30ad8c318dc1782a37a7b645563aac45a15cbfa2d30550f",
     "977a61ffd7d8987d3167cd9f110e9621bd7dd46a610cc637de4af268b37742be",
     "5f3cff6f3a01297731c26902c9deb823960df29dc3491e75f1acbd06c6d12c5a"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "6d6f006847ad28d8bcfe3442278b2257eb353d3de6368dda536d6f3eac015f65",
     "620b2b63a755784f2a6973580a2b7a1769195b74f432e81496fe68ff341cca7a",
     "833712588c2753b97db898ce3dbd192f64b420edb5dd353f92b14d3a80460430"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "971651801f78ab86e34b6bdec88dfcef23af8ea32e6ae64cf502180844375804",
     "05f578ebefaaee1eb2307a960fd425786c30f039b7942b48671d1c519d9cb07c",
     "93fc256dcc8c5840314d2c667bbf5ef016eba7459dd5d8c225eb9ce985497ccf"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "4e13780552a7ffbd91e1dd67fb14ddceba9fd93dafeb545f7674eeb162e23aed",
     "c5f272ffeb87a70a3ad6610dff42bf87301bf1b2dcfe8eb9f454b2a19c101f74",
     "b7f929032add021e0b7cf46d4a26e623cb42ba782a454496e451d3bab7f7df23"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "2c2697d0e1ae6efa54986a89e88d2c46ceeb2a1048a00be9201d77c119beec84",
     "d63eb7f52691c9c332e32808d12f925bdb8e9633c3d93aade066f0b058ddcd96",
     "9347413594d4bfcd73ea68f174f54a6ae65db92686e5368a2f2dde1a2a2007b9"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "5a985cc1aee3e0810993510b663a9962a61f6f28ef9df5c24e27764c863d2d99",
     "b410c3ae1eef9586861f6ac0e5f4024cf3ee2dec2113ea9a0303fb025884ed5a",
     "b82b4b9a19b7afe33faeaa076b76fd3967d5a98d7c1d449d99a3c66256c2d936"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "3e1b5d274613ccda0ea519102327b7b00d3ecb6f88f9860fcee07c0a3a5d96ab",
     "ae90431a16175c569352d7bfced3f81606ecbbfd6765db2797a6467f9acda283",
     "324311fd3bf417ebf420d8b56c0d9b5a0a80a6bda7093aca385f981051043c2c"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "32cc9d63734102e25e74fb02001178c5166c9d24f5ac49c488e3bca3cf0e5054",
     "7386bcae793208867166617242a0cdb757478ab49d4c469f232973857885f51d",
     "51a5b1cd52f94542cf0f9172231f177875e3fa2f2941566d7a428c3bd0d2ec48"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "b6717062b04699ce72896c3816ec4aec00e918b3e7f992e4ae684ac57d2825e8",
     "065eaabc72702abfb87b9274650b9fa1dfab9c2579f9b6f43902b9c79ba4008b",
     "5ea6f3df70ce7ceb85e2a88381aff5294c51859f4d0bfc57848c55b5eefd7f49"),
]


class FrameDigest(InProcessTransport):
    """Hashes every frame in send order, and keeps each frame's digest with
    its channel for the order-free digest."""

    def __init__(self):
        super().__init__()
        self.digest = hashlib.sha256()
        self.per_frame = []

    def send(self, sender, receiver, frame):
        self.digest.update(frame)
        self.per_frame.append(hashlib.sha256(
            sender.tag() + receiver.tag() + frame).digest())
        super().send(sender, receiver, frame)

    def order_free(self) -> str:
        return hashlib.sha256(b"".join(sorted(self.per_frame))).hexdigest()


@pytest.mark.parametrize(
    "seed,adversary,status,blamed,signature,frames,order_free", GOLDEN,
    ids=[f"{row[0]}-{row[1] or 'honest'}" for row in GOLDEN])
def test_golden_transcript(seed, adversary, status, blamed, signature,
                           frames, order_free):
    transport = FrameDigest()
    res = run_session(SMALL, BIDS, s=4, seed=seed,
                      adversary=VARIANTS.get(adversary, adversary),
                      transport=transport)
    assert (res.status, res.blamed) == (status, blamed)
    assert res.transcript.signature() == signature
    assert transport.digest.hexdigest() == frames
    assert transport.order_free() == order_free

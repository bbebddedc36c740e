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
     "9791f3448070b03031ad8880feaacd50cd8ba1a0ca2a64e71b54b615e5225bd3",
     "bea6e305842261d3f5156bceb9b5a3bdff3893c6e45b8c63bbe1d12828bbe66d",
     "8500e026dc1da051f614143f86710ae3a07da5d6506de946f6fe4ab3fa627c82"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "9be10aac321909cf25df4600fabb4547cfb336918b362c21c410c38414e03d6c",
     "2da0e0a73991eb45f28b28c14b852e98585328f3f29a97379e2568da800f3c9d",
     "6539693f1e177193ff49f32b9a437fc8079474e76bfe69e05100435225103c3a"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "7d1ad9d4dc5ee5d3845add00b23b8da511ab29b43b9715e17376cd9a6838689c",
     "43bb0ec0f53010f1ae014678c8a1991e37fce32b7c7e473e031328cadb519a76",
     "06ef011e73daff3ba0abbd5432308bb6ad84480d0173dcda894d5b67eae823bf"),
    (0, 'substitute_output_label', 'reject', None,
     "08401d97eac05b9da65dfbaa2183b21b97bd92887c3f24bc02d238cc6485f2e5",
     "72452dff6d29bb51e6aea6d620363ab33ee5e2e8205d6f044157f922825fd593",
     "c4f1161a15c388b3ef52f50b5215719f2f8882152621add3074bd4dca84ab583"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "821c654dab88d470426cfa4bfad64581005c184c2eab225d7083a3446ae4dd56",
     "759dda1c194a8550240cacecf4095a686e23af016306f7e0d1f3e173a42c6c8f"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "34101c46c55733ec3d47e40a5ff059d7c45b6165a5a40dc0a12d49e05a699b03",
     "5c3ceb844ad20759c67f8565ce1b03b10cbf13eef730d6b70e16d4e82d3843c7",
     "bf6cec7e51776e2c6752dd62e54b0da2c97cb47a6842a7db74458592818571e0"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "0e8903984c55fc5f0a4d295e351fd998466b5a58e9639509e01b506cc1450e1b",
     "8a0487fcc6584476db5fd4fa2c3f97f1ea3c8b47d6bac361f5b56e75f6c99917",
     "0b540ae355c5179930db8bbf5c63bcd65832faffea886b2e85170bf2ed5c1a8c"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "08401d97eac05b9da65dfbaa2183b21b97bd92887c3f24bc02d238cc6485f2e5",
     "e8f442a694a415fe3e19f6e0828750bd34193cc042f0c4b9e1442d91a1b6f104",
     "a10d4d41dc4268a202974dbfa916cc5a1983de5a51168970cb3d276f7716add0"),
    (3, None, 'accept', None,
     "39b33aaf3924abe7bf6dd7dab6c3e6a71a8398f8af2f76f0a6f6dda84f240049",
     "5edd52afb843d984aeed1d471b6d0108df783542b7ded9e5432ad8f056a42b5b",
     "165c77895094620be0e33dd0a3d0a36f2bce00a92f340735f4cc6fdb7b106c36"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "03655e8c124a21a5c94ac21ee786a0c9b5eecb51c5bbcf380d0b2b6825495ac8",
     "b54f3744f2497b04e858d98395b8bf406a9e1662fade45c4f909ed6d522b9910",
     "afca8a0328a0693889dbe9b107ee9ba4fe50352d7d61cfbba986edfe13080008"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "6be6ae77645ea537baa51b85a4827d89f6b651c74d323090553a4a06f8b4678c",
     "f9e17668ad110ccc3046ae9936d372feddef40397e6d5fb8f030c58508af14b3",
     "0ead38d26d791eec034d034a4fefff01ec19857694c2789a23c1af3fdac26d43"),
    (3, 'substitute_output_label', 'reject', None,
     "7114f9613a9f6e7bcf72ae12bf8b0f8d201b17d522358406fd462086cbda28a0",
     "e7d7e839ba5c3d83d3fd1361782d6ccf7256ffb54349b1880111d5adeb986094",
     "92cd0edef0ecaa504d0752e61b2d6cad9d6d5fefcc08192e193e8d1a12b3d39f"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "596e21a34290997f0836065b3c78093b3d72d705aa4b708d13441ce85bb468aa",
     "aa8974ae50862a49ffcf152ee5e8acf4ccee0599d45ea599143861d426f30018"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "7947cd71a30bbe8470fa9519e0b3433668a510d57ec222b70e8e214bee3e0702",
     "75320d9a7e251cd0d42d41af19aa526559395aa65ba00d81efa2f4cbc87c3d78",
     "8a62383d467f7b34b133da6e4b7092509a530da9b25c195ad63a137256636324"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "21ba4929e3a87aeccfbf0bda42be69d798e6ebe135b7be0c76ac30521287f4cd",
     "9be7095fabbd6f2132dff8e2ccefa81a1fdbbd13ea18967bbd7405a92d3e17c3",
     "b367f069d116a0ebd60e593e305c75b7d990ebd49e12867127b52b7bf88c40e4"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "7114f9613a9f6e7bcf72ae12bf8b0f8d201b17d522358406fd462086cbda28a0",
     "97d17a3da0862c24824a9655b40e1dbe7d4784cd57a20db2f5060028fdd5d753",
     "807ddb29247a5c8a2f6d1309c6d2f217f09a0ec1c8621513acd8a921b314e582"),
    (5, None, 'accept', None,
     "a98a9eb9a821db1356ace530be75c4c728e84ccb596470b0891ebc4bd1fc9b2e",
     "e75e4c119b6e002c6332023bee16d21d50fc51a439724bf8eab6d04a5f729dba",
     "f4f13754c21ce2989e4fa91fdb2e45526c809fee8e20414ac4bc36c3c9aed4ae"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "ce9e4a6bec137f5ff09e6a5a1faa62ebcba9b57ca990e5e83806420debfb38af",
     "ec18ed5bfaab4e89bbb51de40cd77041faf14d214d0b719458ecbfeb62690a0a",
     "ff76608681dfe884a0c767258d71aaf308129ac6d77da2dcf3da8e493a6cfde0"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "cae6bf03e46b89b05d76a8d05718e580bf19fb552a0db4bbea7619fdb311582c",
     "5d4be540b88b56105666c75d76fa99e911b2af4e24b108f65b209fdb005d9065",
     "06ba899ac826b48f701a4e129fffd5e7db621e9d06899c09734ec6b912286283"),
    (5, 'substitute_output_label', 'reject', None,
     "e7ddc91ac213f2fdb963984c3b13083962af7648e383e505fd085847850415fe",
     "495b416cd588b8523c2e44cd7e7ff087210dc6b7a7bd966d83552317257e170d",
     "74eecf5222f132e3e5cfdca5e6615c3734caa0e8faec406b01cdfdfd2592e331"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "5b10c5571b59411bf0d05e84b9812cb8a7aebb89d428556f7f2426ea01b7d165",
     "70aa896476334ce19ac94f08a4049ee596c08c49faff24f9cafb69aa0fd18d31"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "bc6165a5a6d25d43f25e99619d8faa0987a41a42323dbde96bae4e748738e439",
     "181b9854eb4679bcd1fc9feaec743ec31ffdf1aca0b2a0600aa849f1eab2138c",
     "57873ddfbefe861a6b540c0e98dddafa47797894e33b86c16ff423dfd2adb7f8"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "0f8875ea3153073854fe5e976d8e363011804fd16a304bd113b9c232f0a42e01",
     "d190be13af14e7705213d3f0dde29270f2ad1223d5c8d7271ce83e82e6ca252f",
     "9481462e374574882f7d9c205d7c8a8ebf79d9a5ace43a82a128d1e25f1125d0"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "e7ddc91ac213f2fdb963984c3b13083962af7648e383e505fd085847850415fe",
     "916c33c7393de32f5975dc7cef6dc8abb74b3ad3bbfe292725d2172b57aaca51",
     "8eb7fc5d61ec77ae529dcbe1994377f51d36feb2f215b45cc0cdac9b6b2dd3ff"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "7d1ad9d4dc5ee5d3845add00b23b8da511ab29b43b9715e17376cd9a6838689c",
     "bfb6c0e74a8f054ac10476a8672c18eb376930e26a4f2dd48c4389509220b93a",
     "cbcd18b653b04c27ecd7b1a5f91689213b607978d6f64b19112fcf401c5c1d29"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "5eba5d13201466f27001b469086c74a60430185b4a25b1fb551b4b11ce1df7e2",
     "ea1f8e7ec48f6138045f2e884056a24e1326d40587571c8c48a850b177deb8fc",
     "76c05ce46a948579c277fc90449accd39357599461673a93b16b3b9b4ee13a33"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "5a3ccddd4dd4ca3e70c1160a5928375176f2cd8d78468cdab21eb65486b39b17",
     "b8018b5ce2b57d225dfb1b8a54d7741963a54412ca4e1f5e1e25a0c370cae5f3",
     "2bcde21887033361531b147ce032e1743fe78a9863597cb33b9dc8cc5c9d594c"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "441df8fa1edc98636c9760c6c8529bb37a392a3b2d33e9a5d58a4eef26e05d60",
     "782597b8bfa3f1f8dfb011c38a3febf86e3edc787edb4102cba669a5be2e5405",
     "f0545d8a6c7d02eb71ccc8a2a6a3fd071c601d3dc05c43e4519fc267a240dc73"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "4011bf549c9844c6316a26df58d78556a7e61b61c4ca3bdccce951f1fb31a2ff",
     "cd97abb5dd35eb8f259cf069787fdcf5274e255933529153b3014693d594f96e",
     "9b6ed1f102d3d7171c17fe19482e344f3c3aa0bc5ae96c76746fc647a5c9a2c0"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "7fed823878f4c7d349644f06f6e5cdfff8526d1054ae7a029cce4a50f3e06f73",
     "b7f47072171702ee0665456b87ea006a62c5ce5f235e15f9c30e781e807bfc60"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "9be10aac321909cf25df4600fabb4547cfb336918b362c21c410c38414e03d6c",
     "f067b96c191be35a5f831ce3d2e8c21772e5cbab9d7005f0317f0eb6442ba43f",
     "4bba67ca384699b82f915ec60494dd2362563160d108bf6b69a10a0ece55002e"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "1651f343869005c97d4542e7c450f0a7e2299e01de693731442d84b2177e1d8d",
     "54ee21fa6efd6350e70198dbcae24d6a09ff23dc5790ef1fbc35e81a777e39ad",
     "fb0a22ed24eff173d1ed60db9f4ac8497ea830ef2df9ea1e35b84b4666d745b4"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "6be6ae77645ea537baa51b85a4827d89f6b651c74d323090553a4a06f8b4678c",
     "5b14b016e61944ebdbff8656bd825c7da086ab5c505814643746c19d81238dea",
     "ed8328c6452b39ab43f6220979ef5d40979ae4b2f3afbe87a48b44770e4fec6f"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "156a9b3ffef5e2ddf7311af4a1773e0563e8c255adedadef99bdf1ef24d6b3ef",
     "7657890984b5ed7ccdca595b0703283f50b12a66b0b7acc2a8ff8ad42401d1aa",
     "8c9b0f7bf8a4efed742a6e077249296443d62f3877292c34edfa75a3ca9292e2"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "e10cb0dd034f45a465e7b48d68ef4fe92940c2398b9c9a942f14b8e526d16a3b",
     "ffa3843f0b2b8fc8add3788633d437d8e14310cb2bb3d167f6ff546bf60e71f2",
     "50dec4c05fee6d6bdb5788ba8b05d6f820e2de7293bc18ee547032a45545b6a7"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "a52bd2ae6622613b1a8f16572c86be717852388449b64637944fe8e6bf28de09",
     "72d504317bf9015ee88e24847a2f22f83cf45bd3d4733eddd38794ebf289be72",
     "c9cf1ea161a8ed3c48711bce8d84128159bcf052b846230d3bc890d1680597c8"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "5b7ea534fe4398d721901281650b15aca0af94b720e91abf65b4dbfdac682795",
     "63b4866c01a7402d80385bd08e68b33661ec7da1e46cbf81e7bdf8f5705ea979",
     "cfa2d61e21c2027081dfe7fefc38c4654d035e325c729328334e30c03064c831"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "52d515a0de29a2256e4e56f9fa350c051c4260d05772304bd6572333c77cc93b",
     "8d20366a10f6d4ca82e31d91e87e53082f33296523d9da0cab8b8513d12cef45"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "8ec4cd6a51b73da5df0fb26950a356315dab7df227fdacdfad37094e964c8ae1",
     "ed2a879755979a2547cd547d60ecebac170e2cc61f2a9513edb15c34d7053105",
     "8a4ff420d5c045f25afdb3e7f8bf57120197380b447581623270f2a80e321038"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "faa863eba12c1b046f5ef1474f83d32a5613756da82f1bd2f455e4047833683b",
     "17de5e1984a76ad58e6b00df481a4d1a9438f553d8eb6feddbeb9c475ac27fb5",
     "0e39128b1801978c8251cfcf30b796f0dd338dd9fff9a0e498e7b4d3af614db1"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "cae6bf03e46b89b05d76a8d05718e580bf19fb552a0db4bbea7619fdb311582c",
     "3e00073a5e37a49a581451ee2a960e764dea489c23fb4dfd556686202c176cc6",
     "14636c9fb35da568c2dea3c66dbd9a381bc1f00a7105dede81ba6c3a068d343a"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "9b4943e3009ca003daf45fc64c7ae8d4a893dca11abffb9c64a3b31e8ce441f6",
     "4c88108ea7e0fd310aaccd6d764f39cd2d909c806bdd5ee685d626118274bd2d",
     "da9a05b099097becc8fbbc440c1c29f9c39e0877049de35c7aa057a916a826c4"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "7cc5e76e58e3a1dccc67b5ae68ab30a312dd77b55277a06219fa46cf488b4993",
     "8d53186812d24684675b9728ea90b6a61198227c39feaa8070e1822de0eb5e18",
     "eb10f3241b698272415aa9f33786bea6decea45a2faa9a661b3d4b7936d33da1"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "2d6be7a38faf18874a961209b3ef1e306e7eed9b7149f0f5ee182306b2bbf2f7",
     "8e7ecd974b3ca33216376806ee4f71cbdb084713741f897ef090a1d2f0061f59",
     "d57ad64745c929f2cbf460abb1f065183bf109b53c9ccfe463836076e702e693"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "6bec558dad560fad58daaa69ffb3d065cd6770dfe749a7bf317c03a31e5b01fa",
     "7eec6209fba81b1a9993141bbc48aa3ce2cdcfdb18a8f30621ee7f9d115d6ac7",
     "d8d3a1f349b7b6a792ef6a7ce062180a24f2b19cfbeb8e06565288f878b12258"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "a3d368b31d4adf6116204426525f76065cea2701c51f09d5f3884ad04c6383a9",
     "a8bdcf027749ca4027a640e0dac33240e008a6f3a13d3ddeaf2e66b4d6d011cd"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "ce9e4a6bec137f5ff09e6a5a1faa62ebcba9b57ca990e5e83806420debfb38af",
     "aa1a542290eed79ed54e28e579eb7848daf4f365f364ac5e192ac50004c5cd34",
     "fc05ae2e8e5dbb7bb43ce126759e6d0616033ec9e1ae06a61981fc50705e1c06"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "b279acd615ee8a9eae543bb0dae3c44bcac240c33c48a78b7fe07c2b80a18d0f",
     "25f6c61c514c5a094a4a8a48e0f6ed5b806292fbb40c4d541653e5e87a58797c",
     "73146d55cea890c7e3020252a928b84930cd3fbee1a18e76db7a48abd32390e8"),
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


def _run(seed, adversary):
    """(status, blamed, signature, frame digest, order-free digest)."""
    transport = FrameDigest()
    res = run_session(SMALL, BIDS, s=4, seed=seed,
                      adversary=VARIANTS.get(adversary, adversary),
                      transport=transport)
    return (res.status, res.blamed, res.transcript.signature(),
            transport.digest.hexdigest(), transport.order_free())


@pytest.mark.parametrize(
    "seed,adversary,status,blamed,signature,frames,order_free", GOLDEN,
    ids=[f"{row[0]}-{row[1] or 'honest'}" for row in GOLDEN])
def test_golden_transcript(seed, adversary, status, blamed, signature,
                           frames, order_free):
    assert _run(seed, adversary) == (status, blamed, signature, frames,
                                     order_free)


if __name__ == "__main__":
    # Prints GOLDEN for the current tree, to paste over the table above:
    # PYTHONPATH=src python tests/test_golden_transcripts.py
    print("GOLDEN = [")
    for seed, adversary, *_ in GOLDEN:
        status, blamed, *digests = _run(seed, adversary)
        print(f"    ({seed}, {adversary!r}, {status!r}, {blamed!r},")
        print(",\n".join(f'     "{d}"' for d in digests) + "),")
    print("]")

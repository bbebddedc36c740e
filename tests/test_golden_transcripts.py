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

from dualgc import messages as M
from dualgc.auction import AuctionConfig
from dualgc.session import AdversaryScript, run_session
from dualgc.transport import InProcessTransport

SMALL = AuctionConfig(vm_types=1, capacities=(3,), weights=(1,), width=4,
                      max_bid=15)
BIDS = [((2, 9),), ((1, 5),), ((3, 14),)]

# Scripts beyond each behaviour's default: other targets, recipients, wires
# and gate choices.
VARIANTS = {
    # Gate 5 is an AND gate of the SMALL circuit, so it has ciphertexts,
    # and at seeds 0, 3 and 5 P2 reads at least one of them.
    "tamper_garbled_gate:gate5-mask01": AdversaryScript(
        "tamper_garbled_gate", gate=5, mask=0x01),
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
     "a08f3023799afabe1074784768c4b30be4ba06d41205aeb9030906d7f844ac87",
     "8a387338318e74bc593f3420aff9df5f6aa43cd8d415e5c0fcb556569c8ef3ca",
     "fb025e09da2c6e0cc93d9d4d65d8b25b0df596b74e328cd2bdaab3d17c72ad62"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "eff9f613d0682cd3d096f251c9eb43e27e37ff37973ff644f13323af821dddf4",
     "8a4434b11f509c94aa1293d16a5224f6e3d4e847768d9019bf2a207c4f08d85b",
     "d4bb41208b3396289681b5d0bc58acff2fa2d36e04cc3a062959739e4ad18dbd"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "c20ea72a680aebb21e272f0257b6c36f058988dad280afc56dd1dc4b393592f0",
     "0e00e93ad44968769cacd9bb2f4714f887a150277d4e7b2873f87fd9e20c816d",
     "d55eefcb6d68a1eb35e9047faebacf4c364867ccc8086523c8c3244d6a0cf489"),
    (0, 'substitute_output_label', 'reject', None,
     "7012177f8a3839af616e30367cdd51e8c7779b847b1e9429570014575729ce4b",
     "2c4a9921da970e74f186ad696169258da69446c00dbe9943f994c1d5795f5c3e",
     "059fd19d62fe40ebbd5621df93e1dbd818fc7c97b3a898e81a39fbc22c884332"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "3f7ca7dba567791d4e72e729dc1f3371bccf6a6aa1dee584dd5df9f3e0a976d7",
     "dc65bb0f466d28e015aed134ea17bf7660aa8d77151d2513136905b7ed861c07",
     "c04860d554d31b96c9df6f17a4f9e9c6d3f7d9caf10a6b393d526453d6440d03"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "2d4eea3e68b4718aca75bab47d936b2bae3a8235702da7906ad52b7173242966",
     "6571c84642dc55a49be789ecc8a11c9a6e8eaa0a66f86cac1c57a29a6dde4b16",
     "35b47b3f94b04967b736fb51d3a44ade4a02e99818febbba5dfc8238f25cdd63"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "e0e57c4bb39782d6f65efa9000627f3a2f53298dfaa01822936db8bf3c6d716e",
     "ef8d310ee3eb20a1422052bfa99a4db14454d211f65cc4f3fd94612f2cbc0361",
     "ddb9d46a168af130fc8f84b462e6b7895aff3f6e50bb5ff2da851125182f0d03"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "7012177f8a3839af616e30367cdd51e8c7779b847b1e9429570014575729ce4b",
     "95a364a20d1387fcb991a490d219077c235f5af33150118f6019b349216884f7",
     "72b5f0083d4eb162afea6c61dd1649aa2640c7ed0ed148fe4d24196fcc76bbe1"),
    (3, None, 'accept', None,
     "52bcc7e9957eb7e6e9aab672cf1c6cd03390bee60aa3a7b1aa4c65cc31bfa052",
     "9a8e8b2e3aa6005ca51877ffa298b8111bb4b042e97da479ecf4201afbe94457",
     "0a4d920eac06e0f973103e0a0f68f68937d080026162aa2359dcc3ca5e7624fe"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "a7daa8fb7c84e2488c7a3af4d372974298279dac4a7cdca43ef18cc016c7a1e3",
     "5405540a4e4da690a29522b1b56a6687e48a337ca70ee738ea23113c5aa5f9ba",
     "17c5b271cb743a3d757cf55e064b01760650ff27736369269cccef1b21319649"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "e046d137a7b3f212862646c9ef32ffb48f1f3a648c33da46d8075dee55d931f9",
     "37e62759b15d976242360e67245e59bb84fd3eddc8b6514c6e3d5c4735df5f5a",
     "62c1d904fa1025929428644097886af10d7bdfdefcb4d985e3cf26af963ca711"),
    (3, 'substitute_output_label', 'reject', None,
     "02c8f1e0059ad1128c7992d352dc0ee45e1ca2b3f6ddec7d78a872fd922d8ea2",
     "f0f4ac6601371e8e452e32517fd8653f58d6ed0893d9b36b2683b641f59f8394",
     "e86d1fdb39e0dc33dac45cad75008f57b070753090a084baf90ca1bdd88ad27a"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "3f7ca7dba567791d4e72e729dc1f3371bccf6a6aa1dee584dd5df9f3e0a976d7",
     "a9864fe4b65238051f3f43bf61d114c26517bc4e93379503162f9d1f35597b0a",
     "547dfa0bb23464d51986914de9b2d592ff14a3cb209b03747064066c1212c1bb"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "46340ad0a97f10fc48e7df6c0c9735629f5ac24d0cd7c1443b87b63f455c5e50",
     "db9c35e3e7effe78c40bf637f273fbeb634b70a9c6da0ab6ef188ed178a7e954",
     "3ba7db4300803a66ffa906caf9028be8e94eda82013c900d09aff848bc151198"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "7dbcb5ae2503cd30c1b773535d9239b1ee0a0ec407f5748e9d2b8ba956c47212",
     "508ae81cb783bc148724aca869bf40defd2e9b0409464832d4ec5597d05787e0",
     "278efadc817ac2f9b9c9dc1e5fd8145f2e855fc3256f638677c1fa8a6dc81f59"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "02c8f1e0059ad1128c7992d352dc0ee45e1ca2b3f6ddec7d78a872fd922d8ea2",
     "94dcb75aa878b625219bb336d276968228cb08cfde584dbbc37d851b8469fc3b",
     "1704becdc3c2857209189c3812a938b75537d1da0782f946049a750c97593779"),
    (5, None, 'accept', None,
     "2803136eebcd44ad30d664e35fe5cb2260c74470b725f5f46e8091553b5e0ab6",
     "69e0e458b2919f31ee2623bb3f67e44cf80ea21b097251d8a06248846d486fce",
     "7b96b142be82ad8e3369e8681004ba3fb5c94da5fbd7669dd96cb2d26ce8db0f"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "fef4a5622b876ec9d59fd9d55fb5a929765e6b50b10be6a6340759e601077935",
     "a41e73279068f0834bc0234e299679b56090496b9786a07d797ed42838227526",
     "580c138ec615ec54950b39abd79b7b6e132ee3558973bbbf587fc6e8c11fadab"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "fd01cc9a13cb12123b9c8ca66252efffa98abde1e1ca84236bcaae8a2a8473af",
     "17d5e0ca1b77d42e0e6a2e9cb502b915c47a8647f5e9e502cfa161a5d5566397",
     "6a3cb8f135ac93c6c5c03deefd590f5a29b96f59308b35ef1c1566ff5df276b8"),
    (5, 'substitute_output_label', 'reject', None,
     "dbc25b33bb6d644489b124542d0529d1f7f6d065a22a1d7ad911fd7d3a9674b0",
     "80f5a7845d6c4aa912d13dc908195f9549153c84f7856ad2b9074bb1c9a3dfd8",
     "65b6d402656f0645907ad2e6fccccc3f4a6e110dbb83fca8f4ce8251d2eedc89"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "3f7ca7dba567791d4e72e729dc1f3371bccf6a6aa1dee584dd5df9f3e0a976d7",
     "d3060548a5f6ce0c345492af796c7287fad506ec208be9f6a0abee90cb6ffc7a",
     "4f44b93be694326967c830aa5558f5f51b693f44da3a893b82d406ecc4e5333c"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "8e73ecc96c2389c3ad1170131a0b0cc6ee1419d1c504825bb2a26316985192c8",
     "7729df1110cd710672ddc7c1e46f3ebad15d939b998589f4a30b67ca3b184a84",
     "0b303055c9c191bf7373bb075e7365827a703d05ce37dc0c56903519c6149468"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "d2e1c4b445bea01a0db74c13dd1cc125c54e4ca27c4aefc42f5542bf521bfcf5",
     "e9cb6f169851dabb26f2bd16d266e0233bd6c3a9938ed7d70cf6ee3475e7f03b",
     "a49b37f14737f51ea905b4bcaeb80e50e74d2daae44d639f23b3267bae6b57ec"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "dbc25b33bb6d644489b124542d0529d1f7f6d065a22a1d7ad911fd7d3a9674b0",
     "36ae4f4d011bf621db3e7bdc5686e5baefe2477e5827943a8e0f810c542df893",
     "b93bc7b23393be25d95cb1a76d560f15d5e379a6eae2833a4c0cf41e8a28cdda"),
    (0, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "c20ea72a680aebb21e272f0257b6c36f058988dad280afc56dd1dc4b393592f0",
     "abdffa5626490ac5901a83fd5d5c8f89da99b3c9f2ea16e589dd5816ee86e532",
     "3fedf8b1dd4724b163632f7e00d008994e9d629792b873606b6786281e2dff8d"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "5931c9f09194a2758936f1e8f26e2f819c59ddc627be02d490a08a82b6b2bbda",
     "e55a6f2a257e92c2dfdf86855a2760c584f13c6645dc99c714f4ab396d5088e0",
     "95235ef238d8d53b5bab492cb6fb1062fcc70f5e604ec306ff12ffc971cc809f"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "0ded02617d542f47c50cab75646f0d04a80b03fb35278d9c98e37aeec7da0c35",
     "f0b093b8083c8d27f109f57c54aa8c63dea8fa5f76873525c16244491f5085f1",
     "ddaec7cf7ea0d557a61429e9c323cf432557a6631d6803adbf39e199bf101b8e"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "5e5b86229f1f3dad51a5876f48c0c945e7b95644ed4383555a76fac29eb37034",
     "77c8060a867f388fd19fff49c5662d67c7452ede12548b2825cceae33e31a915",
     "239b2ca0b586b3acf741c89ce1b9d8d5cc1e70af1b8b629964e89ece50f1f5b7"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "9b6e892592d2cc40bdd2d0a54bdc4445d51cbca882a79eb02345ed8a045729d7",
     "4aa01e6dc2a544babbd6e69da2223082156d170afe21f2a55c4c0d7ea4f4830c",
     "ade1a6e1d33817a1acb4e8f93830ebb80b476cb74a56737cc1aa214719a29eb8"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "0201ebf55bc42891e0a08e7694012dd1e4628181b3a44eae98731e4dfaf325f4",
     "d180e06345c392854701df5928e987b8aa266cbb4eec584d4a38cfbfe089f3d9",
     "fafadc40913d4371e74ca9edcd696a369caad8562847d4fddec6a759c30bdb7b"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "d6013f8bad973eefcabdaddff095720c8f29538f60765f6884289da0909df483",
     "4555d79462aab6d8ec49f60ce0cdb863c06bd0eec98954fefe0bc9cdc913b55e",
     "8a6bd3d61aa22c2e2ec6d66cfc2650b5716e1dc47a53fd94f5c2acce0c847e65"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "01870887fe9e7444b5a0a69fd59b3f9ac5ca3ea7c1ce58a9687fda513d727ef0",
     "6b958d8fa738fceff8512c92046ddd5627d6ed20e5a9d168636ff587cd1b06bc",
     "1adf899ba381223cb0ce96cce0ec73bde4fb54a0d28b1b559e2d3c66ba4a9e03"),
    (3, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "e046d137a7b3f212862646c9ef32ffb48f1f3a648c33da46d8075dee55d931f9",
     "18ace63eb187a6497bd2d64787f480a7b17084c3db74f4781bfb59294efe67ff",
     "a852f2716880bf8e309e055eca4a64c1d143665bff912a1ce80b70c1fae04e0c"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "c8a6275e5a9738071e078b6ff76f9a8c867a28286c332adc2259308804db5f3d",
     "70a000a5cc3f9d9998e87fee5aebfdd5467180f0f7f0c664ea3bc67732e32b4f",
     "a284e14f5a7983fdbc89b7682ee33a35883f70ac7d355afaecf8d7a7dbcbf998"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "22fb66006a0448266d8d469f873e70fd87cffb57dd39841d45d432053b735a04",
     "607594d608531032e03ace168ae07e59b11fd9d2460727b8e1156d36350ea826",
     "4dad2101dd2424df1111a67969f7f9ea39d0ff930a245035f9596b96d24db9e8"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "df1e6f8ac62402cb62ff3946783eca3684928183685557c084c9de81f7759b77",
     "37b95d1becb077ad887a198c64231d2edbdc2e51dc477fdee2cbd0b90af8294f",
     "b4d38b222a9cbf7a512bafa47e7f6c47d549db96ccf7b33c5eaf3d6a53efbef4"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "6b8eb92655ee17781bcdf4dd0eb8c4a395a93aad99eb49e021457e795c102ee9",
     "889c82d470293cd7e3b475320daeb76da02fc43c7fc18ec0b18cbd7207ca281e",
     "20cc21fe469b63baf9a0197a499897accbf706b3cd54348cf0e1a5dbef64a973"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "0201ebf55bc42891e0a08e7694012dd1e4628181b3a44eae98731e4dfaf325f4",
     "df1c9fac250d005422707bfed4be6e018f1bff808b3aeb62bf661b9d643e3498",
     "5b30afd6a93ee0e9d6678c3d6295dcac1363a4cf63ef0b724a843aff12d9fca3"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "ea9ed8f65c85534adc0686b7bd9652dc2361e94d928f2c4e1e38e205ae8bbccf",
     "b9fc6eca9dc346b0a8932b34345d7de30dc0f8887e942608e14133283cc7df44",
     "fde00ce228d355b4909f862a8f951cd649f85eed5fac5337f51e769d62cb73cc"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "ed757b754c1fac3f563256af02e367dbf6540ddc1ba5a9dce61d48f97753e49e",
     "281a951520cc698e629eb33a7ca8b05d103b39cebc38b2581f691ea3d88f1945",
     "29686efc00a83005b3db1deb663ba8cfe72801052eb2278e9d6a6e3a58a34511"),
    (5, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "fd01cc9a13cb12123b9c8ca66252efffa98abde1e1ca84236bcaae8a2a8473af",
     "415a1ae098ed4b57080f84c9ee51d7cbeedf1da2d7d792501ae47f465d56425b",
     "8d3cea0af51b35e9da0adf1fe551a140627f8b570d8fe810ccbe5ffedb828639"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "63a122791849211acc3b4124369ae21bee877de89883213dcc1f3cea072ed564",
     "2ec450776483df5bc0048aa7a123b9eecf686790dbd2cb8f658712615e7fcd48",
     "7dbeb28838046c14494958575c4ea888fd22b03b2695a6a9d479c2a583c420ec"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "69d87eee8281026cbfd162ebbaff7821287dbae3bb6b80815dfa8764b6902a8f",
     "1576b62e8985ba43ae28dac3ae9cad007476e6eb600bd48472978c99f687c32a",
     "4051e28dee6d54053766c2bdfc5cf72ff41e23d4dbb09d556f64c2ca9a852782"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "726e930a0d51fd54cfd5418565c070047e025537ad77d7f6aff641145359c808",
     "9e0ab0fed25134309407308867f576336c5ba2ac8aad37c8633e5dbdd2ba79d9",
     "b3f33b4b7c6d1ff28bb8107d273bfb229be5d67e3f16908d17ff23c9d17d2415"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "d705a8e82267e9b8602b4ede40cbd7f23889bf19298df47d17753fef46306f74",
     "de064706483bfbbf87e24ebfc2a56bcf1d3041d3526d43ad4740705ad8a4aa84",
     "b934d9928754df3e1099cf5fd2e82a7422b68ee3809537b329f9c61365751a66"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "0201ebf55bc42891e0a08e7694012dd1e4628181b3a44eae98731e4dfaf325f4",
     "d511ed67eb11ef7ffd7b95745ce644ae39a0f325240ba7c4deb0e168becc7ae7",
     "2e9797d524b4800faaa02d711e0e1019d4b74616ec8b4a5c14ba8c970569aed5"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "fef4a5622b876ec9d59fd9d55fb5a929765e6b50b10be6a6340759e601077935",
     "4389065ecd9c3a44acd97bc0e9e830a59cd03770eab801e857a3f924636e6d8d",
     "ceca2e060ff266c5a384c46d34f9c4f15f8a99ad86dec02e536003ce0db1d211"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "0341b4a3dcaa91ab01cb7d5e261c066fc0cba2224bdba207646acad1fd20f24b",
     "6cdbf0fc0ab467b6d0f9e7d515389f9db04b48c1c054a150fa08fc347efbed84",
     "9bb7db86de772268ed2af26ccad479ee8586099ab50aef24f2fc534af093aaed"),
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
    """The session's transcript, and (status, blamed, signature, frame
    digest, order-free digest)."""
    transport = FrameDigest()
    res = run_session(SMALL, BIDS, s=4, seed=seed,
                      adversary=VARIANTS.get(adversary, adversary),
                      transport=transport)
    return res.transcript, (res.status, res.blamed, res.transcript.signature(),
                            transport.digest.hexdigest(),
                            transport.order_free())


@pytest.mark.parametrize(
    "seed,adversary,status,blamed,signature,frames,order_free", GOLDEN,
    ids=[f"{row[0]}-{row[1] or 'honest'}" for row in GOLDEN])
def test_golden_transcript(seed, adversary, status, blamed, signature,
                           frames, order_free):
    transcript, got = _run(seed, adversary)
    assert got == (status, blamed, signature, frames, order_free)
    # Before the output phase a bidder sends to the two parties only, but
    # for an ABORT.
    assert not [e for e in transcript.entries
                if e.sender.startswith("provider:") and e.phase != "output"
                and e.type != "ABORT" and e.receiver not in ("P1", "P2")]


def test_bidders_send_input_values_to_the_parties_only():
    """A bidder's pairs, check seeds, openings and label sets go to the
    parties only; the parties' echo is what every other role gets."""
    parties, bidders = frozenset({M.P1, M.P2}), frozenset({M.PROVIDER})
    T = M.MessageType
    for mtype in (T.INPUT_COMMITMENTS, T.CHECKSET_OPENINGS,
                  T.EVALSET_OPENINGS):
        assert M.FLOW[mtype][:2] == (bidders, parties)
    assert M.FLOW[T.HASH_TUPLE][:2] == (
        parties, frozenset({M.P1, M.P2, M.PROVIDER, M.CLOUD}))
    assert M.POINT_TO_POINT == {T.EVALSET_OPENINGS, T.OUTPUT_OPENINGS}


if __name__ == "__main__":
    # Prints GOLDEN for the current tree, to paste over the table above:
    # PYTHONPATH=src python tests/test_golden_transcripts.py
    print("GOLDEN = [")
    for seed, adversary, *_ in GOLDEN:
        _, (status, blamed, *digests) = _run(seed, adversary)
        print(f"    ({seed}, {adversary!r}, {status!r}, {blamed!r},")
        print(",\n".join(f'     "{d}"' for d in digests) + "),")
    print("]")

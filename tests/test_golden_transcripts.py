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
     "af85347e5d1e67ccbaefbce93577cdbd9fed1c2b5f3aa27f766a37131f40e433",
     "b7b07f959f385cc04c1c196d695948730a510ab44c81a2fe30a6e91a94a4e63b",
     "4c074c44ea9d84ab63de9cddc9bd6c802f32cada6b0e2dd776f1680fd2a5ac01"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "eff9f613d0682cd3d096f251c9eb43e27e37ff37973ff644f13323af821dddf4",
     "8a4434b11f509c94aa1293d16a5224f6e3d4e847768d9019bf2a207c4f08d85b",
     "d4bb41208b3396289681b5d0bc58acff2fa2d36e04cc3a062959739e4ad18dbd"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "a1405cc54e65536226406283173bfce761936b7eb5fea93fdade5416d0aa378b",
     "b35c804d9db38af9497977b6b0c39f16d4f42721f17eb2294cfd2f83a053479b",
     "43bf531ad2bcd735c399c1711a0d0e9f14a34f508171e2db4df36288bca2901b"),
    (0, 'substitute_output_label', 'reject', None,
     "8adf71672f376ad30e10da2f11f650eb8bb7a8c6888d37f463458151d14e1b2e",
     "0a109c963b10823fbb10808d6d149be3d361d13fd559c9940df6624951a12f80",
     "dbc8b395e5ce4fbe36914da72aab4ae32fd7632d72bb52141c1a42a608545e01"),
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
     "8adf71672f376ad30e10da2f11f650eb8bb7a8c6888d37f463458151d14e1b2e",
     "465577e843b398da6df9a906ce30c851a9ee0c2a1dad6079fec851d8f4a09786",
     "3fc729b2e114e3da896b1c4ac8f50fb4daafb7e883d766772aa92149584dc193"),
    (3, None, 'accept', None,
     "135d32be31b2f7648aa3eee3521f9113ea47a316cd45d1452bc3c53ee96faa7c",
     "0a82843c14c96d69dc5ffeee8f22ab553252da78fc5fa69bfef486056fedbe1b",
     "b257bd12809c53a010aff182d763524ee43d0d9c739286c173d03436a59c5fdb"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "a7daa8fb7c84e2488c7a3af4d372974298279dac4a7cdca43ef18cc016c7a1e3",
     "5405540a4e4da690a29522b1b56a6687e48a337ca70ee738ea23113c5aa5f9ba",
     "17c5b271cb743a3d757cf55e064b01760650ff27736369269cccef1b21319649"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "c98f4ede17f690121c9868353bd4b992b7363416272bf96e062688f8146ae44c",
     "b5245dd0730345731e42c0ec20f42b27a285daf8d95640d85288e5192be96ba0",
     "8c1d6b4de7990fef6f9a87fa8d26bc0a1b761b34064e774f686a732ac34e7bb2"),
    (3, 'substitute_output_label', 'reject', None,
     "c57d23e489d9bb9f10b2025af77d5089973dd8fbb4c8967bda67b426377431e5",
     "e68bd0f97f0ef8330d6342a8694f09e60f820e79e1b1345382a31bd24aa8e119",
     "7b6c619e4baf483aeac5b2114e690fa7f459f5f28c0daf2159e3667db52ec3f1"),
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
     "c57d23e489d9bb9f10b2025af77d5089973dd8fbb4c8967bda67b426377431e5",
     "de8933032a8ba3384d626bb32c4c1d23e3ad98c1dd2324800c29dafd23c0b350",
     "33a833ac52021be4e60da6a4059ea1ae88922a20da6f8b0f31fbf61e360163af"),
    (5, None, 'accept', None,
     "42eca91a7a68af6dc1879a60c78049c66173283051a25b7d3c94fbb6156db5bc",
     "f737eeacbf6cdce4b76b061864e6a97835cb8e45433586447b6d433b6c4326ab",
     "b1dd95f204e688a6d95bc2dd9975e15a150ae5483038f7ad438998c690f71f27"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "fef4a5622b876ec9d59fd9d55fb5a929765e6b50b10be6a6340759e601077935",
     "a41e73279068f0834bc0234e299679b56090496b9786a07d797ed42838227526",
     "580c138ec615ec54950b39abd79b7b6e132ee3558973bbbf587fc6e8c11fadab"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "8a12fe2e427103ff710e1307b757e62d0358388b9622ac654a2d4165df9a817c",
     "2e8276ecd32965f5d5cd5be26dcc3977e75f89373eb3941c2a01dddcb177dfa9",
     "7ec3877daa22a435d2ac43d5a65060909a85bd9b7d78f73cb74e5e19132cf825"),
    (5, 'substitute_output_label', 'reject', None,
     "e28b58f773bf89cb0c83c3cbd4fbd1fc8b683fc48e5657e66c22adbf61a28da4",
     "801bc007883dbe1271f681ebad0c9cf4b83f60fddccb5eb9c50d16af570b1b9c",
     "594659e984af7a21ba0f6b3abf2ca4a2e1702a609d949c678122fde3fda52469"),
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
     "e28b58f773bf89cb0c83c3cbd4fbd1fc8b683fc48e5657e66c22adbf61a28da4",
     "9cd40608380f724b442de918601bc3aa6bf8dcd84a3a43157a0197843a7259aa",
     "1bbc9769607cba60c635c8bf4194d3336e55ac09c815ee25379b274de18c45df"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "a1405cc54e65536226406283173bfce761936b7eb5fea93fdade5416d0aa378b",
     "9933c762d6556ca619e5bfcc77239378f68023284d0104fcc4e45509fcfa186e",
     "e94a0b6d4cb81466ed0d073919cb658c33ebd3f8b1823c8c6256281d4e8afa12"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "e394e2d59beb9af14e9bc7ae93521d8e0173760e1de8684f35f6b833e9a122f6",
     "a52a9ce41f987b033d9528ece57d549d7bf6ccffae0eaf4ce605fbf890651a7a",
     "6282324497fab1fd56ab78efe019f5318df324843cd9f5352df9cd5f11d0481e"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "62da047b57cf3f076db3343c2679d60c88967520c2b57e8a748382317cbc58a4",
     "9bc21527fee4cac49e2669135f5dc3c8b623d1cd500abef9ffc5bc58aa57b8c7",
     "b97bdc48ba89636737d40abfb743544df3d63eb31eeb8b4e478c5e74180883b3"),
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
     "2917ab8b1f343e5d802d95c302fef3920ef23d93a9e8f3b99408cfdb27bf3acf",
     "dfdfc530b192ee8841953f17d8b1644454e7edee45c9cf6d62791896483020eb",
     "1c7f0bd61b0849ab8feb91e96882685691f86d12daf34c41a67b6e5082b374aa"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "c98f4ede17f690121c9868353bd4b992b7363416272bf96e062688f8146ae44c",
     "3f168cb51e3ed9667652020a3570a974d2d431c4603a7d79a4c1eee12c42ae1f",
     "b746d6ee3c9c1297e0f28412986f1f89c88e7fa7fc23a142aaa196a366ac5f90"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "da1dbe1a96fbe86c32ffeece8b9f580456eb9726654ea4463360e59324dbce20",
     "a24f9903d34946dcf5faf45a78327df4f0337df03cf4f00e5e0ee4fdba787cf6",
     "d6fe042c5bc15a8717f5646b414ebb00eafa553e5e0604401b7b63c4a147416f"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "292522e5a58bda19a2665b1ac875830c435218afdaaff71231b4bb786adbdbf4",
     "ee0de273c1acabede7eec00bd20d532f31213ff5b952c6dd4b8f320eb73cdd49",
     "2bdb8f1b9f9e92e636b42bbc9ac1e2dbb80151e0c6d486a1a89bd0ce944496dc"),
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
     "d9af3665d35c30c1284186e3c94137ba78e55705f7e7468b14107a754f2cd570",
     "4b696e017178066b24b8287f982eb884dfaae3002a4a4f399a8bb8dd6d93d48c",
     "11ee0c4afb56602a006621121d9cb0c91e71dc23e213c58c26b2a3e89408c7ef"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "8a12fe2e427103ff710e1307b757e62d0358388b9622ac654a2d4165df9a817c",
     "a790579fc538a992afc08d2b57cef7ff8ac975e9cef4ce214aa4d590b28bab15",
     "0edc4eaa8acc998ecfd35064994f987417d5ee06243be4131089376de2b27a0f"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "2961cfe2f3bb4c1e01ad554bb247b0fca9f7ef125ea61279728758abb4f86c35",
     "9f79bb11a8719aff50f19fabcc10fa425b8b860ff321459740dafb1063388aff",
     "a753ccf017c2e4b01a4644fc8494bf6b9303708609a0598d9d41ecfb385f6a28"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "c16a98d09e01cd311cd7f7ba030a4776079f51dd3d99e27a7280fd7ab2981048",
     "09a6e510f7eafee77df3233fcc36d1a29077ca1962f5fcbcec7d050d6ec2d4ff",
     "288e35fffaa5259f9cab8e56a7e624945a6684f1e828afaa458cc505649309d8"),
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
     "9c7802aa9ba048efa619c7f8a6277a66a92f7122fd57a8ac8c9694a96bf59362",
     "6a7ae7e18692f4ff570d2ff42bfeea8fd8b8ff9894e103527d92b70ff1d04504",
     "3819f78f5bea66b56b709920eddee8d55d200b8b180618dce67c338fe479beca"),
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

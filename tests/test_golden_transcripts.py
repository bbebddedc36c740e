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
     "75675b8943928f22821b1703228d3a8d8794af50ad81fadd15753d2d877297b6",
     "8cf4dc7307ec111584b8b6aba9a61af3ed4ad6e87173f15300b1139aa81f7469",
     "4b55b9efbfe207c8e538f810716e3f91001bb8e26ce6f557bf0dfb85416c9de0"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "28edee2e8f19f0c9032d2a4f8b55d40a42c9918dc92635fc1f63fa866cdbb114",
     "4597865b019aaf509166fb92e8cdf6913f01b82f8223456d8bce4bf04b5b8f56",
     "16db9c153a91c15c49b878b5b32500d89e2a1ae8f5974d1ea06f1c4de43c854d"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "1b84c79485369f494846a1f2f5df8d7b874a24831b0683346e378872a5928893",
     "5942b6eb0850fd26198e0a29cff4d4e671eb851252691d8bac5ba0f8bfa8e7d4",
     "e988e27e10d4c1911d23ce3edd9287b869118f88dd471d826fbd02b99c5befc8"),
    (0, 'substitute_output_label', 'reject', None,
     "eeef1976c08cb05123d37b2d0d844537b76e1385ae636d913f60a2b8cb7f5d0e",
     "6a59293e4a78d845ca1121217ce21ae332a838b66c8bc8f067c7c319d7c2b361",
     "7367bc851971c3ad25a9b7b511b7a37f53d58ce348e7842f12f4ba5cd5249bed"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "88aadb608ab4d7f053a8d24be490cb035dfa5d6701059bdd37eae84bd34bc4d3",
     "02859d1c58142de667a23c01e8cbf484d9cb529a13078d5525443250f31c0517",
     "18bf766f86e78f605be9d28c2a145091f20b161d93236aa885a886b2e95ddb9e"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "25554a49b2cc110c90ecf06740aa903beca13bdac4fc0ceafad08e580972405f",
     "6c8818a41fb98a4f7f765a9522ca5fab81553d454f3e1bf5c18df4765a164642",
     "4d7d90db8b24943ff2baf335209e877c6cf0914004e2e4cc6db430dd02fe4441"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "3401bd00a4136438f1bc575de533876b158b34e79cc28b2b4042dd69c1b2d88d",
     "f21a96425bb40f426c5aaffc66825a3cb576eda34d83bf2dd1ecbc71ebdc39b6",
     "01d60b13b124d51a06e285ff63bff7ba3e5efb4c852dd105c5c26317eff55d96"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "eeef1976c08cb05123d37b2d0d844537b76e1385ae636d913f60a2b8cb7f5d0e",
     "fdcf449b3b6094ac469a53927210d72d1e764c1a147ef3172d180a1e109038ae",
     "13959ee81b6c3f53fc3fa6f3399bddafb719a424634d22910029979afa444031"),
    (3, None, 'accept', None,
     "f5d2ab02f31716a6d6a673f079e3f3ed59d2444b6a48e7862f4b2686e55e9c1a",
     "252ec2d32e66daf746e38f1c1b43426b1c9fa87a1441095edf8f24d3d0b8471d",
     "95daf94c0435179ed66411912ac38cf1c5fe22dc08dcbf843c0cce6d99667af9"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "340a0be9ea1a3d78415be618e4032231f3fbabcd0df7850532800883e7e45cb9",
     "ed3d1ab1cf9536c4a0f12548f04ac76c863f2d68ca5cb7f208a831bd99e9e9c4",
     "a469f6bc098c924758218aa06085a8cbddb96aaaa6f37a4e0db5d6f91bbf4d59"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "1cc902adccf4c2fa07d2b7840136059894348a241b377082f23cdabd8e0671d7",
     "0b449d28d8d0bd7e5298b61caf3d036c51d92ee4274fa15b48dea88bc2b1c8de",
     "6833286d1c1900a6df242ae284a952f3348a40842e42ea2498107c58f3a22284"),
    (3, 'substitute_output_label', 'reject', None,
     "1148a09bacf4ed88eb15811c9ef4897e0730daaf60a5ab76e151f61800b2e848",
     "096321000567e1baa3137517a090634143cc0d0763efd840a5c880a014aadb9c",
     "2a0dbeed2e22bbd6d8e12aea8a1a26d4074a82408dca74ad7b4a366b6a5cfc67"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "88aadb608ab4d7f053a8d24be490cb035dfa5d6701059bdd37eae84bd34bc4d3",
     "9df2c6d6b0f56d768e2433e57849671fd8b5cd3deca97dc3e25f0057e06aa5d8",
     "55c08070af965f29b165d998a6ccb6e8a67d61dd4037c3ee709f337bf0841624"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "32c7d79f80ecb05c9da018e45e675425eb9dccd890b6eeb1557577bae4b24835",
     "7abedd16862986c7fa70868eb90a811b85e658db1a5a7addde53d951bb0ce804",
     "25939c689ee7bebaeb355366d2fd2ccac90a16587bd6775005bcd8b32dc0fe4e"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "06c0d35c3747576afd8624363805f44ba77d3225a71292aa12248dae259398e7",
     "0232e697386e9c491b3a6fb9955064e9398be7c7422c8176fd2be9ab767f36e9",
     "30ed4170e14812637f579f66c6346b5b209614fb106b351b30df3ecd28f5e9a3"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "1148a09bacf4ed88eb15811c9ef4897e0730daaf60a5ab76e151f61800b2e848",
     "f324ef9bd91b2ee36afb00b88d36b0b2f08eb7009e81cecf9cab515d1a2b1c58",
     "ae5367c5e472954c2a3aa037707457023256fa09096dc65cca130aea7e0a281f"),
    (5, None, 'accept', None,
     "ff7b4f0b316a4e744fc64897c9c7d886f063086e114de016cff4ac53339d8f0a",
     "fdb71a03e2e4847d3312ab8cdb273a276f6dd2be5cc3ec9cd9526022ac0216fc",
     "0c6655deeea850636ae44166e8c0dcf4a0ec1fd8109c47b8761100385468fbd3"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "8e42c7e5b1b18b24210d058c5042142d24b67333c6e5afd8e00e23ebc2f4fb7a",
     "feff7cb57806959e79b9996001c29362d5d3e752fc48e2f7457806780785345d",
     "962a7929c89924d3e14ba215a40b2401d6b89befc29051993ce5c39f897b5760"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "c986d89505393495531e0604e98f0d2f65ddfac426df5a4a7ac16cb5bedd37c3",
     "a00cf7d527139d62e37280e7e7d49f1c9645c3d82390e0dc686410c15303f781",
     "b14256a72a5f979b0f8158f1e322146423c6e2fb3474cbfcc7a3e93828deb6be"),
    (5, 'substitute_output_label', 'reject', None,
     "12e61df6d0372969adab25547811a36dcb5b471211e0945abb7426a444dd3db9",
     "2c8f7a4eab173034d43b6edbff769f40e8d272b411f0f6dbf1e31c8f45d7bdb5",
     "aff704884e04cfe35282499e31fecd3257df709e5455d8cae6707ae3fed96d25"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "88aadb608ab4d7f053a8d24be490cb035dfa5d6701059bdd37eae84bd34bc4d3",
     "aa826662a3c2c4d7a1264f1cabfac6feb6523c61e43faf40abf2056cf890ffab",
     "c4a31e193b9bd4ee25b95ca5d774f86969dcd0945b9d492d7b8ddd27d2e36e5a"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "286f160eb36990f32112581e8587555dcfadc7b5087a18c41070b801c0375036",
     "883939cbe9eb2f4abb13ad84b8444ff7ca63f0f44129ec934cea0fb83655db1f",
     "034f9cbbc0a08a79abcda28e7a317b0b9dd2afc6194b31776f47e1d6c7fb0b1a"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "6a890c501e9deb1bd06d89206c0398090619f6caffc378eb61c9b556f589113f",
     "0e5c67155e5b33c8a02dac367539d786aa6eaa9de584bcea13f17fb3deda7046",
     "a95c30a72c0fd00acc252c427468a1f26fd4ac30e6ee6b2ba3840bc409912a12"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "12e61df6d0372969adab25547811a36dcb5b471211e0945abb7426a444dd3db9",
     "13ecf6b9cd685b8a484a5502e4bb8a356e7dc5d9c8f5a4756adaee17e669ea2c",
     "ba6dec3c6e8ce88ed0e9e3431bd7cfd1168e9e3dd7f75a006ad450bb7a8c3698"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "747553d5806b1b998224b8331df1c8906c4e1a9067c8feee2af2386160e1e638",
     "908b3059ab99556385cee38aa9b5ac7ae2e3b6810aab6438ffb2b5af05444433",
     "0fcc18f62f2c83e013a03a4a432c5c571d48c39f9f7337999e1145f716a4354f"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "1b7e54141bf7e63ca291ceb0b7800decae09cfef47410855f9acc8ac702d6877",
     "44e53ff86374ed167d1d7780bbc362e2a4006da6099754968e204d951449f9e4",
     "dee0adaffc816b2519c3babd6a71cf8bb9dc51b862ecaaf14b5ecae21b7d5574"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "7196abeea2e3bb8967cda6506596bcea285e5f96e721a025e4b7bdb6885bf9e8",
     "c6f8eff2f9bd1ab95ab9bd946bec2203468debe9943561fc142bb0da693e20d0",
     "cd29a03c1a9ab054d343cd74c7335379a38f6dec6c33c0dc103734323ae251a4"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "db89da0fded0bab42651b8728cf1fa40ce877da1b1f777adc49ec7a63add9d08",
     "2e49d18b0de39ca47bc324525e3f7b49e759501b5c87f96fa1d8ff7443fbd5a5",
     "4f844be910e432012fa3bf989e5fc5a399de7034351d5490e1fe8fcb490d8ca1"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "320fe626df32fad1e5a21f59972bf4141d48b98390fecf35db9a7fc62283b7d7",
     "4d88ce9b59afb238dbf46df94881f33d5e339b4f19b845e4ae41efbbbc1bf52e",
     "175113d65f1b0bdbe7dfc73740789e9ec9770bb5b9ac5e3f3c1c9cf04895988f"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "519bd6b69ee275d3e65fe16650804d527ea2cc23c686b0e99ee068f15150f217",
     "9fa21f5963ca45434d7895236c3bebd34dfd26f48099533568d96fd18e74f6e4",
     "64e8da1cebca3733d79292376a1f4733a5ba1f7778c31d3c8dd0297afc3a5c25"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "28edee2e8f19f0c9032d2a4f8b55d40a42c9918dc92635fc1f63fa866cdbb114",
     "924732707f7ad6e0223d39f72d7dfd46ba08cedf159d39418d21011e5c997d14",
     "45aec00605ed2185537a87a287d353c0b184ee3b18c7097de63156b363881cab"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "48097e5db7a840676bfff95fb6ecf4a9e1b4f0ed63dcd8142cdc6dca86f799f1",
     "4e9bc6dbcdf05a244ffc10ad82a1ee3e865974b12540e998313470df259f4788",
     "03d8f7e2d6d96dec6b8ffdf96457671bd53ecc0970ef193ebd1a5b2ea2dfed89"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "cdb8c294cc823c6bca2c574ab4e6d4b2612359bd937ea03ed3b71b0173ae7815",
     "05c405fcb2498856456d2db727738f1768d646cba93bbc21ebaf58279e80d3bb",
     "48229f38770180744b38c6893a6b35ca015c6d02a5d0be207a1b6dc0b78bf284"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "7db7cae75b50e8797bb290e1b67b996b36aa9d761fdc672084f2b2bbb84b6842",
     "f9730a14462525c80064f2a83d4c785a92a994e2e879721792f2fc0c8040c369",
     "fb24516a1df4f77737c0a5c0bb1e7f7b90afda8bb1eac12a436c2c7b15901495"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "8220aeda025c34cb7af6eeffb87ba790c05dfd1c1b02462ab55a64039e0f3a45",
     "80fcfbf75d9347a3c177d2b052cc95ab2686ff7a961fa42ad75cf3ca31a7ea75",
     "9e0c2d4801e2b02e61dff6b1bc9dcbd144a16310005d09f468539373d43cd863"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "0718dba54b27e5ab84a2c52b1d4dd7a55b6f8e03af6fafd1b61e969356edbc1a",
     "a05b87f9d5ce88e384580b4af6928ef1f69e9060916065bf121d4c5281fdf391",
     "15b15032bb0add9940f8f71565ba7252c3b9df2a95f6cfb0c6b70173d9c4e082"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "9686598b8d1ae6c3088c0cf151b6e3753b597c981bdc8d36584a56c449095767",
     "4c9abf2d1b1753c52d5d18a52cfdf15444ea56590af17ea9988d7103dde57e23",
     "b390128a2ca7862edd52841efb809a169f4947f4627a26b644f827067390b89a"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "519bd6b69ee275d3e65fe16650804d527ea2cc23c686b0e99ee068f15150f217",
     "fff7085da01e0e6f206fdafd393f26a7fdd383cfa35bb8d4385b837cfdfb488c",
     "491628aef80b10610dfccab61af0a64be54725b0e5079b102e13b62bd6bd205d"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "363fbadfb184dc37b3f5f922c77fceccbf6d18154cc147553369a60b2fa1ca5c",
     "f9fd3545fcaefa9740ca1c8831c7a70561b7e92b9c70916a2810ff54acb929d4",
     "791caa430711cfd6f9f774051a3fae1455f8db77b20db70f580bdfe50d0af5f3"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "dbc29be5175c80b506be9a13cb5dbbbb58d446002ef21627c03a50b0523b2aeb",
     "c6dd1019a5d949932b512abd0dac1df2613cef37482c9d0b8eeb09b19be260e5",
     "ed41f09cd18daad8d475184a6fb3e7a7c5c3e5d49852a379b5e8dbcd7bc76330"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "e592c2d3c41b3dfb6e78d39d8779264a2631b66bceebf138bc5d1987ec312ee0",
     "83fc4eeee3821d183c407b629161af0d24b2ceb42ddf29e91992b872acde57ed",
     "874c94b19f7b68fd05d98898fa28346a03ec5771aae170ed743332d904e035f5"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "1d6cb45e69fe6f825d938a0ed9df1729a1540e9931dcda95d4a339473741ab2c",
     "cb99047aeb7a502a8051b7324d2a11bd1d14f33d19cb02344c7c76e52e600da7",
     "7d9700bb2a88e8a0edce13b88832e49e53444a3954119d0d71b221553982046e"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "75b86f29d8881852df1a7ed019285e1e54caa1de9437651d3edfeb2213c397af",
     "1eb54fb5e3e6ba7c5b8d0fcb05cab68c266402b8dfa403e9a997064638a14833",
     "3680236e60ccee23ab309971df8ef979d0b8717226076898a9d80c79c717e9f6"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "c0d54af1982122ab82776f40d79ed41a08585717484ac1ffee1dfdffe4f28359",
     "44690e1d606ae9e94d8bcc172fb6eb8d23e9d9883833bf9d4bd7441c3ac4f9d7",
     "bdfdda928b100cd2088fffd450da133abbdd44c20989c1da5fc0418ed669fd5d"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "e84b9ec10185b21c61449c01b4f6697e9104dd0a209aebbeb566ff831501fc89",
     "4d22f9be5bb9e668e94a083374cf85dfdd5afbfcffb23397968172abee4b9bcd",
     "d0fa97fe05e19255749433075c080bb7020db0158a6df1ab5929c2739e20fda9"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "519bd6b69ee275d3e65fe16650804d527ea2cc23c686b0e99ee068f15150f217",
     "17e61a04372f732268518f0d21b7f9da515e23b328b581a181eca3af14a6be5a",
     "da407900b2769b50f5a1373160d8b8c86f0343851a749385b9161b5e2234884f"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "8e42c7e5b1b18b24210d058c5042142d24b67333c6e5afd8e00e23ebc2f4fb7a",
     "f9ebf9c4e5e128282859160ecc8c3aeaa97b02a5125e1421b76246d1e1110a59",
     "c23bb0fe142bb465507f6aa5f6f5309b10fb90830977bc035f67d71a2215df5b"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "8510a07fc69c61f9dce2312ab99abf15034e615aa6c24ca6ea189759d4429eb3",
     "9a2376a6923146561d1be8602b80a48600b20fb10664c30e45cc5adbe783e0ca",
     "c372902533dbbbc9e646daa8ef3be5c474be21249e84200194948f03bdc4bc99"),
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

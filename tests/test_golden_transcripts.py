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
     "03bd7152a11da797d938af962eb071f32e20ca5c51bd5d58e8e0f6775391ab31",
     "230f1df7d9e87332725608465d7386c064cc9400bc48268c3f1faba481b136a9",
     "ba63337da0b0328e026733255fbf6d033fc7520f6bafb3201887a36bb06e1aed"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "9be10aac321909cf25df4600fabb4547cfb336918b362c21c410c38414e03d6c",
     "2da0e0a73991eb45f28b28c14b852e98585328f3f29a97379e2568da800f3c9d",
     "6539693f1e177193ff49f32b9a437fc8079474e76bfe69e05100435225103c3a"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "af095ccc3d3233231a93be0c54ef95cf45793022e7dafe76235b6df88b0d9d28",
     "21274487e09f89e582105a15f66512ecb891b380452d236e8fee82d6b354eacf",
     "a3689964e524cfc58e9798ccf3e1d7427fba60e3526ca53b5deded3d6cf78fa4"),
    (0, 'substitute_output_label', 'reject', None,
     "087950e47288294a9ecf70c2a9b3a6cc8aeba2a1a490e25130d8895c2dfcf97d",
     "6056de292eaa804a065bcc08b2a886a29225b27706af5367ded766cda6233e0b",
     "785f0e0663a276858d1124a00b6b3a4bf709a9c45cd4307074c565bca446d567"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "821c654dab88d470426cfa4bfad64581005c184c2eab225d7083a3446ae4dd56",
     "759dda1c194a8550240cacecf4095a686e23af016306f7e0d1f3e173a42c6c8f"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "34101c46c55733ec3d47e40a5ff059d7c45b6165a5a40dc0a12d49e05a699b03",
     "5c3ceb844ad20759c67f8565ce1b03b10cbf13eef730d6b70e16d4e82d3843c7",
     "bf6cec7e51776e2c6752dd62e54b0da2c97cb47a6842a7db74458592818571e0"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "0f43669017debcb8d2adb2d4f977dba0e19f1876c915c131aa12252baef4e8af",
     "582a7fa1c4bed08452af7483b27e8d7f9fb2b84863c8f18da1a1f26f058aecd1",
     "a611b886d5b2bd9419485268fca795392bdec5c53823ba78566c6585be12ff57"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "087950e47288294a9ecf70c2a9b3a6cc8aeba2a1a490e25130d8895c2dfcf97d",
     "660f075b1795c41afc9d4adb4d0dd2f5625f20ad1334f2ef2561d68dc1c92e35",
     "dd28fa512659200540560ba217555d1edec90210edbdb903c248428c68fc89b6"),
    (3, None, 'accept', None,
     "bb8a90b7f8eb89e5d828faab98b220f7b08d5daedc390b13805346fd9043949c",
     "8b73ed8faa8875f3b4b43b19c2628bd7073dd39c85906e79f63c50971ec604ce",
     "780790dc02c6d970df6ca633b6e1110c4170e140627ad05a32d3d9551785c6ec"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "089da82f76dcf2bf0577086cd91158b7680fb3038675fc1968ed2cb13eae76d5",
     "c076b70c92cdecf889f5fde85c0409fa9446bf9c8060b0c111f3ebd14811d9de",
     "c12bb8efe5837c77d05afe7a4caa0fafad20bcefbca0f36234dfd5c86ecb0503"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "ad973628db19c64d744188d2f99358c2d9d5a34d0ca9adcc0528887b66e15b27",
     "5f49b49294b7e74004f6d8cbd5216ce80cc8d16c4e4701f125db9ab1e06dd295",
     "b2874aed72657f7d79ee0b9b5f361d6f65dfd6845b810c74f167652f0a50413f"),
    (3, 'substitute_output_label', 'reject', None,
     "0303a9326bf4ee12b7c5edd961fce320564f9c2a905ea1a910fa6f91aca06cb7",
     "3fbb1d7a7c4c6be2b7f9d3cd88acad00472dd564ee97d29fcba4e122f724596e",
     "8ecb2e63f53b5d7705eed81f7373a84ce53d4485793ee0e50153d14cffd9b534"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "596e21a34290997f0836065b3c78093b3d72d705aa4b708d13441ce85bb468aa",
     "aa8974ae50862a49ffcf152ee5e8acf4ccee0599d45ea599143861d426f30018"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "7947cd71a30bbe8470fa9519e0b3433668a510d57ec222b70e8e214bee3e0702",
     "75320d9a7e251cd0d42d41af19aa526559395aa65ba00d81efa2f4cbc87c3d78",
     "8a62383d467f7b34b133da6e4b7092509a530da9b25c195ad63a137256636324"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "ceebb440ecc302a7a2e85e2a80b216c23d5e0f3bcccebdd9fcafcb050e75c1e6",
     "8b4dd64935f69ba2cbc6870c9ab5c148c9a3b08a12fb587269029c1190c43aab",
     "a5805a9e9a22e269f2cb246cde80658d6e2a14e7b51c9607b39f6dbc84595083"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "0303a9326bf4ee12b7c5edd961fce320564f9c2a905ea1a910fa6f91aca06cb7",
     "48bf2fc89a18a896386f579b93c6e0f5271ddffb6075f9b79f178ff9778ad008",
     "5a4a1cedcee2a038a8b87b22162b56a5b611616f2e01e37118829014c1276813"),
    (5, None, 'accept', None,
     "39a9f6b0ede69075d38c4322287be199b50376cb641dfea705e22b0c2ef13c39",
     "be0a102d486156ee911743660b5bf8e3a44c7389983fafa8325969eee39ed204",
     "63dd70edc3aad76b0d4790d80374c1544377304cc2a70fcdeffb6031b704451e"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "d7e0d7cb0359c6ce9b748de0cb558eb36804560ca3a11cb237d6a461980729c4",
     "79d2e1af6fe89d0ed27e7cd62cb0833af5f905ca80b189f30f0226b3eb7b2f2c",
     "041dd269ef2045bae856d8c2a3e2760db302f88a4175bc6abfe5439be807ff3d"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "0c737cb6f38aa14acebd45a3af6ffcd533b00518f7796ee4b14dd49e3823dc31",
     "0d27c09480ca758aa5a01b3d0ae6463d58228129deb85d364e5f545ba087e08d",
     "663a1013dd8edb86cf4bf55abd340bfc7cea4869731a48972611c04ed12c8d99"),
    (5, 'substitute_output_label', 'reject', None,
     "ca16683f4b823c29956dbae3b5f902dec09ea42e5a631179772a187a413a648d",
     "e703a599c383db1d65d6e896c21a4135c0afb5718e05449e4159fa296156b727",
     "a66f666fe7481cb2e840355de4d349505f700c9d37ad35a0ff33ddcc55c898b8"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "5b10c5571b59411bf0d05e84b9812cb8a7aebb89d428556f7f2426ea01b7d165",
     "70aa896476334ce19ac94f08a4049ee596c08c49faff24f9cafb69aa0fd18d31"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "bc6165a5a6d25d43f25e99619d8faa0987a41a42323dbde96bae4e748738e439",
     "181b9854eb4679bcd1fc9feaec743ec31ffdf1aca0b2a0600aa849f1eab2138c",
     "57873ddfbefe861a6b540c0e98dddafa47797894e33b86c16ff423dfd2adb7f8"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "c7b27346530eabebbcc9f345983a366ab339afc5aec958c9e53f65380d0e8b25",
     "f65cc76c308f0b48463a59046612e1313dc9a70e1697c0c612bf2f4cf5e10c90",
     "1c4ef2250050bd04653b4d6159ed762942e63d152fbc2f5d52056f3b13717086"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "ca16683f4b823c29956dbae3b5f902dec09ea42e5a631179772a187a413a648d",
     "cd24ca45cacd3373eb812267b4bdca62c663a145027943434a442733ef8d4821",
     "f5fb39bf5dd7451ee770788618e39c1e4eb0b08d42fb3ad29397da2a9953857d"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "d540cf4c3e7ac49d57ad001391e9233764d47266e46a2719fe3cf8c70a34e221",
     "0f335f7a6eb8a8719d4c1961be66632586cee9453f14c64e6f67cec83395dd64",
     "90c5decb0cac06c69ea351bf77ccefa449618b96b304e6e45e8ba5fb9e168b73"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "242a2b849085f6d9d19b02565827f1f49fed22ab3012ed2ea6ece580e1f28f53",
     "81699d175a46e29096c03e81960e6ffe37d350b700b481f7a420674fc5bc7525",
     "00f1be5cb07572868263be279debf15920d899ede5c4143827975026a3673274"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "986ba3dda7f7f84aa8e8d12e446148841b4474a2ae189b320add3163915d5a75",
     "88137b9f4cf526bfebac1d31342c61ba387ba957a54f091a73a8c69a989bd05d",
     "8d1cdf3d180227e1f134ac5948b1356cf4af3dfef5cfe2af4f86f06fdbeb45ee"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "441df8fa1edc98636c9760c6c8529bb37a392a3b2d33e9a5d58a4eef26e05d60",
     "782597b8bfa3f1f8dfb011c38a3febf86e3edc787edb4102cba669a5be2e5405",
     "f0545d8a6c7d02eb71ccc8a2a6a3fd071c601d3dc05c43e4519fc267a240dc73"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "f53da6cff51c63b5f4e6a7c577c928185b7b13ebd0ddccb7b8169326a98680ff",
     "bbb83f73e8c6e05505480857feba56a26bcacd0a0fd983e0a994a2dc81e1b2b1",
     "eb1cc1ca88f3b549276e44079ee9463e5ba636a6cfcccd3a029c65d63179a213"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "7fed823878f4c7d349644f06f6e5cdfff8526d1054ae7a029cce4a50f3e06f73",
     "b7f47072171702ee0665456b87ea006a62c5ce5f235e15f9c30e781e807bfc60"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "9be10aac321909cf25df4600fabb4547cfb336918b362c21c410c38414e03d6c",
     "f067b96c191be35a5f831ce3d2e8c21772e5cbab9d7005f0317f0eb6442ba43f",
     "4bba67ca384699b82f915ec60494dd2362563160d108bf6b69a10a0ece55002e"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "e401748da69605add06b12b38cb3b9d8956750d8f33983c273ee1799a543e5e6",
     "d3ff63b89f2181c71d0f9836a45322e4bf840ef3a47c5d8d731b3556bae915e5",
     "2dd0b96c02d3c161c8cbb171a43d071e83d1ed86eaaedd2012ac6026a9e4ad2f"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "ba140bdad794cd072ab1fce6cef42c1ccda821ffb4ea983e754fe4505883536e",
     "d02ece32730b68ba326b4086ebd866c05a4e091a7ae3d2fadc2f652056c36051",
     "23aee715acc54d331ef1161103e2cd7d3a8c28e51accfcb2407547f8dfd15e5f"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "4d1faadf7bf9dcdf2c3eda0c89a95b856cb8546059b2929977a3a579d067b740",
     "429b4efecd543adab64655e6e53b38f1b4cf8b5d29743a35fc597caaac9c8514",
     "0fcc0aced55f4b4f6952fb92ed1b603fd8669d53b9d8c1a932abc61864aa1a83"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "23ed4d169c4a76206edbef0a3fbf6bf059781c12f0fe12b52fbf7fa72a068ab1",
     "bae586bf4b1162d83f90d93f53e8c76906e27e250759e708177a2b3ddb536910",
     "8161f54bfbc0e8b51a86d3a18f4082d8deeeed1cfb1dbf7ea8e2cb64e3b90caf"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "a52bd2ae6622613b1a8f16572c86be717852388449b64637944fe8e6bf28de09",
     "72d504317bf9015ee88e24847a2f22f83cf45bd3d4733eddd38794ebf289be72",
     "c9cf1ea161a8ed3c48711bce8d84128159bcf052b846230d3bc890d1680597c8"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "05247900d0ce99bf105b4c9cec98f3d188858508daf606f3033ae2be1d0e3d69",
     "1884c982ab086403147cce25893f163e3a2d32496fd27e1903d1feab735e2059",
     "c2f4ba1e0b95fa66fc5d838872b180d04e74aeee7e65cbf45ec25677696bbec7"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "52d515a0de29a2256e4e56f9fa350c051c4260d05772304bd6572333c77cc93b",
     "8d20366a10f6d4ca82e31d91e87e53082f33296523d9da0cab8b8513d12cef45"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "8ec4cd6a51b73da5df0fb26950a356315dab7df227fdacdfad37094e964c8ae1",
     "ed2a879755979a2547cd547d60ecebac170e2cc61f2a9513edb15c34d7053105",
     "8a4ff420d5c045f25afdb3e7f8bf57120197380b447581623270f2a80e321038"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "55686293eaa4848e851948a83036ad27ee2701c85ec76c58f4b2216deb307487",
     "3bd578be76415116b3d88c7010234b0865360af618d93c9adfdb29720a718f7b",
     "eb57d699f7e3f02b5d060c366f16c144a949908060dbe92ae41ed80bb54cc9cc"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "74ecad456dffde7dec3624c12a7325b14681d15ff871d62f615b9dd47131c6c5",
     "17e738277e1a510e1ab23e1ec345e9ce82aa58c429cfaa5c3550e1a39039313e",
     "979bbfb67fbe8377ac51699a3f6fadd310617ee45bd5c3add9930caa0ab18ba2"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "1113e342eb8b89906a20ca11301bb31e3dc283b4251312886e19faa576e1cf1f",
     "7d8eabf26ac0d1ddd12e38a54fabc528c4ece9e962a572a8b2e35d0be31225b0",
     "02f6f54a2461498cf3dcfb74d12195bbdde43d9c6f05165114498d7049047a75"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "0b582bfb12af72cc8b8948052988abed9eba45160ab7ec17db06531eaf9d7814",
     "004114f78f3537099a041aa1b4f99f8f17a97ec8ac4e9386761782461ba4a8e9",
     "d0f8b5d9e061dce5020963b00d7ed946fed36e4266fabd63859bd9db99b64d72"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "2d6be7a38faf18874a961209b3ef1e306e7eed9b7149f0f5ee182306b2bbf2f7",
     "8e7ecd974b3ca33216376806ee4f71cbdb084713741f897ef090a1d2f0061f59",
     "d57ad64745c929f2cbf460abb1f065183bf109b53c9ccfe463836076e702e693"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "f69ef65a49c96fbde789dc060d32ba176ab62c60a09bc142aca999555d678e38",
     "f5594a330a9f2f8f64243985db91ca704dccc31267d7016101d0a145d9a95a3a",
     "7d284812ba33fca49c14e7d83cabc1af6fe651d388c52fd5a8a8b7a4c67321a7"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "a3d368b31d4adf6116204426525f76065cea2701c51f09d5f3884ad04c6383a9",
     "a8bdcf027749ca4027a640e0dac33240e008a6f3a13d3ddeaf2e66b4d6d011cd"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "d7e0d7cb0359c6ce9b748de0cb558eb36804560ca3a11cb237d6a461980729c4",
     "f9863f12ccfed5f0bf9c31a59813ad09346b8b5eef591e2e2911e1e15e1067f5",
     "e04a00423d7f23b2b6c90f9bfdd631c89a12a6a19983ca8d90893df998a67c8a"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "d8d6b323ababbba2a795b0fab51264e5ada8984be8b71012108e0b05ad60a3ab",
     "5df7208533cd7a4aab59a7f056fb8fbc0964fed59889f9112cc7a500ae73eb2a",
     "369df68076087931bcb9a8bf07f050559d8b74566f2e905c37fbbda8e2d00204"),
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

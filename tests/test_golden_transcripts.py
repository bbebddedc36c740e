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
     "93df35cb3b21ca66e8905e9ad596c03297057ef56269955bf9ae05ce921ac51c",
     "a2f12abd4cb5ca189b5e5ca7057f81ac8552161919b452c0e6f19d4ffe98a36b",
     "a6406dc1c00b4e7f8fe3b3e20e8687cdbe2d6a75661477bb60bdd0c81c6b0056"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "b750d1dd111896fa2ae1bf9d3a0a3ae7ecca52b80b45607588e0f1080afe828a",
     "ea95aa47f49fbdc1eb2783d7cfbbf09d1e96923dda1fec43f2e767c96d4f876b",
     "7a97423f4691dfccadfd01a862084999a5a9e70a8e12ee6dd1734068b732064d"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "7d1ad9d4dc5ee5d3845add00b23b8da511ab29b43b9715e17376cd9a6838689c",
     "01f02c3446f6883ac9cff2cf7639eb80722a7e8afef304ccda0f27182bb3d555",
     "112f34b48ab966865a64bd5060768c5b045449d6a24e169a4a738c0da50daa83"),
    (0, 'substitute_output_label', 'reject', None,
     "bc074a1ee46bc6fefdc389658277aa11da504b0b92b10feb39f3256643f19efa",
     "429b9ba73cf8d71e88831676511afa84aca84468d82b4ece13461a8fa30b6c5c",
     "9426e16418a3947a23cf121786b271b2ffe24e4e5034ecd54e01b6839e6702dd"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "821c654dab88d470426cfa4bfad64581005c184c2eab225d7083a3446ae4dd56",
     "759dda1c194a8550240cacecf4095a686e23af016306f7e0d1f3e173a42c6c8f"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "3401d2ada5c2caeffaf2743cc5cb42933b97c86dd55a8e42a32d4e573097f9f1",
     "e14d1b2c2a836c9fa4f4c6b6e2b05748147372c22bc8b225483a89cf9d95465e",
     "89c696bbbcf2ad3cd37bd9adbc1ec1ce57fffd5ed4653463b76f61aa8dd96b03"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "0e8903984c55fc5f0a4d295e351fd998466b5a58e9639509e01b506cc1450e1b",
     "7eab4276cadf6065ab2dd9dd38f41a3b62d7f1dde7a4d9a2be84975ca4e61bac",
     "a8fec108f7c358399f4059ebaa43b9f99659bec1384e8a32481a24f184a8a39f"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "bc074a1ee46bc6fefdc389658277aa11da504b0b92b10feb39f3256643f19efa",
     "9075cfc08d9e92456e1078e774e9f74035f49c7634a9223279c0d883b0bbba8f",
     "4585e2e1abb3901956512f1a42a12ce5e36838f516c381a168cae04bd18bc3fb"),
    (3, None, 'accept', None,
     "97fad993518ef2fa9d2d70370b819a86af353b1be8c8546cd59f591981230caa",
     "be0a494f1167ea0f446a73d5f60c11240b285fcc2259e17de2647ccacf4eef01",
     "c63ad380512f091bcf39fed3a3d5c493e8f4e214db0086ca7128a491a42b0ebc"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "03655e8c124a21a5c94ac21ee786a0c9b5eecb51c5bbcf380d0b2b6825495ac8",
     "30ee1abc187fad7ba5a8e9a78fda8a5088d2b283912b35b4727da1d3cb6ea662",
     "8e7e99f89da4b447f1669f368527720c78400a6047211c27ec4524b8856d35d8"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "6be6ae77645ea537baa51b85a4827d89f6b651c74d323090553a4a06f8b4678c",
     "26eefa85e0e7b97e30528d09fc2502b32d58ad0ad1a9172cf22974aed023781f",
     "49a2c3140aad119362ae7a0a56e85d9616076cde7e6bbb2446e83ff8beb95001"),
    (3, 'substitute_output_label', 'reject', None,
     "a98bad052d37058599bac24aaa9b0133b82b4e76946e9ed5535e4956ae62b574",
     "4b8088f5f4564a7641d056120c8ccff61f47885366b2901b995d9876a53ca4ce",
     "dab730dcd18591fef076552d6c120644bc934d95eca0c6509053c648be6336d7"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "596e21a34290997f0836065b3c78093b3d72d705aa4b708d13441ce85bb468aa",
     "aa8974ae50862a49ffcf152ee5e8acf4ccee0599d45ea599143861d426f30018"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "3fc1bfd6ee875f05b3dacc16cb1551ead76119bfaecc658ae792c7b4c6f4d6bc",
     "ccea8df9e332f236c5a929a9f2e44547bb2c1d4725bde8eca24e53ff4d2d8c1f",
     "2df32a4e008e5ba9221ea7d0ae22c81628a6089147003deafbd6589d4313e83d"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "21ba4929e3a87aeccfbf0bda42be69d798e6ebe135b7be0c76ac30521287f4cd",
     "f6ec6a39e6a7970467207f61b2a6d012ed1a75a8f050b70af1dbab75f42735e2",
     "650ae63a8d9213213f9414f0528e2744b7d2933f84127d45f4534202d843272a"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "a98bad052d37058599bac24aaa9b0133b82b4e76946e9ed5535e4956ae62b574",
     "2918c3e89493513d5755eab8b438b21a8f4ee5d86527498c9d932683ab2af499",
     "ae021da8bc26d6690d3c36ca617e351adde7d71d84dc13455d10432c3c6df0bc"),
    (5, None, 'accept', None,
     "965a99169afc2098d1d8ed6a893f6d2bf698f76b61ae7c7733d1928379c751fb",
     "9de741585d7d0eee93b0eaaccc45c74df45af90fa6214d909f3a2a2b5489ab0b",
     "12d0c5baa6925ed16dddfa19aa3e4d48e230cd36bbd70cb3e01a15cde942fa97"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "ce9e4a6bec137f5ff09e6a5a1faa62ebcba9b57ca990e5e83806420debfb38af",
     "dd58bd102dc5aa1a0914ecb75638630bce07d281f0bd0276cdc5a45c5694ba7a",
     "34b63a1d16dec1d4f93f60e1784794b3407a05d7b25121ba831fcd2a26222bdd"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "cae6bf03e46b89b05d76a8d05718e580bf19fb552a0db4bbea7619fdb311582c",
     "e89fa19c55db43cf79bebb22f5c8703165fc008292950be91a18826d773d8968",
     "5d7a9eb79563584fbdc4de517e10f0a5ffba42b6e1599492073c05a1d378d87d"),
    (5, 'substitute_output_label', 'reject', None,
     "ee2f450e606537f4f5c9b9467354f44c5fb11cc70249f4491961fb62f30f0c88",
     "6abd3fc7fe1d2d40c6b10ddb59651b328fdd9f322bac9044ff98d292c077f624",
     "59a3729698d46b4b5a24d5fdb21000c30486eb0e92460375af8ccd24f853e4a9"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "5b10c5571b59411bf0d05e84b9812cb8a7aebb89d428556f7f2426ea01b7d165",
     "70aa896476334ce19ac94f08a4049ee596c08c49faff24f9cafb69aa0fd18d31"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "bdaf07c3e7054f27f907e1863164d8811e8a088094ab8c712c3cdc2194f1cd7e",
     "980932e7be064de411e9ccf130e6c337b2176e381a817d46eac9a80b08895bae",
     "fbb95e90b73ab87f6939303a1eaa05285f17bf83f5aaec9e39142c8d51c8d17b"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "0f8875ea3153073854fe5e976d8e363011804fd16a304bd113b9c232f0a42e01",
     "933734f081202a01c062c75411de3ec5b2ee67f68d77ce09bd896ec5bebca0b7",
     "3ad4055cc18c5f565371416555893fe2ecd4150abc224dfa72579453c4a84e8f"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "ee2f450e606537f4f5c9b9467354f44c5fb11cc70249f4491961fb62f30f0c88",
     "2283813718cf0912a9ce9d27ad4faaa722bceefdbae5314963b68aec76b400f4",
     "ab3a1ae1dc208a965e869489c84404aea491a1356376d5d84484d3fb14c3b12d"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "7d1ad9d4dc5ee5d3845add00b23b8da511ab29b43b9715e17376cd9a6838689c",
     "32df35396669909279e52c9367720b2fdae4ba81e8fbcd019179b323410b0012",
     "e711d2ef2833dcda35d7de44b56c4843bd55a3ad272afa937698f9a43b2b4e1d"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "5eba5d13201466f27001b469086c74a60430185b4a25b1fb551b4b11ce1df7e2",
     "d23a73f5a33525608950777092d688a7ab4ffd1363a5450fcef438a3c5dcef3c",
     "96b40987f41229a844dfad70e22f3e148f35981426f8518426f19fe7ab140fc0"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "d1a447ad7569447e37031aa174c531037ee4e924b00cfc48f0b9eea2cea76f36",
     "fc9f240bdda70d8931c8ea5c6895bddd34e5b2adc0ee122fce5afec25b5287ca",
     "83d4f13723e51dac81ccdd7ca2df2a2263c04fc6470148cea42d859873d2d01a"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "3e42ee4f8bb575c54790f2880083c81b87d3dfba0509f379b8e82fa4451e0509",
     "2291924ac6ede510e906e1cc745eee6dba8a8f39134966218fc9d3276b822a19",
     "140ab278126c7f5b0ae4851a7f751530817819ffd0b6d69bef04156bcd265a85"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "4011bf549c9844c6316a26df58d78556a7e61b61c4ca3bdccce951f1fb31a2ff",
     "111cc8659b90bf7053c0f89c274802b1999c130055f9753c86cd6b80adc0e462",
     "260f9147224beaa3c1bc1f6d50677b0ebf5ca88d409f292cfae1f22104f8ce0e"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "7fed823878f4c7d349644f06f6e5cdfff8526d1054ae7a029cce4a50f3e06f73",
     "b7f47072171702ee0665456b87ea006a62c5ce5f235e15f9c30e781e807bfc60"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "b750d1dd111896fa2ae1bf9d3a0a3ae7ecca52b80b45607588e0f1080afe828a",
     "c51611759ff00cf7a692f43ca8c6bce1a2d980599fc383a1caf7e767536f794e",
     "49878d9561771220e64429de32982055e03ebb1f556e0e0dd871c6d74e3ef547"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "8346d9d3dea8b2c474f7f1a7864224babe93ffc923200e7582af541e31ff24e0",
     "11854c3e6a656c66e0a94f494f3b28156f09ccebdf42499b772cef7fe0fa6bec",
     "00bc98beafe639246c7b058d33f3beb59f24343abb9c5f42e57082166988570c"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "6be6ae77645ea537baa51b85a4827d89f6b651c74d323090553a4a06f8b4678c",
     "8779a484aaee50d53790cf936b1525520a466c2c180456eaa881b2731ae67eca",
     "9a12fe5a3fb5e5d20eee58b7a19558f3d6978f200fb8a6233574cf7e1d6c8765"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "156a9b3ffef5e2ddf7311af4a1773e0563e8c255adedadef99bdf1ef24d6b3ef",
     "f2db5bff3a51b347ae4faa4c9e8d0a2efd760b64581e91b9b67e60aa5a137cba",
     "aac3a300aa646c958f71145e1f40095b6beeb876cdbef5a01af963c1b30b9e65"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "a7c3db987a4a60fa0f9c0ef950b8fad21ea1dadcabf515a8efb1a41366e043e2",
     "11ce5085723b2adf3d0adb83b5aeff18e12d506a8b1c29e21726d89ed5586e43",
     "fb08474970a91a7d5407429a6ab69aadc8f3b280305165c0a450e74e8cbac5a2"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "d37eca8bdb6f50ec2904d0904f325f4146d23e5f8b5d440f58b673cb776fff0c",
     "c4da70be4a9f33aec692c18c0ee2b7de11bb0e4c590c16c4b1e893463a532990",
     "b78dc40dc9abaa91b3cb6764b995491d33187acd76841d8d846adc402397b2a2"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "5b7ea534fe4398d721901281650b15aca0af94b720e91abf65b4dbfdac682795",
     "5b271985ebbb94e3d94d138be3d157d706d4fda1972230a2a06da2e6bc9aea22",
     "fccd3f2105773248dcb55117e2d82cd49e04f7d9ab5ef93fd40428e84eba8b11"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "52d515a0de29a2256e4e56f9fa350c051c4260d05772304bd6572333c77cc93b",
     "8d20366a10f6d4ca82e31d91e87e53082f33296523d9da0cab8b8513d12cef45"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "a3582c47538342f2c6dbfc2de9b1050a20d17c1278e5d159dc489674bcb80559",
     "847eee1214ff4725973889bc5ebfeb0b42ad3d842567114319af52c3edd56900",
     "6d337200ed8fdf7d82371103bd759cd2e63ca73f5e7dca3a4bd5add78beb9333"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "a5699959c6d75eb13cfa8033be7390b9563f4510a1f091388acbbb7d73528c17",
     "e71547667646d0790b5c6e44c04152d170926760245203e46b2faa925f87eeca",
     "0cfb032de2a5ae147f604ce32fa85e160c6c80caf5b0480130916f4e988821a1"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "cae6bf03e46b89b05d76a8d05718e580bf19fb552a0db4bbea7619fdb311582c",
     "c9a75ba50541c8f07fd075d0fb5ea4b66c3e8147616f77c054e17e9701aa28e7",
     "5890923559090eb54220cc38c3859f789cae8147f054545bbbfe8b46752788d7"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "9b4943e3009ca003daf45fc64c7ae8d4a893dca11abffb9c64a3b31e8ce441f6",
     "4706f1bc5b9caf7b6b2ee0c03680f59cb6aac3d22e0a6940cfbd1a93ad213e6b",
     "b139be9421439268b0a13eb5b41c593ec49028d27e5d0e7d510a32de7809b9bd"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "e6727752a88d65fb4fc94ec3d4db8f78cb3125c04e28018e697b084009a5f764",
     "8cf1d0d01e729e0e94ea8a862d62f38d0bb9f662b79db98428c4e1624fc0a559",
     "a65153429f40e9535f17fef1c7a5611e0bd494d50c5109c309cc5b3c0af96051"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "540f5396c50644157d4ccddc3221f3709d02a4822cb71ff981b255e37ae37018",
     "f38f5f866c29340630ad1c58adec1c27c0bf156df260c0a0625ac7b0b04da186",
     "a1039e81d9be75228045665a2f609c1284192eba16c3136513b7203b3776175a"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "6bec558dad560fad58daaa69ffb3d065cd6770dfe749a7bf317c03a31e5b01fa",
     "007f33b2bf2a76765bd892c215dd1c1872d2c3a14643f0db8bd07c7dfd54c66f",
     "91c1c2b6a3ed063a97313b0a9bcf6f8d821cade5e4d621d7c71cc75351ab1169"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "a3d368b31d4adf6116204426525f76065cea2701c51f09d5f3884ad04c6383a9",
     "a8bdcf027749ca4027a640e0dac33240e008a6f3a13d3ddeaf2e66b4d6d011cd"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "ce9e4a6bec137f5ff09e6a5a1faa62ebcba9b57ca990e5e83806420debfb38af",
     "3de6dccc6af60718fb24216755debae56012dda1bea6b902992685e9e005bdb7",
     "1d6c61fb130a76969a8008c090b9d1d7b9a31150558f0a33c1a3dedb05497aff"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "1b55b5c64828f192a2695251eea3c2bf7649393a63013fb8f4fb5f19b68cca06",
     "c1d0a1056dc29a71b25509b9d8e92e6d98ede7e137b86e72ead83cb1eb19fa81",
     "a2e1ecc5cdb3fc317a923cd56f91f4c1d818f6e655d4b3809b7fad1110ca3c95"),
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

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
     "6d3d7de1cc94ab8898cc6ec5f40cd6429378eef65e8f6d6bcfe40546e44432ad",
     "ea19f9cabe031de9490fc6dacebe2a18d6201f043a12508902fb467a1311b8bf",
     "102d93f9ee5b211435f79b17a0e36725b41072bceca993af11c56a5dc8725de1"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "831e0bd4e085fc60968b56680c34c3e8fa19c0b485ec8b7a7787609558cc00ac",
     "18b51a1c9b90cc62ea38232c0b11f9561cde5dc494eacf80794e78e1b34d44be",
     "c9958657587bf1c3c3ea52036297962449ac94b525980f6a41572476eeaa66be"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "671154d20f092d0d7c813800efcb66d81e144b0b5b19638b49fd02e93267d6c5",
     "e979e1ef1d87e409854f7e333d072eca8ae77b92b221364c68e51bb555b78c2f",
     "f6c83d9173cc2cad6d5bb746a1c3543e87afd7923b40f0b9c28ebe8862ab7eb2"),
    (0, 'substitute_output_label', 'reject', None,
     "9f4103010edfc7124ba446be4d1a4d685f2b8b0955a5c6e26630aa3a7def63f1",
     "da83eca7f78771feaea644c52728039536fabe1d95f1151e90d09506f2888ff8",
     "0ea3ee975fc85634cd4a78cc2d0ac29ec2da4112c3f6a207c4d700794147195a"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "1a62659300c31ef576f3a54dd3acaab456221ce49a7a06d923b3229d55267a0e",
     "77970f7c956cd227d47c9428f5c1d30d6f5d04393e403e4263b21871f0aed705"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "a94e89a2114d7f91ca21a68975a0034a778434342132ad4fbe1a20a3e091ce15",
     "4dedb486a5431adcb0944c7215d245ccec85d8d36faa60348f92fd99a14b5ad2",
     "ef7981725b3574369fb88dd405b85452864222190f649007f25384c81ac7bfca"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "15162e005a043e225272391fb23d7b3f9d47e6f200845abf31f5db8e8e7b144e",
     "31c326ebad9a60f58cab24f09a599fed523506a051cf2840627e83e7a708fd9a",
     "1fc2f33f5a8edef471d04f561608ca3ec80e9b856f1a80f84461fed0001253f6"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "9f4103010edfc7124ba446be4d1a4d685f2b8b0955a5c6e26630aa3a7def63f1",
     "2351b9dd293902f7cc737ef1af2abd36fcf123020710c84646b7361e1af84f82",
     "b8fde0eab1e2aa73077f1556559cf554a1feb9fcf45b8912e8f435d8e203d308"),
    (3, None, 'accept', None,
     "2153519145e55f6985122c3e85c2047045fc8019e0728846bea4171bc1923efa",
     "1b4e1ade7cf357e28452f4f53807c39821bdc827309cfdede4502bd0fa62da3e",
     "c04de7060ddd5ae4f6a6e432e8809733d0b00f3b21412714e39e078c40741fdf"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "124800e68e46e4961f07d752e1802814f499aba89da39a2a1c2a0f9090290886",
     "667d173927e21454d5b9b782178a3ac4da657bafea30179891dbbd4737272ff8",
     "f41e201b7d5c4704a242c0d9ca20ef29ba1b74f0f7d27d7ab14c035f9e0f386c"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "5df4c40ae10ff89925b8bd5ba8b96ae73965c7d7bf89a85d5ad2d69242549534",
     "7101fc2459a6287c0d98b17b6bd4775502f376e4b1d83721979e8083482e6f83",
     "5a1884a5b60e8a149c3723408e2e3ab10f6c4894673de423f987a0790debd65c"),
    (3, 'substitute_output_label', 'reject', None,
     "ecec3f7da304db6575b9700864c41d8b4d575567c54e513da9b58ec07bf9e976",
     "bbc50dcc02962ca31f68350267c370c99daba2a80e2f8d435f1466934cc9690e",
     "9f7a9f104567b1040afc5c146ef14bc89f3a44784b20e9341b31ec1996efa0eb"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "c4eec6f78e8398c8fb9a6aa7285ec6702233856b353e0f87dfd01d1bb0722f2f",
     "1a27c383d400db6c09e257132d9da308f8bfb66faab0357f69e00bec0194d11c"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "4cbc1aa375a74ce31ae0b11b461f29e7b9a1b9118e65aa0842766e34e7725649",
     "e1e991c6e33b5217154ce6104f55da1687ea19508814192350771aa6fa893ecf",
     "c126446c91d81b546676e685b8b240c726b74c8685af0a0a89198572b2eeed8e"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "dbace55b1ef77e892968950b4527a76f24d2ee82d7bd68d236773bb8a59d7861",
     "8000707ec63103f662bcc89066b146f234a967ee2ed417c021fa8f1eb5526538",
     "0d6db7efceb886c331ecfdc8f7208b3efb8750c7b67338463ed684aa7f105798"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "ecec3f7da304db6575b9700864c41d8b4d575567c54e513da9b58ec07bf9e976",
     "3460f20df214baa4ee9d91eb875e0f34ce71ae95774b67ed10bb50d6f8779f44",
     "9c9b5338decab35a2a44d27c185380a1dda17555dad1607b212b8fa89fb479a9"),
    (5, None, 'accept', None,
     "2888155dab274f96ad0b0207dc3f7025dcb8b2c5540613a3a7bba0c83c359934",
     "74533fa39dc3d302d336ba67f3f2086dc8eb74165582aaded7d8746320d90e80",
     "5334deea9d4dd1b46d022a6d5df7af0d6588cb2a48e3f1cf80d3f5c0233a59a8"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "80d3c184e80ba6223970c15d66f2278d1e1a5cb803b6880e3aa4b398d2a4474c",
     "1e8b94e1aa50dcd5b21b27df3d121c17842f809f547e8cfe624b44188449580e",
     "8982c9c024e3b1fcf246ea496f2b4d8763f9f37e78e95538a00cd8094595e8b2"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "f09bb07a58d86e13683b423a02a3b30bc7edcbc289b648eb65a38f75d542a8e1",
     "f2e0de2ac9e39fd21084b55fae74610323e2465f19c2a04c94e89470b374776d",
     "678e0f51506deeeb124db8c2ac37829c07b95b00e921f8ee4c0a60e690daceba"),
    (5, 'substitute_output_label', 'reject', None,
     "7d6f113c7cc72fb7f3839b7239686ffaa4061fda78993f6b46ddba6c5936a28c",
     "1cb7532236310326b13ae26f89da6cde373e2c80902cfe33ee1076553197d2fe",
     "3f2a6336279ebf07d5fe0eeefdf15325ebdd153bd9f7c15373bc494937254db8"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "f943349a196354b049766b424ed24c9bde9d473330f03e9808c952b1775ae7ed",
     "d8bd47186013dff2331a65e1cf8e9aadc744429099486da1cb3219bad049d95c",
     "787943ebb22a40e8bd25daf25d405bfd55b64ea7b0f1919beee5e344f43761e3"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "df7fbcfa507bb42eb0dd7eeb84ad0c46e87069d1eee16256d70acebb91f7cda1",
     "e376c62a146aad5ee5eb47e894e8d2f7e2fc1705f4ebeda31857662566e48e39",
     "05340b3b47899f6df077148c0ac8f0b95083ac3e5e964f54d1900663795ac9e5"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "f70b20fe5e00fc1a83da489720f7ea58ff1317527be43092d9c4a292aaa6e98b",
     "576af244eec73f43631ecc744f05120549be057da749d8dc32038eb7a12f21dc",
     "1052daf765212bec4b07909a5500694a2f2af928b7de170fed8785d68df39528"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "7d6f113c7cc72fb7f3839b7239686ffaa4061fda78993f6b46ddba6c5936a28c",
     "d7514a403668af3f778e4c06f12ef0e34dbe54c7eaebf45f4309d17e5537f52f",
     "d7d4e1f2e7e79452325945d603971018d4fd1c13dee5a407c2a9f1c51e86193b"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "671154d20f092d0d7c813800efcb66d81e144b0b5b19638b49fd02e93267d6c5",
     "91320de0a93a28a962177eb25f22f8157473761a985e84b73f1ff2860fff2a11",
     "f8db25947327efdd49bfed5803a0edccdf67b4da2ad2f88c45dc5588cbec8302"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "3c3b1d5d80e00079075e9eaf88676c45ad04b37ce71c7dd0fb90988c924bdc4e",
     "99c1fc5d0fb10810db957fdbe849f52790b0099cbb3cb0813d28e2a572ab45b0",
     "def2f80b1e634e558a5435353fdc198dff96939f7bf681e3cabdbc3bbd51ab12"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "a9304f6179737584d4aa4a3c992402b18661b09b2810a94a00b682cfe32d2c7b",
     "d592343e02d392eeba723336bd5b0ddadd3f10c04156ad3a8ca6f44f06a83f5b",
     "a44d2b922215143d480da84acbf99df3c62eb9c5e83178c80859f0300a2074be"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "1f1f73ab731b14b75f778e2467585ab1ddfb699b4e286b4b241744e7f72c4738",
     "8c91b8207264a8b5a4b0ab3e12c87c92e393e654fe98112e6cdfd84fe1b5668f",
     "3a32e95506f185eeaf2a5e0de22ca8666766a26063ea16c1f400b13d17dd9c20"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "48b82e0a0559c4ffe6fa884f03dca4464a438943725b76caf44f3a5d2550e1ba",
     "dcae529d2d66f02e288515975c9711855b1700124b3b201d1927dd6e1849efa7",
     "ae5691addabd38393be6e50eab8df2d4a4ec2c334594a645ca1b770514ad5036"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "f07a49b753f243a7dcd5f5439b59ddd7c05da4f03b0a991c101ccdd648c36a71",
     "4599cea7450c6cb07d4fa3687337d14453364113842e8c8bec9a0b57681d4aa9"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "813b670729ed226429a508daa95bc62a8ad3ee9feb3b6a84391b5b97006db6ff",
     "ba727be8af241f446f67c7d2accaf57e33b3a087e955ac2a3e22ee6eb0989f5b",
     "e5278f1ced6346c488843ad59eb5628094c96e74485b105b448b176daecd5bd1"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "c641b89f2da65a90755419a97ffa3362c570914ab3eb01410f96a62075a75a4d",
     "ee96d8f10d551ac80325411c03574be0895fcf31563182d0c48f6c6dfa0610cd",
     "c9a3b57a16b312182840738df3107dd5e67d41538e3c052d79413b3d74247f7b"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "5df4c40ae10ff89925b8bd5ba8b96ae73965c7d7bf89a85d5ad2d69242549534",
     "87f50acaed1730e26f5b487caa874b4c89da9045bbc8862077c24ec749888c99",
     "b95b1ca4a666b60e1bcbc2ce321c7aaeb5446f13adac0ec2f24cf20bee424d97"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "2f38bd90fcaea649d94f1e5ee594cf3f4687bf5a3c806b65d9397c37f9fb2904",
     "6fc20988d403695cb4781d9f001f1b23ff095c23d09fa65c84928e753bf9c3e5",
     "fa90226b0c3b47060eaa7ff7532c7b1802e731a8398be4d156929f715cc0cd8f"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "27e52acd1acc45a9c9be4c85d5ea2e864a40b8f4dbf7c3484b11799ed145da8d",
     "fa006684f600e714e7a945e6faa9b6b67316b54209be6e4657eb60d06cc47b7a",
     "e1c81dc8ffc8f87063ab1abddaa5ef3c0a2a342dbb14797a02f16e01fa9c33f0"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "3a6d6fb091f2068d06af69e05800b4fb19d9404c81f738beafcb234ef4972648",
     "3dc9649da59b86dcaada66a607648033685ab52f3e18fdf2523ff70a336efa6a",
     "68a121493a0ab2fee98bc2283292b538add3fe19eaf4663edb6a0be9d5278246"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "0b21832f8012a8766f71bf6266c9fa8db8dee07c1a7b54da1b911f919dfba135",
     "edc0ad2cc69df0dbfdb97fcab9f9f1d256f8abba646e1646344e107257f42d43",
     "243a6878566747d825a22b032998a7c2cc5fc9607f9ab1a416a3d0f26f67f726"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "5e6a88d4a4f39cca8fd6a9bc978bdcc04aef51871831ba398c9d58712f4bce5c",
     "8a5bc64ff95afd22ee332e051bdf0ccbf4ff5962b813141dc30f944ba3ea70b5"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "fafd81ac4bbf0b4a2c658cef9079a0a3d3fbaa098409be86720b2adbde965d95",
     "4ee57e099ea2290d6d2c2d908ae76dd82a5ae530b80e75f8aac55e6f08078695",
     "d2f1437fa7493bc19df437b1c1b92d5cd38febbf123a406fa59c7f2c4ed77f5d"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "675b1a78d0e42205975415674d0b9146298f49725d462962447cd74aacd48e87",
     "2e4609cdb015c476e7cc9109f02dbd76921a8f97efc79021b671690e12be8e46",
     "480cc014484ada10586150170f7037dd70a62ea57e73295760a909a19ec8338a"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "f09bb07a58d86e13683b423a02a3b30bc7edcbc289b648eb65a38f75d542a8e1",
     "c3a7d7100e6d58dac2962759b812a46cda8b6c0805de056da80aca7663774cb1",
     "5aee162ad95eca1c2a63affad0a4ddd4f14f97f82163f3f6815463ebf00ea1b0"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "00dfff01c5a3258ed0cf475df047d2442644b2206a6b67b48956ae5a6bc415d9",
     "f892f0a742c51d2a3a3ad148c8a7e7a65c76edcdfc7f0de29d1d8de0d850035b",
     "07475a73cb509e0741b648315681667e407c15cac092e181bf10b214ac01833b"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "8e6f6249c6f065250f5998f577a582c77ec02a56d564f093625d2f7cb29eb1ce",
     "1c1ec82f001be69872a9a2b3e9e3c3710fc9ac99ced7f331746a1d2589af7142",
     "b0b686d649f31305e9ab0237341151f8d43adf97352d23132b4706a18431c4d0"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "b5118a7214d2abd542d9b411453d5bb0bcb499a787ed09c9edf389cc7783bc11",
     "6085210e1f91cf654708aeec070a9b621cd869a9e95b9f8806500451d74ac7e5",
     "61209580933ef177fd9f920babf94c63cff430ef1eb0595d9b276e925f943a49"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "ee2a26663ab620cbc3be317520775e28a3f7ebb11eadc718135ba480b58c4ef7",
     "c4dff09dc36fa1e993d493ef779844342561a1fed210f946ffbf36991488e228",
     "3ff5e12ba8e9c718d1f74d843897b83cad186e9a0c43588776f5d67240d91a5d"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "61b2e897a0506973b4d92c948f8d4605488f73db0db1d1827c01c7b9fc7ee5ff",
     "f8919aac071fd1c576ab8edb4925091bd2db7c1755d2080d23da6f25b810616b",
     "e2f90d5a46810b2b84316c8152fb5105b470ffa81c2b6d0ce61c7fcdb6762d28"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "80d3c184e80ba6223970c15d66f2278d1e1a5cb803b6880e3aa4b398d2a4474c",
     "e8df65a9c76d48555eca8c64be8eb26247b7784972f5bcb0e4b1d8a878d63594",
     "a261b0892e315aae8dbba7d90d2e10933e671fba9f5f3c632b00bd40e19260cb"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "ce6b2030755834203058a95bfb57e7c2e239b1a95e440fdca9f334889f1b13a5",
     "f9311ca2182d84eae6106d7ed2c4d3af8ced8198149a9ac56487ae860cb75888",
     "9914752abeb8d90ae1dd1bd73cc1370f19efd54a4530466a7663dade67dcfcfa"),
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

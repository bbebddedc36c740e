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
from dualgc.auction import AuctionConfig, build_auction_circuit
from dualgc.circuits import AND
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
     "f3e6d3879f3d9531cc6e0a98a71d4ae9574375781f335ceb299a64226f0b685b",
     "cf6452053e88d69c9edd819a9f01016067d68937ffd6e08bd76c0c8486d62762",
     "b93d0156af413c490acb7597b3694a5669a17f31ffe804d0aa9c2f16261140a2"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "85375f98d062199e15fc7653e95f09c055d92eb3692a9e376c37ab6f438a903e",
     "e8e70dc5ec43c8da2e293b2d271cfebba1a77974bac3a29eed384bc3fce8e0ef",
     "963a113db55937beec79e490efeaf3d1e778fe687355ca46264f3e53cc734689"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "56f2abaa98f615a2a6968f86a05d16a87c3b4de19c953ad1db5b00de1762d68e",
     "120dc2499f233ccf0846c59cb2fc25c7648d6bf5242d31bd8fae99acddfdb839",
     "afc2c75b5313b6b9450a1dc761b5ddd232c592ab2f9ecc023a034fbc4c118c42"),
    (0, 'substitute_output_label', 'reject', None,
     "17492f22de900ada424574ead0d71813cb92d989b36e9b01f67a15bb72c0e456",
     "8542db08095006ed21913e5edc1ffc2b0f31ebbd3e8ab409a599db005dcd0db5",
     "f7b9587395722497fcd6ce239a7816e9c680a8f847823329b7bd8bd6de8b89be"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "d5cc122bd764fafa310c8fc3eac15b5015df0677ebf2067756ad1417e246a791",
     "9c69f95cec8e5752d492e4c0aa93abfbd92f04cd29cef66eff726c2171d07d77",
     "1a860d246ad3e7e06e1b2c9427e24c02d76404ef7b416e07cddfbb4ad3bf4319"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "c98934231bb0e6a923a1519b6ade7e1e9374b4dc9562da621c8ce0a55ffce231",
     "8db1d263255d64789ad518d048f2593308c41a5ab5074c1f157aa1656c90bbcf",
     "c0af59abe0058ed979b04278ad1a62ec6d65bf0b06108d5aa9d0875402dd90ff"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "06a978e677527c7409afa85f4a5960167ec713d8aae34763a593556a527adf6e",
     "91b7ec0b88fe88ef9565460637229b600e6fd659b07db0a6a8e68d5c7da1a29e",
     "04f5e82db2ee8fa255c315b7ec73d36e3b8d2139ba1308d3744f4fe39feb77e8"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "17492f22de900ada424574ead0d71813cb92d989b36e9b01f67a15bb72c0e456",
     "a359a68eb23d20a9449bedbc37c80a7ce06919a51b3d75ef00803179ba6c068a",
     "9aa0706ad33ace0c85a73e5706a1a0d52e64c18f78db1fd00dfc168010a43086"),
    (3, None, 'accept', None,
     "4bdf2b5267488010c49092ab1cba9fbafa9fbfdb287080f2231ef5fd5ce1bbc8",
     "3b37870b3374d857bb9b70eca109622b798cbe2fcef391b1dab99f31f09e777d",
     "f8d8de56b2b790a617723d85ddcacc38ac36926c717091c16980faadaa363b72"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "4cd4f7dab1f92b191d1bfd04dd8c0bc6b7c4832d40b7a4e61b55567cc65e2b9f",
     "9fbb7a37e0f28b89a32e83713fc86019556d3af21e01d150dfac8661f8e9a395",
     "7856fe58a6b9ffb6e47722592fa177a50ff101b6ef9c7a7cced2f0571b10130e"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "b604e419f083b87ed18d6bd3a24aa1e0eaaa5c8a7b7b3cc2676294219df0ea97",
     "c40e310ba6c9d1c5b86a73b4870d34d8c5983d47ec46215eb5a4672bc87ac0e3",
     "6095b95f431468f8289dbb70f58ee6b3adf807e47e760be2b3beb383fe2e3719"),
    (3, 'substitute_output_label', 'reject', None,
     "e074a1a0cc610ff30df075442b38869fa16bd79718434d7f95bb46ae14146fde",
     "2e0418ada67cc9b541a62d79d151c4b5058bb08592a5cc5cc50899092c6efe3b",
     "4b7ad2793f386060e2c662dd584595b15a36e8d0a4239a7ca673e2750531a5aa"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "d5cc122bd764fafa310c8fc3eac15b5015df0677ebf2067756ad1417e246a791",
     "369243b149aedaa3232240debd94fe463ac2073728a7859fad59e299864b4f93",
     "16baf1bf0288393cc6b9a1a22624b4dae9d96bcd8888cc8a0ef96527cf25d34c"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "9d9b5274d066c276ecf0b14b7ff4372153e28ddf7ff4a38856cf8237ed88acfa",
     "8078d53aa42aa3ac3430879a69231f0fc72942f51e9b9e1292e43258b56ba177",
     "ac959239c1f15cb54949276b8be78671a5539f79f50f91123040dec518bc8bd1"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "0855b36abbff44364cf659d4c5b16f83a7c50a8a61676f10bef26c149c293c21",
     "43387c69ec4e04416bce9b5e6a670c378ba88490d8c779658c3298e0ba35956d",
     "987c36d78ee91686a24bef039831fb48979703362e2ce460e7ed722a40a60866"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "e074a1a0cc610ff30df075442b38869fa16bd79718434d7f95bb46ae14146fde",
     "9e6a25d62f8a8b9dc1c987bfa3b5b00fc70208f08116a2f8987d274502665831",
     "c40a33f3a6b6d15cd8903196e1a9995b667b1fb99c0970b9923f800f87eb85af"),
    (5, None, 'accept', None,
     "62ded977cfbf429c0d702d38140d90b6817ab16194dba35d2a9bddec2ff98902",
     "97a4e34503d612e8d379434fdafd5f290352cac50f5594e14e87b935921790c4",
     "fe4044852e35b687c519972203447d0a0c3999e184d52cc3838122b333606923"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "5c33e2ff9d5e9d1a623fa819bd8f87fa460ba62d1900469a045eda9efb0b4d53",
     "fc6cba6e77659e1ef4f79e92d1a441bf23708f80343d2ec8e54cf3903508f412",
     "6460d215c101a19a0baa6ae8cf8b320dc04e5d9e0abeece3a8c07f9591a2f58d"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "75a779b990102ca57626ff7a9247fd8a939f966bc431f755a76e49eb7e9c18e8",
     "a1ad17f1452310fa73cded6391a9ccaa63b62de7f89fcd8b90a5b0de5d60945f",
     "5467092fd93e026d508d0fdb88c19846b28a3f71a272cc0eb8fefe9eaae318ec"),
    (5, 'substitute_output_label', 'reject', None,
     "9fc2cb718c952e672e07c82d2d157cb0822bac83072b377a865609d6e3771f17",
     "2d166198cee688cbce24c73e595bae61feb24cc916fe8c3cdbf027a802febf14",
     "86d0c20edec9e7584d64218f8b1cbd3ec1f8ddd4c964ccc6df5cd60c2bdd5b0c"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "d5cc122bd764fafa310c8fc3eac15b5015df0677ebf2067756ad1417e246a791",
     "4662ab42590460e24ff42bcb546d487a0f4df29217501fc33c1df42bc5d7f6ea",
     "982905850942494be9b0332f9871a0f757d7af60ca2252c86af5bbcece2dd1cf"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "022e780b3bbbe7468fc2314766c514bf31a993d68f1e5c62e2b52f70d5055035",
     "1dd22d0a578d63b3096b9a59bcd0bf7555dcf35889d427466c7caaa0cd704c61",
     "f1b5a29b7daf0ecfd744946563cdc04f7a576d7fa7211230dae2ac572213065d"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "94ad49ad5b3019f91a47951e172be5c8513d36c6a5efbd1e48e7df9f9fae0eb6",
     "261ec611ab39b76c052b08503846e552e989768263693367141ea2564acc46b8",
     "2f588d5571759c76d4d4ceb576383e5728ec56fa9f7dd2174d9ac59a1f9910fc"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "9fc2cb718c952e672e07c82d2d157cb0822bac83072b377a865609d6e3771f17",
     "09168251d5a38bf2b1bcb0c851fc8328334bb698eb43e439fc83ff7bbb8d2ee4",
     "81689e2a9a672a5495e3a53604c0b2fea51eee3630c12730654580b090d9e238"),
    (0, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "56f2abaa98f615a2a6968f86a05d16a87c3b4de19c953ad1db5b00de1762d68e",
     "702d6e8da8df3db1d09b38cd8761c78619ac2d2ee19e23476c0e2fc98c64f641",
     "ca4550309b85653f2c995c4b9f065a8e41c6a5a6de58a1cb8053e32afd07aaa2"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "30ac620454fc45899a88fff237014487593519bc914a2cd99d5d8ad08a1ed659",
     "1db30710f265169c772d038119613f11b68c1d5a77fba6a8aec2780fc0b4c5b8",
     "3d3ba5e96f8610e381979fa5da8d29279ad81abff849f43733f24657985226e6"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "b97fbb3ad53ad0498b4af6690716d32484e9a2fb8c91efc99dfe29595095547f",
     "3d98dff93a6e9758154c9e59232958011725895198ff0b35a7c74c02f41857e2",
     "938c33d62c6a779b694acf7c47c5398ea4f192efa5e8e0946e9ba76b332cf3e7"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "65e140106d905974711baec931068f115a6e7802151dc60b506afe90ab4a483e",
     "f2b95d98c243ed2c7533f7dba1b22464da7e6f9b5a83c307c35052b1d0a81cbf",
     "d182c26deed0e07403114009b8ef1248dde0272dbd6dc3a1f90fd14ef45b327c"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "05aee0a866adcb3c549e4d5ac5656f4b47fbaa925318a29665be821232b6a232",
     "91dd5e80d568895d328792d1ddd6f00dbee79fb552858c897aab3e8c832a06b1",
     "cccca757267da627eac98b0d3027062b88a113d154cca1bbf8df12f944e4e92f"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "be69783dd5e9c82a3832cb01fc43b60ae92744c83f8133483fd82619bd4d44cd",
     "3650411d84acc599c884dd4a2342bcb4c569b859022da20d977bd89ccea1be36",
     "408fc5014b778b77d39d2c133b79823a3d0f855dc6b1aaed89a60c203b033e16"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "74db31fc2c49200af6daf1f2658928de34e26bf2f3b2a8a314bdaf13cae8c33e",
     "8c7e3cd16466cbf490b3d0d6a6ec7a605ed23640e08f5d0d0585c2b3da6a982a",
     "680be832086d8cd96ee5626adca8b273bb01c4e0d7533b7a3e22904d9bfe0a4b"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "7306a37a8fba608c62db2949510691321686ef1b7a591c974d3a09df346edac7",
     "34328397db19215ac2de2dc8d4d5ea429718a9a11879468508ac3d000778630f",
     "91cc324d39c1f7707ec0e71e87f00d81037bac8bc50e3c29b5a972a482e8b416"),
    (3, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "b604e419f083b87ed18d6bd3a24aa1e0eaaa5c8a7b7b3cc2676294219df0ea97",
     "764f16bafd63e63f7c06ff7f4caf1b3d58dda8e6cb700b0e5ff54058ab00f14f",
     "ba111cfc58a52a45595b1288d3b9547affaa5f6cde450ab7bc572d34d3e50279"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "0a85e6c21f1a2fcdabbd1a06b47aa13f63af9d4dbeb491698df66cc67bb64530",
     "9ada723ae152e3e8471d3b3aaa919cc2f33797fbddb53bdf81f3ca05a1b1b690",
     "4c8d82cd7a85d762a413580696568be63a536b92e78c6d35677c618dc512f66b"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "51560a7fe04f0862a30c4359a0ab02eb97b7443c3fccb5081dba8b1869fcbd32",
     "f04b9e1dac377c7294e5f75cd50fdbee7d53abe06265b48addd9383cc74b1613",
     "5d4cead9944b10b5bdfd65654b170a03dd56820ff506d03e9195b07a0758e26b"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "b46e2c79da3fcd93357725c813dc086d5d843aeea702c0b754c6012a9c4756e2",
     "b2d791bf630215a130036b2bfa707161ce75d256f1f54db602a64bb8259e4c16",
     "1b082ed3cc8aad76afcb86b4e96c44cb9faeaa74e78735c88eb5273305667e7e"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "f3bb11ea294f49c46317bfdfd13d26680b87dd5d11459fe92787a25847b3d8e2",
     "a1e8b2bf4423ee0d78307c35395dcb194e94d6c02ef586f8020de6968c8410f0",
     "226edc652c595367563cc746452b228f7d4f4f8e3c6185f1261dd2fd51a21bce"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "be69783dd5e9c82a3832cb01fc43b60ae92744c83f8133483fd82619bd4d44cd",
     "0c8748fc75986043deb7838a6a8a48a8fd991dcefd58ac18fb64c9ef317d6c57",
     "2a56ba3ff007990c8b4a7bfcc1dc79ba910705cd81cd2e6fe91c2eed4457200a"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "46f3061b011499c43ef978e03c72975c05b16955f6254d4906f87584219b5276",
     "a1c369ddd97cd9d4d0d66e81ac35c57c4d4e3568983c4d014d663c5b32c9a8d5",
     "7a7f6334543f4b1a0040e31e1cba8c746bf94c3edda35d05f8cf02aebedbecdd"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "c5c17e83d5d52f24284ea74871c39143e54185bf823a8e84ed24248bfe5927a1",
     "d8f60d48886d35f60f68f00db46ad456768f97d8f7c4eeda73946d11d02ed2ca",
     "6f55e6059b14116979ee9de8ebf3ef069ed689a002e37af7751d57651462909e"),
    (5, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "75a779b990102ca57626ff7a9247fd8a939f966bc431f755a76e49eb7e9c18e8",
     "2ac31f4b65342878c553085b99bfbb4b9aca71af02aee742e93e736c96f3473b",
     "7ab6736287f3c91cbf4c6a833338e802c42a993357894b688933cb6421918425"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "26f7ac1957a49f54bedd2bef5af72bd23a8ea4eac588636d2fe67081f5cbb169",
     "836b510d6abe09227f5c0bb28686530998cce886bb7fb48442e8ad87a0594e49",
     "56790920b1ddfa5b92b353c83df70cd59c894444cf7f1d833bfe17866b4b9c1e"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "95cfb2e8981b27344a5c3999187ab95f1f13773f68a4a09a0421bd0fc92a5c78",
     "a4a97aa83cda61711befbcc5728fa3129f51ce5bdcead5d031d31660a305a01f",
     "6c11dc29961ff3b235d6ee9b3d2e56f158fffe0530628256f8ea0bca3f7baed9"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "fc4ddebc5def309ade375ba91f1a52baba43551bd2ac2cad1f349cce7a5732fe",
     "72d4b3271faa20bb08b67aa10a2eeca944209b4e334c44a4237750a6dd8cedaa",
     "6e1825aead13007067c9ba89d7b2e3d7ac89b8b964a6796bf672650b54003305"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "4c4d21df5be7a3cb56673ac5fb16a43ab7b356022d2d04a911778fff764c0f20",
     "37196588c8a4b7dfa681eacfbcb34c8fbef0b109bf44912bb6346f23c285b09a",
     "d1a6346ce42ca122ad451a146620c832fbc4e5cc0bb24400cec371890ef45ca8"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "be69783dd5e9c82a3832cb01fc43b60ae92744c83f8133483fd82619bd4d44cd",
     "cdd5dcc5e802547c70a1d55aa1e4334857f1ff16cb55e021f9e6739dab595447",
     "4e7ea2f94b0f42f0be4966b5b9648b52d4f1cc2a7e30241cdf8754e131e76866"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "5c33e2ff9d5e9d1a623fa819bd8f87fa460ba62d1900469a045eda9efb0b4d53",
     "c63204156ff83151b719d69359d21409a618824c9f86b34d5c260c83e060dd89",
     "63f9f7876e60bcb4cd1fc27a6952d849852e63ae4aa29c6f25c3ef01baf5205c"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "24163df518d3fcf2709c0799af48eb89ef3c686ad9c9b58c4b55a591edd3093d",
     "2196498cc1dbb3502f8f67dba67ad33e894ddbf84d6431b4784724cc3bcd7192",
     "13b03d7ae299fd69fab3d98b90c6c83e759e5d413d15c32ae5ddfa0db2121a81"),
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


def test_the_gate5_variant_tampers_an_and_gate():
    """The variant's gate must keep its ciphertexts as the circuit changes,
    or the script would tamper with nothing."""
    assert build_auction_circuit(SMALL, len(BIDS)).gates[5][0] == AND


def test_bidders_send_input_values_to_the_parties_only():
    """A bidder's leaves, check seeds, openings and label sets go to the
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

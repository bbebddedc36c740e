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
     "82d044b6c4cd74199b2bb2367c0eb463a6d87ba389832642d4132bef015dc60a",
     "d324d8e214548d6c8a769044290395cb98528b63dea0234d13e39dab826cea11",
     "452533f1ee39c87467bd6990da3e647f48b2e7a56b74486006247a306aa3469e"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "85375f98d062199e15fc7653e95f09c055d92eb3692a9e376c37ab6f438a903e",
     "e8e70dc5ec43c8da2e293b2d271cfebba1a77974bac3a29eed384bc3fce8e0ef",
     "963a113db55937beec79e490efeaf3d1e778fe687355ca46264f3e53cc734689"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "d63acf5783ece471d80170cd31ec7cc673098964bb88ec3db949b33acfb8799c",
     "d90383d17246e9126933c8dff74ccf3baf3b91bc34048dfa00e6e5929c5f39e6",
     "bb9ce13d290c62c3916bdf69590a6ec187d55fef45217fb99eee289679cafb4b"),
    (0, 'substitute_output_label', 'reject', None,
     "fa2beadde456094ee329efcea8ebb37b439534a3f652a7ca2160c963b9c70de5",
     "2de448ed16c767a5b409f347cc95ddb7b05a1dea2e7962a7c55d45c04f4fb5e7",
     "1ef8d4d0274573ba5356a3381bbbaa9759c09656cfc1e53ad1667f4590aad62d"),
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
     "fa2beadde456094ee329efcea8ebb37b439534a3f652a7ca2160c963b9c70de5",
     "c72a76f3e0821b05b4f0c92fd96c345e7388e81deac199d9fbf802a84d892bcb",
     "af4e28cf7baf5ceb78b907384051dacfbd371647f57946c5bf93730b8e45e895"),
    (3, None, 'accept', None,
     "6d4bdec7658a7c59250137cf6fde67adc9602673c0c82d30e8360102309377a3",
     "0b04b164bcd29162503409cd3d7979c21310e7d083e15d38cc473d73bed5af35",
     "e0b578b76f6ae56149ad78d1636089bdd25fbe851ba8034e346cd4622a8d6630"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "4cd4f7dab1f92b191d1bfd04dd8c0bc6b7c4832d40b7a4e61b55567cc65e2b9f",
     "9fbb7a37e0f28b89a32e83713fc86019556d3af21e01d150dfac8661f8e9a395",
     "7856fe58a6b9ffb6e47722592fa177a50ff101b6ef9c7a7cced2f0571b10130e"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "30d14c71aec61305959ae91d869f91f3a0f1cad2634d31c90c095a097cfc970f",
     "99448a0ab53e52de1a308b6befb6289baf8ac22a2c84f2aa3ea7ec99b364a3e5",
     "e2ba040d98ac779b2dd4097fbd177267a852c32066fe0d985b486696cd171c93"),
    (3, 'substitute_output_label', 'reject', None,
     "b953db77c035fd8219ab4cb35a6c868d3caf5cd63b9f158ca7cb8b1731b8b22f",
     "de57b2e6285da2c0eccad82ef6aaa1ca42b22fe346a8dedb23240adb17f8c6b3",
     "fc0aca3c1d82a260765213e896db28f9866f405c80158c94b3462ad66983aa8a"),
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
     "b953db77c035fd8219ab4cb35a6c868d3caf5cd63b9f158ca7cb8b1731b8b22f",
     "b1cafabaf30fc63e7f18c5f41fca6a7278c021fbb5959c5e8ac76902ba2c2487",
     "02be971dd7abef83fed39abeb35a065f147782f3aaa3d0c62a966f7ac14c03a2"),
    (5, None, 'accept', None,
     "ff2d38f0846d2121f10ab78eb2b0275f73502bd73bc92733341da77ec2b7c9c9",
     "375c470f0ffb5bf9c8a89146c54cfb7d67f93dba9e55ad196756bc0c52894209",
     "abb7421d4141bcc6fd7180bc677a4e6f0d114048d3cf151b1f483422c4fbfe2d"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "5c33e2ff9d5e9d1a623fa819bd8f87fa460ba62d1900469a045eda9efb0b4d53",
     "fc6cba6e77659e1ef4f79e92d1a441bf23708f80343d2ec8e54cf3903508f412",
     "6460d215c101a19a0baa6ae8cf8b320dc04e5d9e0abeece3a8c07f9591a2f58d"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "26c1ef5605deba363a99d0e63c066bcac8b17c6af59aa1e9b2163d51d91f36ea",
     "346656440beb54786a8b3856ee4d3322a04915645a272eb001de36c301f11031",
     "38755e9c2635db75cae8701e8ed872a9807d68c15777e8ae51cf59e70b4c536d"),
    (5, 'substitute_output_label', 'reject', None,
     "f6ed6052358de8a2832fc49e1f916bf8623cd74239d23301c87b690c69051799",
     "ee6a4c80bf22d7d4e282785037b47e1d3dada1fdd3cd14eed2990cd4193ba467",
     "285dbd09800c2bca532fd41fe273ea35e687e13536d4be5366248445d3a06bed"),
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
     "f6ed6052358de8a2832fc49e1f916bf8623cd74239d23301c87b690c69051799",
     "388c2af7315ca4f238459e353eb9137b6bf47a84ec5bd462b00d62173f78d94a",
     "40eda44ed71f1b91afd8c0652a2f957d8a2554dfbbf5b5c2ff7e4c8fcd2ac3e2"),
    (0, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "d63acf5783ece471d80170cd31ec7cc673098964bb88ec3db949b33acfb8799c",
     "b07374b8d045db00d1f74b47b667fc92d4ad5b89fb3a56a35fa6ed37d170749e",
     "93eb110768bf272eaae4f7973f1fc456d3b1042d5447b78ef6ad51f9f2fb87c7"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "acffcd2f973fab4e30f323bb31bbc29eba5f8369e52dcba6ee2906def4aa69ad",
     "8ce86b8a5cddad9e528a2fb9f462cb45cff0310a0f6f0f08cddf75593972a72c",
     "275eb87845b8809cb93cc4bc9c96e6fe36dbc135fd033a0894a24046048be516"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "b7afa5dd1f18db1e69770ac6bd570d56a357215ec29976eb9c50f2ee13da8524",
     "06644fa4b012ce05ea1fc1968ba0a5b7e9c66ae111e4f1f5373ec4be78601bc4",
     "bafc05f6a151cc6e3d5bf6a7bd6c097117c5f41c17e8dd07c579fc300e8e74c3"),
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
     "2712e089d641ad82f77224ccb8eeba59f82eaeb52d8f1d5fdfa1adcfef9f6cc1",
     "1ef4cdfdfceefbb13f7604037d43be66df4084ca277c004a5bda9ff06ff3d65a",
     "09cee7917e875d4a9be3bd7eaeb2f5942332d1db0925b955a2f723c428c7f935"),
    (3, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "30d14c71aec61305959ae91d869f91f3a0f1cad2634d31c90c095a097cfc970f",
     "50344870298f00cbda818bbd99be61fd3edbc4bf2cead3e8d8e4bf3996be586a",
     "35a958bbbad28c98c299c5304db06d9ca8d4ea6281ce0538945fb18cc2705f44"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "830d3dd9f51650e0c4842faba94eb0cbe5e2979e4d82d389be1ee10ba795069d",
     "4ba3fb0eaaed29e6a347e49f28b1dda0398dc8b5286851465a499cd8028500ef",
     "3c2501ff38784871a211c6a0501651f1952204af79e03cbfdbee2b573ac5d447"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "b3c75188bf47ed7a4286bee1f8a611ab3a8fc5610e97e6797c72f4015bd36ac6",
     "a1fdff4128a41d11ef89d5fcdad543486faddca7dcf96cf0767875883b4a2b41",
     "86cd4fd3b9f968804cb7e0d5fd8009273f28a9761ce07f74ffe86ea904b85c94"),
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
     "06f7f1ffa426e68091e94e593a6ebd7a049af1d6d6e7571e8f42d62bf0384877",
     "935a52b16cd7d0371b5947e39968d609c26bae32c597f8965b2750a3ebf01b8d",
     "4cad6f8fc1f6bcd6b5b3becc1c1bcfce89b41546daec96f8b6a14220469f1a23"),
    (5, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "26c1ef5605deba363a99d0e63c066bcac8b17c6af59aa1e9b2163d51d91f36ea",
     "f93dd8169f8a80d3dd7a1b82a59e9a4922578db0c90184b58bbda079d6201e76",
     "b19d43afe5d3eb5f6c46705578b088e08e8e5060fef25699492d56c8e47eb989"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "87e566a4684bdc701f4ecaf8b2819c448a286e54eccbb30d651e2a6a14d59e5c",
     "96785e7ab112a51bcfb84a859f90653aee4747c2ac7a761571386d8bf54385d9",
     "4c267814563ec4d6d66ca4469ec86b9eba1511d6fa9155da7a2d2015f2705701"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "491baa5c925d551aa6ceb9ed2297985764028b685c3eece55f1de0a430841afb",
     "c11e07e1638901456a5a80d0d6c8c72c79aaf2165ca55b9b66b397d8c1bcf23a",
     "0a609c8bbd69a9b98acf65809685340d2573645568d0398f615b15205534f338"),
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
     "a2bcf083bdd086defb0970d53fc228e6c59a8ba2f9e6fb8189535de8a6712fb8",
     "ff62f506888aaa731341f629805cc5db313f2cf49690adcf20416c12c402125e",
     "20283c84ec9389c8b8b97a22ae3d0c941c6879ded73c197bb46426866b1322f0"),
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

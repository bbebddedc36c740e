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
     "85d68c6e739f06a225fbd35a916ff18a5c9f9d27c14f0b499031b934a809717b",
     "63f6c5a0db32be1cac76f4d26925f545c99a3ff86cb0c57f0ec76d0944710811",
     "6c0d1a4709564bf3f206aaf8d9773696396c1aa8af293235da56c4b0699f1c60"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "85375f98d062199e15fc7653e95f09c055d92eb3692a9e376c37ab6f438a903e",
     "e8e70dc5ec43c8da2e293b2d271cfebba1a77974bac3a29eed384bc3fce8e0ef",
     "963a113db55937beec79e490efeaf3d1e778fe687355ca46264f3e53cc734689"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "c2ad00a3c8996fd9b657cfa39f734c0e29f4ccaedcb4b8853b689f2289de5b66",
     "f35725606e75b4863d45711e1ea2f3f085d09430d8e4c3a5f6c21826f99cba36",
     "c75ec6653d427ad53398581af3e1b0f53361ebbda68c322eb3aeeb3b0b01691a"),
    (0, 'substitute_output_label', 'reject', None,
     "ecc7a0a17609a5c78f41b1a726fa55a81e95e709d3f60f0accc9a17b5330afd3",
     "b7f6e541fede45b969b33945e34235cf8a23170c085f944861d8ed1fb68c7e46",
     "e0377267acdbeb9edd1245f29a5b9aa78feb99530a1b57b6a1aecbe7ef4b4b9d"),
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
     "ecc7a0a17609a5c78f41b1a726fa55a81e95e709d3f60f0accc9a17b5330afd3",
     "4d2582da8af77f3569a89db30e4ef84b7db9cdc0573abe09086ec7adec1af1e4",
     "d4c01e5bcb3bf3d36ee8a3c4d69e6cf32930cdfec264e7db74ae98f667d85d30"),
    (3, None, 'accept', None,
     "3e80623ac2bff5a1e2edbda12954b45249a9b8547f16169623647c1d091b930d",
     "d2685a1ed373b8b5c41854b2b08d5c7f871c771ca819a9bcbfa45be008708c86",
     "43b463d020d4e7ba80730aa00a1dcc58f9e196345403de1fc831c2a50df39c9e"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "4cd4f7dab1f92b191d1bfd04dd8c0bc6b7c4832d40b7a4e61b55567cc65e2b9f",
     "9fbb7a37e0f28b89a32e83713fc86019556d3af21e01d150dfac8661f8e9a395",
     "7856fe58a6b9ffb6e47722592fa177a50ff101b6ef9c7a7cced2f0571b10130e"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "0595d730d2481ad25130326255bfc4d0f47194f4e5dce4d52fb626bd59e9d3ea",
     "0175913b3e32e32c62c9d3b8a685500fa0458a3eb57963214ed497297205c213",
     "671c3c40fe00940f7df1b8a5a17974615488f722b9840cada129af9d84839674"),
    (3, 'substitute_output_label', 'reject', None,
     "cd2bf94a8245d7699635845e463996e66ea499aec2c8d04d6c2397b3beb0eb9c",
     "c9b13e502bff10838e8d153f1fe07738e343c386ae453b01210df2049503b874",
     "8b59b552331f5ab68f5bf81b8ece5c5b4feaef2cc42aec51772173e3cd847ea0"),
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
     "cd2bf94a8245d7699635845e463996e66ea499aec2c8d04d6c2397b3beb0eb9c",
     "75647b1279845ba03486527a9c5bc0fad4f5daf0925abea08e9c154ddf520b3f",
     "413b57a87b22dab1d6214c76055fa394cfd6f6df39c71b98d103f920021b6f37"),
    (5, None, 'accept', None,
     "53be979717c841e4648468855cf6dcaf3f7a8687c79513b46e452c534ba0d7d7",
     "dbf192f2377c3a59233c8e2d0838bc00a0cfd0aa669a96886d59bbfbe53f361e",
     "6ac7cb027d807fe003042dd764501bb0d64009a384c88ecb5c1e3211f16498c0"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "5c33e2ff9d5e9d1a623fa819bd8f87fa460ba62d1900469a045eda9efb0b4d53",
     "fc6cba6e77659e1ef4f79e92d1a441bf23708f80343d2ec8e54cf3903508f412",
     "6460d215c101a19a0baa6ae8cf8b320dc04e5d9e0abeece3a8c07f9591a2f58d"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "a99069865bc2bbb6efd6003f64181154a22f4b32cbdf86ca815d6861b8086968",
     "832a6a92e74ef7a72b91332a7dd16d93932e37187d458836da65d4b7a1896879",
     "562ebcf876c76c776d2bbd70fc98192f308167c13bc65540f7692366a059380f"),
    (5, 'substitute_output_label', 'reject', None,
     "4ab5cfcdf26c83b6fbff559936b6b710f896e89e78f3935d9599390ce7e1fafd",
     "5ad8d27e472c1817f002585b3995da75114f8c94164350de00376fbf0de37eb4",
     "30ddaeee0c64ae572642fa3a0ba2f00cfceb403448588fb3dedadfcd96162042"),
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
     "4ab5cfcdf26c83b6fbff559936b6b710f896e89e78f3935d9599390ce7e1fafd",
     "f12a9ab8b8afbc5a826dac3c23f4da4f57b3bf278935149242110e534cd8ddeb",
     "59aa8a5d43e7026e127d7a337003cb8dda7dac7200bdb09e255573809d9f383b"),
    (0, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "c2ad00a3c8996fd9b657cfa39f734c0e29f4ccaedcb4b8853b689f2289de5b66",
     "f28c00e8c6cb30b5aa9fea713b5482a633bc58b6c08836f56906b8aabb247322",
     "008e9f00f805d75bd9c288ff5ab9e4a79bfbfbbdd36e005ccfb623d88fda1e14"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "2c231b04cc6579b38c67de649cc1ec76de711d962375c3121839b045dc661dfe",
     "5b5dc9f16912a72a7f02ef02e79c73410a1be6230b21202bd02070701d745376",
     "ccdeb4c7c74ef27ca4534dfac2a8c37a4e0ea7b120cac8f7cb9ff10bb42869c6"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "509ed332cfb455418ef281f7040ca4279fba84ad485d790fe9a1c90ba747d243",
     "a6eba6333a3350d00446cabb80abfed18ff46484037719cd83a712765454592d",
     "d050430bd0ca64154b0de3978acecd7ad3e52deee69a960b0d0c9ca2db138627"),
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
     "89e91c0331d06435c3db462236d0b754a0bd7953927bf3f99a85b98391eb70fe",
     "da7b66b186140e511f23a6cb60de60594b9a1c3ab2cbe845a61b6ad33ecc74c0",
     "3b9f55e212e3f1261ff2a5af27de96ef00ef86224604a663a6e2ac35b32a0f23"),
    (3, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "0595d730d2481ad25130326255bfc4d0f47194f4e5dce4d52fb626bd59e9d3ea",
     "99fb146f4563098fc0902f5520f8dcfc9ffbff99976a66f772e15ecb985a03a5",
     "398e10320138db19ee750dcb15c365dbb48a81c6c55ea082dca085b4675114fc"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "2b5f04ad35e24768a0ac4674aaff26eee387a702cc19b2e92bf7aa3f8e74e07a",
     "d18f2f5bafbaa7c49bfc33b7c51a9b60d2764c35d8eb8ebd0a154647ce2cf551",
     "fc70f0bbb3ca30a9f686d7179e773ec9754a281ca236231a9a542d210b0dc4c2"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "43980dbf625cb54f346e32df241117ce16a1b26316ea984215b7f22200b188f2",
     "499935fa644d15bd12b2a54b4b70e2f2ed6ae40eadd24550eedaebfc39b426f8",
     "a44d47862ccfd22ed002f0ef16f2684f49d0762323a18f8134f01127eb9eff12"),
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
     "11007d993f9c89e89f531659988358cc0992f193db7808ce9f441e92f0ec601f",
     "374a6157f5a8758dfac37bb33b83c64a90b61d307e86806c417476b10d4bf1a1",
     "aeab37cb08ddc2982364f146cbe5fd9fde9034a812e4741231df5a21dc5cee43"),
    (5, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "a99069865bc2bbb6efd6003f64181154a22f4b32cbdf86ca815d6861b8086968",
     "7301d8d89b142e08bbde3ea371fd8f5e58009d5ef4e9df95e246dcad0ea8e290",
     "ee5314a6ed4925840be6657bacaed4560e125f0c854af709d633dbce39f93f64"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "038efd377732ef660ff756c989e2419bb454b9a1db036f271d5473e7d676622e",
     "1e42cd959b1d046383874e9d9525b2c79791576de1baefbf889b9511d1a403f3",
     "67a0e6382fc8a3fc45b439b4cf965533cf88df057647b9c9d8ff88b32c33fdd1"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "74db1e68b553a656436756878bd30e9de51a7f6e981ee890da67138e86df1b6a",
     "6bc5ed23a484bcb7261423b29baf6f6028b6fa3e97be7836a130262daf6da841",
     "34451bd78cd77e7a36e34849b72b00f97dfd1faf361d1c8441501a598d13660f"),
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
     "3e0b5bb047ad731c1e775120761dd3e6bc76f9d002de57ad626bd6837db3a069",
     "6864abcb8b8cc4f3a45bde1845470eb40db94aef2b8bb752fb56bf39153ca7d3",
     "d098926e24e409a5363a5b1bd25ba8aa356ca02fc1620aa022327db7e16c53ac"),
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

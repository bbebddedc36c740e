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
     "7cbb7adea0c47be1d36c11d3730d8e209257e999c88615ebb74bf3ffca432541",
     "f7fdc1ec968bf5b146a90870f1644136d0f9bbb0aa644da6d613e8d5d83ca64e",
     "7d4babcd4428d7775294c8ba97e6c0149f081a790c0d326466382b59a85de0be"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "9be10aac321909cf25df4600fabb4547cfb336918b362c21c410c38414e03d6c",
     "2da0e0a73991eb45f28b28c14b852e98585328f3f29a97379e2568da800f3c9d",
     "6539693f1e177193ff49f32b9a437fc8079474e76bfe69e05100435225103c3a"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "5e7e321df54cb5b8927e1d11fa8964067fa746ecbc1efe958b6c81078d693b5f",
     "4747922930c7ca2a674e42e060d1648b0f06c6d54dbb2267f12e01e0b7e6ed6f",
     "75f5cabcdaf983c1e33c35884e07899a24d158714883b7d986057c5e0da23b1d"),
    (0, 'substitute_output_label', 'reject', None,
     "6fe4d2017b1ab0192f43c3c6cce770385a0f993ef0a95152eca4159b42d96a6c",
     "09bb4454b4202172131ef6318024479b7091acc2483221a922a4581a84b0d57c",
     "27c2ec32c2d47680e970adebb41b7e343f781ce00f68fdd8686d3e84b9a4f33c"),
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
     "6fe4d2017b1ab0192f43c3c6cce770385a0f993ef0a95152eca4159b42d96a6c",
     "6f8acaad705cae51ce6f21036a3c3649336f34bc7c5c94a634a591fc34cc7b36",
     "9fd9aff453ac5a770691d49384840152b046ec6ec8cc25cfda66a6bf2e0932e7"),
    (3, None, 'accept', None,
     "0d5a2f193f0b9327eb3e9a4ff17f191e769e446ed89714d6883e09ae80fc4eac",
     "5afdabeb32ad8a0c5d2cf40c80ded41cc3144fbeecd1b4cca46727df7833aa90",
     "72620253712759d682e2443a34fa98d75eb8e2a823b2279d0fde54c9d55a17e7"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "03655e8c124a21a5c94ac21ee786a0c9b5eecb51c5bbcf380d0b2b6825495ac8",
     "b54f3744f2497b04e858d98395b8bf406a9e1662fade45c4f909ed6d522b9910",
     "afca8a0328a0693889dbe9b107ee9ba4fe50352d7d61cfbba986edfe13080008"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "a4e8b15da161782c439b9848c2e12b3c2c22556e35c426359c6a30cf087264ae",
     "9501e340b9dcec0e7962a7294e9d2b696fbf98675b39cbc2f4eda389f7e494a8",
     "864a16b2461e997a0570b5f9227c0b150629e666bbae29d4bc130ca7d3b57377"),
    (3, 'substitute_output_label', 'reject', None,
     "a0c5be043674ad2169f659e2e6c92b07f1a5abf24f4907104c46de8db97906dc",
     "591047c4bba4e6779b362051c05c40423390c41415df8224c2e7543ffc2b427b",
     "c4ec28226ce6c66642832ab65e5d3dbdc35072070086873a09189e0048b307ef"),
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
     "a0c5be043674ad2169f659e2e6c92b07f1a5abf24f4907104c46de8db97906dc",
     "e1eeb6df4696a85109368855046efb2ed413da37fb230459189b251ab9bfcbdb",
     "fc5de3039bbe1052ad084e2a528d136efb524ec7bd19aa60d820bdfffe8d6813"),
    (5, None, 'accept', None,
     "4d4ad63eec7836e6963496622aec94f55e7d196c220b9cd1c4672afc5e2e1c44",
     "2057e1ec38a81b35d97e4f5bc6a130ce1d10c16d56d1b0f58c3fcba382d17bcb",
     "f511ab80df0b6b5c4dc595d96bff4245acd3b54ed2c05597a988402e22e4fde6"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "ce9e4a6bec137f5ff09e6a5a1faa62ebcba9b57ca990e5e83806420debfb38af",
     "ec18ed5bfaab4e89bbb51de40cd77041faf14d214d0b719458ecbfeb62690a0a",
     "ff76608681dfe884a0c767258d71aaf308129ac6d77da2dcf3da8e493a6cfde0"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "29d86ce9827d7af1d15f74b25a089842d8aba6663e2d93df48cb10cb4ed4a07d",
     "40011ec7243480ba4c24ab5f6a7668416746cfebe52cf7ab7207ce3826d91495",
     "27caf4c3db68571d08d6880c9807c6d6a6ca6e585343fef8b92713e5ed65b6ea"),
    (5, 'substitute_output_label', 'reject', None,
     "1adef1907d9c5cc59ebe1142a9ab8b2d436c427f66122a49fced7cba03eeac95",
     "8819748451eee5cf49b4b1256a36e3861949d48b097b6e17c8084b033a652a4f",
     "1eb5e86508a69a5c31128eb34737c8ad49de22ec8843146cf27623a5f61eeb0f"),
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
     "1adef1907d9c5cc59ebe1142a9ab8b2d436c427f66122a49fced7cba03eeac95",
     "6e7a9dd92329ec0cef6b927fccb0b564879e30c6fa9476f744c46fd953314cdb",
     "bfe40096a2794087bef1b2b8e42851e0bec9afc02463941318e0560d30ed481d"),
    (0, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "8c798bb6030116363760e05aaadcd7d2b003fd7ad1b46aca7d8e87c8b8983755",
     "9874915be2d1b5b55d0b99b30e5b3868fb54dce2c82b9cbcd9521fe54555273e",
     "6d145777686e95b415ef2d847f55374e327fb20a7363848502dab16c3ba4733d"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "dfb58c3c4402f92510399801b424a2dd93a71fe123b0bc37aaf624efc39a5756",
     "bee8e21725fe2ec6c21cf7659efc11e05bc2d86a03c79e08ee201be546594c4d",
     "178e6f50825adb7368e1d3c12043cd123afd279297fd9af71c544cd614b9eb28"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "aa86aa04e148408a17a86a098328d6184aed3674792857fa9efabbb2a80a232f",
     "d1898e015c210ff0d42c579b6492ae41e31cdc928e56a500d99ad94160f17978",
     "392adc0095db0230167e1b45c466d3e776862dc1e355c72f0ebd6f8b525390c1"),
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
     "ad4a517204879849a39bab6605a2923a0ba49afc00c2730448974d1029eaba62",
     "b7bcafad9903f2a6cce145936679f5b380e7aed0c5f71de733ff4e3cd3321313",
     "4009b47ad590fdfd518704f60149be7945c390bbe121fd4091bbd08b22054e5a"),
    (3, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "bca99a1433e3ccfec0dad134385f8818b70a74a0c74dd9424c5b6906339bad51",
     "ce585aab9edfb1a2e3490cec63247856656a3ba9b7cf61915d10845d0b08032f",
     "490ba8353de30758e2781992f78e54f1dcade67949041a8be6e3c382483f859c"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "64ee2b58fca77a78cefb33287ef1fbc5dadf79a80f5ef33fcf74939cb08574eb",
     "5f90d4ed0889e90239cf4838867b174bde39a1a30a92ff50bf04e9547c91280d",
     "37182349446b11fd2d8c4c236711acabac940d2bd3b5464e0b9cca10df6863f1"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "4a4fdaa5f15fd20908b5d4348c62c535a915ca383064842240d68c8b55ec0968",
     "1e488cb59097351b0cad7679fc1be5f3fbd0a0a67dca333ca3ea249ac250d470",
     "96434941b7b4c1353a0471da34ee5fae71830754664a102832559424bbdc50a9"),
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
     "a18a98a27dc97853db9f286f87ac3b43d4bb35c7224d3ef9d26a502bf992fda8",
     "8e989734ee78ff1053f21c4dcfcb996f8d485aab49fdc18f5a434c9b06cf1839",
     "1bcfd25f57445851de0d8082e4111eb64f471aa7ef48d15692e81cb79baa1a91"),
    (5, 'tamper_garbled_gate:gate7-mask01', 'abort', 'P1',
     "ccac34a9c4b39b7250ca92c246f166c7482e7b155c36e5fea7f9c6844d786d9b",
     "fc196ac727785c48661520b1c5ecf9b0695af866a0a9087b184f9b4b01c36ee4",
     "4a3a06bbc83681250d18e90617b160ef92433a76f6ff08d5ea7ace3f794ce852"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "45a1f9baf373a49b1c16f3d42ce107019dfa80e044a0bf3639aa00fd84574422",
     "4e5969fc443a704c37da664334f11151f2d26c8f82f4c4b51fc3442e8311fc06",
     "e92c00939eca741239d6521b5a46da6940d299eb43d155ed60fd5660e941cdb4"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "d98016e773ff87ac4e7f466dbf109a811682c12e5d9d1ede0dddd3008b946b8b",
     "e4526f1925464d4876c72266a038baa26c4be6e0c94244d852178c043c42bdb4",
     "eba54e33595120388bbb80b61e77633e8ce90cd51246987dbfafa9612863fb4d"),
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
     "ea86f431266d92fbd74a156a54a9cf8b795183c288a7d2d4f6d2a64fe1d1d034",
     "4080b8dfb8cdb3269c4e52dc520e78f1151f6f681396d0b7fe033498209feaf0",
     "53241f0f00f9ae59e2d5f4e90a0f7be691199dd041f89b7e701b26a8e6846d70"),
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

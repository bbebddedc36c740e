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
     "286b4a6b45d12e52188805655ba8af38d41fff3c470097dfb195f123c9e83490",
     "62a25cc28e0d6240bf863fcadb52a4bbb4711e27f15d909199ee93885a07b0b5",
     "a2ae157cb952f40410ea943a1f34fb0c1fa624d8a1741d80f4027f9a7b034d49"),
    (0, 'inconsistent_labels', 'abort', 'provider:0',
     "f956c12039c76f20c6e747209b554f779855e4854627754fe2630f16df4c2f68",
     "322c45044bf133d99add32f401ef5c01359875402625ad076b39b0ff8928a85f",
     "e064ccdfe5823302817b2476e5c079632abd8494c2a39551bc2c1b866635fbbb"),
    (0, 'tamper_garbled_gate', 'abort', 'P1',
     "4e7e5a9de64dd37f89df67546f0a69eae46a114c4cd1b11aa26a6ecff082010a",
     "a772b39eca54a503f78b4972f5e298c1796a18628abd5f0c68663f64b6139fc4",
     "9adc2389f6f77db5368e26b18d0851cba7f49cccc5ef1c0cded7c4394d272bb3"),
    (0, 'substitute_output_label', 'reject', None,
     "d250b80c0dbec42bbf6b01bb673790bcedd1515015735d2e64c57f03ab8130ec",
     "71c4b0160692ce47cb1ab3170f2497b8f557404b04560a7604cf00cbf6f2a62d",
     "85c62230a8c03042c5096ae79a5db71359a703e2d5e61c40620425ff35d8b4b8"),
    (0, 'bias_coin_toss', 'abort', 'P2',
     "d5cc122bd764fafa310c8fc3eac15b5015df0677ebf2067756ad1417e246a791",
     "3d1f56b94b7113b8e006ab124bc8f353337b052890a08a6b32ea4dcc9fc4236b",
     "f028561e99663bf234ac1db106a5131643700ac0c5e10f727b1a8de51b57afed"),
    (0, 'falsify_check_failure', 'abort', 'P1',
     "0b88eea80b99da2fb4015402d09d48a9ccba218940908150f18e0408906f2544",
     "f02c59a73dacfac9cc259b856f2a614cfaa76068e578f602f0cf42a3d6990cc9",
     "5ec4a65d21d18d864ace9fbbd0a0118f312caa08059e1aa4663adc0e67a5fa87"),
    (0, 'forge_consistency_proof', 'abort', 'P1',
     "ad9735cdf5f5189add912dbfe9e46591f6e2ea2102ca4ed5793c12520379cd8d",
     "05bf475a466897c66da9eee41641236048eedae334ecb06ec94bb39cb00f62a8",
     "0baa9e05acc2f1fab1df1b45f40355335080bd50ea14db3312000f58614f70ec"),
    (0, 'false_output_complaint', 'accept', 'provider:0',
     "d250b80c0dbec42bbf6b01bb673790bcedd1515015735d2e64c57f03ab8130ec",
     "5e5aac9f9696eae043c61c0d0929b84350e5db4f726067b6ec5fc3537ba1de72",
     "aa9e9bb3e271de1fc75842f829e47ee3382419b0efad64f18806d9d33cdc8b9d"),
    (3, None, 'accept', None,
     "90f90d01903051fa050e136ea345769615b4b2921abdc1b33d4291e45cb26822",
     "89b1c603c5bf7f4cb88b0cde4207a180e9be89c3ac9e6c6281813554d4b32a9e",
     "886c48b33075dad1cd6cadcc21ffff2aca860339038e69b11dbe9457b1294969"),
    (3, 'inconsistent_labels', 'abort', 'provider:0',
     "4007c0df15d2ae64b80768665d01953e4483e8d905963817217c42af1cf58369",
     "eee3623b9686067385788021b3c3309405eee305c8ea328eec2947ca1120f62d",
     "c56a13f563d4b0c1c7a5ac37c8eca385deb528b8f17e2c32455493062d37e7f0"),
    (3, 'tamper_garbled_gate', 'abort', 'P1',
     "0a1fcd7a80ac1b5d22f97c6f69be6d4d867ac08865af3b35058d169d06246449",
     "b5e2fbe8d31b40873752f090b4fe2ab0ea01b9cf160f6f8c06eb4a9bab695e69",
     "e9740860aff6ab78b1bc8fd55a1e555c9010d110190909de977d3027e8c225f9"),
    (3, 'substitute_output_label', 'reject', None,
     "98bc4e13e0e14bc85b8dd7e5efec0f598a9e3d04858a665bb8985f05b5775a91",
     "6ab9e7afe9349ad1aeb728bb7c2b0f2fdf227294ff610fc0684070206fb53a70",
     "2387569648ab5f57e726185a5280d9cf41d88105dba19efedba09384a77b7b81"),
    (3, 'bias_coin_toss', 'abort', 'P2',
     "d5cc122bd764fafa310c8fc3eac15b5015df0677ebf2067756ad1417e246a791",
     "f19f19cad80c5c9031ec1a9ae6d47357866e6c03740722dc4c09b3f771eba979",
     "4320c24e1666fe17447d5a189f705e37dfc319eec44f27c0170d971de5bc9239"),
    (3, 'falsify_check_failure', 'abort', 'P1',
     "3522a1cbaaf4b35eadd3d32c1333386ca0cedcc877164bd764f0a9550d178f84",
     "6331fc7c68e4e7f87911e0d1b42ef9fb6dca70e79d580df489907174c379008c",
     "90071187cab2d24e9f55b4c4106dc0171fd098af1005ee10bb8b22dd3d4e3c11"),
    (3, 'forge_consistency_proof', 'abort', 'P1',
     "2ea0c769a4c17c40c52d1bb7fe540901992266602ffca7398c1ed7bd4f4bc441",
     "fa71d33969883410b101827fa089a2707e9bfa5be6d49a0ab259fbcfedae9a62",
     "eca7cfecfde0cb1a0f950b4ff4760b3f56b5b86cbd2e415357e06c0024243103"),
    (3, 'false_output_complaint', 'accept', 'provider:0',
     "98bc4e13e0e14bc85b8dd7e5efec0f598a9e3d04858a665bb8985f05b5775a91",
     "fd849fab6fa3c42a0b66b8302aea5fc23d46aa5fea26b34c16b07a780f1151af",
     "0131572013c08c46dbcbed8f6a9c82d9ff1a29d755180c5c99684fcbbfb7a3d8"),
    (5, None, 'accept', None,
     "d8aa65111b5a77727796fad0a3d83e1956d8362dda2e93276774cd9a6522a3bb",
     "094fda75a3435bfc977c9fd15f658268c8528449a2ee9537e54f27037264b93d",
     "194e07f06f7c03c946758edb267f2b3c6d15be4098e74fc794bbf26aa18d0261"),
    (5, 'inconsistent_labels', 'abort', 'provider:0',
     "7732b2e2fd5ff2886300b965c003f320c6d5134a5c1446194d2667ffeb1dcc03",
     "cad1a038cc1f9600fd83ab3e68a06425474440d5fe7f1e785fdc6e250f2134a9",
     "31c4f91328713d9a8d7aa1a1f5bfb59e10f77efd21a74a37e63d857b8d561357"),
    (5, 'tamper_garbled_gate', 'abort', 'P1',
     "8a4209ad95b974ff74533cdf89b53a5c42a8560b930f99f4dc83aba94cf2313e",
     "7da0b1c321c582526129285235766f53c0fbc1ab157938d686f07dc56f6cc970",
     "8fed0ed6fc345e598e4168201e34cd0839827fab9d04261cb0de3192285bbcc0"),
    (5, 'substitute_output_label', 'reject', None,
     "39218378c12f9d6a26c16327b214efe8a61cbc82346061937485613e8b1cbf3a",
     "176da118448bf3b1f3573dab8ab9fe3cc31688aaa9783b2d8f5e14f96ac24ad2",
     "cf241ccb8bc6c5a8bfc719f951ed03a6fd1f67fa876618b2773bcbefb78c1c4f"),
    (5, 'bias_coin_toss', 'abort', 'P2',
     "d5cc122bd764fafa310c8fc3eac15b5015df0677ebf2067756ad1417e246a791",
     "9c741babe853bdccf867dd8f85c0cf03bed417c72cf1b3a8f3f804ae568cea20",
     "9fb2de677cc4c0c71fda3324377fffc9b787d37f68634cd429eac2ff1dad87a4"),
    (5, 'falsify_check_failure', 'abort', 'P1',
     "4227defc6fb29634830b5c414b5d08a18982af4de416237309478011a1bac2ea",
     "3f0b70b451dc0825bbb2f26060c7f1aa960816c474cccfc3bb69cd7e12617494",
     "799a366123a8bc818fce91d22e96449122f68c17547688ddeafa38be569dd459"),
    (5, 'forge_consistency_proof', 'abort', 'P1',
     "590a25b7593110d1a9f30724c30bee1878d589be2c0a00f4fe6942006b47194e",
     "d1313cfc85c5545d72b67a2942943940142a3cb44cacb29c45bededebb83c194",
     "9ea4c439af171040a79ef99c8f313a4b7f8fc832b7bf45ae330a1b360ba3f34d"),
    (5, 'false_output_complaint', 'accept', 'provider:0',
     "39218378c12f9d6a26c16327b214efe8a61cbc82346061937485613e8b1cbf3a",
     "21a74eca7933ef2356bf04ebe385849efe377e0261820ff0f392e1ea39a0882c",
     "771e0e0ed18fbe7f89ffb830a0f6bd219352bbb9e7f454d8e7acb7c6ca67621a"),
    (0, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "4e7e5a9de64dd37f89df67546f0a69eae46a114c4cd1b11aa26a6ecff082010a",
     "6d46789a53526930bb262eed01bbd10976055a90ea93b102f1d67afc05237c97",
     "5b179c4c255d23359c7c65ada7f00d1a21ce0953c3390e3a79c4d2980c8f66bc"),
    (0, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "727d9d8d4ececa7f4ff16bbf643fb38b161f0fc88d8feda9613c48d03c4735ec",
     "1cc591cdc09e90111a78b5ee8183f02f6e0d7b0e9c9ceef5fce31655e3565a1c",
     "a71af0a43e3ca4d04ca4acc0ef690e3a45614547732a8f21d2be334ccb2f7c65"),
    (0, 'substitute_output_label:P2-recipient1', 'reject', None,
     "13140ee3e7fd5c20c74860a1efa371521a517c10668433b29e83f8bcb6bab344",
     "0ef1bff3446290a07b22883ce08dad58b6864ac1126c9c4e45c5e634b0ea19a6",
     "9a71accfad3ba6b8cfee6fe487b24046db6846db241c0a0050fd807dce46b98a"),
    (0, 'falsify_check_failure:P2', 'abort', 'P2',
     "f35126f0aa43a232e15f83f2bf6fe49fc44be325bde40c494d99b021cfff45c8",
     "a2b9ae8a20cebf0fdc225fc4894f9f7535ede97aed03d045c1dca1603c102b89",
     "031791b4eb03c32aeedffcee3ad1ab89a5ece3c9b7773acbaece3aded998bfdc"),
    (0, 'forge_consistency_proof:P2', 'abort', 'P2',
     "35ec2eb45a5a9c3d04f3861735c68f3766e0d21a4492801199b9301029ad67b5",
     "b22e8d9ea71de54c765552a68a85f5066f7d5ebdf879d1062f1a6de63fe40e50",
     "7353e839873b0bafb61b1d163b8a84d42749b890851fecfe577701e57de888c0"),
    (0, 'bias_coin_toss:P1', 'abort', 'P1',
     "be69783dd5e9c82a3832cb01fc43b60ae92744c83f8133483fd82619bd4d44cd",
     "4efcce6bbe5594c197c3e9d372e41fc79a55bd22011526cd380e467e6d6ea71d",
     "0de5021a34a587d3493c004e9dad0fcaaa864b7fa0165acf5ea0f2cd212879ea"),
    (0, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "16fd448bb434d7e741e06e9ba55dcc2a7f117f7c266edcaea651580aa92fc710",
     "d38a98ebf03199f0104f9271d58d9025d5d92890e0434f15abc4dbdde2acab18",
     "6a4760cd8f5e5ae282a29788908cd0944bf99cbe983e99805b72e93e993a8239"),
    (0, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "11f67e10f4cb9f8e13ee1498207f32b694b067bb4a3f94c644dc08f45feff680",
     "f2f3849cebdfa1dd1609cca34df97d995c4dda47a14a6eb757a39d42d7310b91",
     "ee2ee1cd0305ebf3e76a9b6fee88fcc70deb45568404b21a7f84e61a4830f2b5"),
    (3, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "0a1fcd7a80ac1b5d22f97c6f69be6d4d867ac08865af3b35058d169d06246449",
     "32bc6c42d7387a3fa575c68e7a60e63625ed60506ba84912855d704d279a04ab",
     "ebb503c3076854e26de187c57e4a5b1637f99e1c71ead321b5a2599cf57dab64"),
    (3, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "c85aa8212e1024bd3579b0b0915afca8017f8dcb595a58a3ae930e4bfd85f4da",
     "384af2c819fcef347d6eb0115dd2ad321f810b6ec4496d0fab3982ab361878d2",
     "7d2fa3e79cbc366365f5c584a486ffc4e253032e7c001ed854a4eee0033ffe67"),
    (3, 'substitute_output_label:P2-recipient1', 'reject', None,
     "4ba1ae50572fd26a12a3eaf046c0e0f9f565d9a20cbf293033c6eda84dd80b1f",
     "db4b8ab56f6152f924e819f25c5fc5a363da19fb6f628fda7dbe0495b79228e8",
     "e206900c5b03ecef219b52221061442200c86f3ea21be5715a86a081d660bd3b"),
    (3, 'falsify_check_failure:P2', 'abort', 'P2',
     "097cdf549777fdca95ef06e6c9bbe89705282445882653423d66166d031a1a26",
     "49d6ded73b4881439251bee04f095cc3dc7bb144c37ee772bac788c8dbfcc52b",
     "35e13147ccff7e8e169144554c6f91b878c1b1f382e820922cc5f67e889bb04c"),
    (3, 'forge_consistency_proof:P2', 'abort', 'P2',
     "e1061d8fd71b0dcf536008a733030cf655fa85830d08d17a0dba78cf3612c869",
     "dbe5816cb2fafb8328300602a9d348da8e54b826ba34ccb462da5acb07992ca7",
     "7f51af2eb388d5c0d40e2746253d0d3cadabf8550270ae9b5e57eee4e7735798"),
    (3, 'bias_coin_toss:P1', 'abort', 'P1',
     "be69783dd5e9c82a3832cb01fc43b60ae92744c83f8133483fd82619bd4d44cd",
     "414eaba17159cb75ecff43924c39d36acd808392ed49c544179904b9e09d93c0",
     "ff7dd0b37015f57ad7af80b4dd73591389f0f067d3b9fe06598df9569d4ed25b"),
    (3, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "aa3aab7e0518db80e7274b92190cf7ffc1744870b0acba712f306ee0c8f725b3",
     "e45541ded07f1c0567db83505c51a73ea54b6e650b6d5ed97b23dc4f132f5dc2",
     "53c4f65a4f174680ac3d13b3f4f66ec1b548332c8cab21583098318a3d16ea68"),
    (3, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "ca4c80bd610e582d3ce6d50fc5c40ff232b55cd9d673972dab6a77a308305e99",
     "e647e180be8990ca42f991b2bc9e777628b219b9bc27139db1bbdf293eec9b73",
     "d82e8702b2b1f82e5cd88d2d35a279928547c0bd5e25574595b970601d3fc99b"),
    (5, 'tamper_garbled_gate:gate5-mask01', 'abort', 'P1',
     "8a4209ad95b974ff74533cdf89b53a5c42a8560b930f99f4dc83aba94cf2313e",
     "b5e862d772ab9ae36f817e90e15a00afcae21fdabaa26a2e7ffa0805e0b898db",
     "64920a491a534480315b6626c5b8e811e66ecb0f20ded58c283a0d65adadef02"),
    (5, 'tamper_garbled_gate:P2', 'abort', 'P2',
     "d0353a6f9becdf41aeb0750261ed9917551df85e63e0f7d7e5353f0c9c550eff",
     "e4764c1d8463857f3599022a24163117e549f76b442022260d03b79035b74b47",
     "1d8124dfe99f01fa16db632c4821401fe215324a4f95df4964b10e5da3958cf1"),
    (5, 'substitute_output_label:P2-recipient1', 'reject', None,
     "f238c9db6265824724fdd7233dec5dad553826ecfc33716d23a92286dbb8f597",
     "5be89570350071b450dd98230018d932ec3c741b03ca712d343ad463ccf51e32",
     "836f176e1b36ef0236ea7e5520d24cecf47b8ad257d223b343cb0ca5d21b6745"),
    (5, 'falsify_check_failure:P2', 'abort', 'P2',
     "18d285c3a0ea6b737463ee59cd073e5e7df16df21a5a3c1fb201046a002ef4bf",
     "00abd1e4253f117ac14732783b3a2f810558ac03dd3538fd7decc30580286c66",
     "9cc923eaac6c2f62dde804ae1172ca63d6c20e1111a916e059cdf56f2de595b5"),
    (5, 'forge_consistency_proof:P2', 'abort', 'P2',
     "3806fe8241c8da24f3e560419885539b6b635388ce69a56af8f46ff55520673b",
     "65aa7344a49d1827039d54b877eb7d606e2184bc0f07c6bcb4a17700f020c211",
     "16a49df592f706fee1af5e3bd8af0cb1366fc5cfd0ad68a84c79a6d23b503393"),
    (5, 'bias_coin_toss:P1', 'abort', 'P1',
     "be69783dd5e9c82a3832cb01fc43b60ae92744c83f8133483fd82619bd4d44cd",
     "12b0d80efcbe531f572318096940c662ac2e70ddca949ad0d8a0f4f3c039317a",
     "06b76c1c240348c94bb794ee78301d370ec125b033a34bbf6c2d827aa1472d13"),
    (5, 'inconsistent_labels:provider1-wires01', 'abort', 'provider:1',
     "7732b2e2fd5ff2886300b965c003f320c6d5134a5c1446194d2667ffeb1dcc03",
     "16f89883e9f4132a52322282d1da9b2b092115b60d63716755a24fd5d3b749c6",
     "b22f4b3e1be3dd0d3a71501fa7ba9f7769c15902c0383035aa58823f10d5b3ec"),
    (5, 'false_output_complaint:provider2', 'accept', 'provider:2',
     "f7938330b523aa2ad6291ef6b8a87e5dcfeabb8517c258de567dc86dc9c6e812",
     "44d41849132edd9c4ced4926d763a941f71c299a23fc5274df2de33162a4de04",
     "b76fd3ea86a9b88c964213cc9ec12a3ad8967462cc0721cdc9346096e657009a"),
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

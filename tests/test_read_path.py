"""The read path: compute_volume's signed memo, the serializers and
eval_numeric reading the integer form, and what a volume keeps for them
(the canonical order, eval_numeric's flat form).

DIGESTS holds the SHA-256 of to_json, to_latex and to_text (slot kinds
lengths then angles) of compute_volume(sig) for every stable (g, m, n) with
g <= 2 and 1 <= m + n <= 5, recorded from the code that still built the
Fraction `terms` view to serialize and negated the expanded boundary volume
on every cone query.  Serializing from the integer form must leave every
byte as it was.
"""

import hashlib
import itertools
import math
import operator
import random
import sys
import threading
from fractions import Fraction

import pytest

from wpcone import polyalg, recursion
from wpcone.conepoints import ConeSurfaceSpec, cusp_limit, volume_value
from wpcone.polyalg import (
    eval_numeric,
    from_orbits,
    substitute_zero,
    to_json,
    to_latex,
    to_text,
)
from wpcone.recursion import (
    SurfaceSignature,
    boundary_volume,
    clear_memo,
    compute_volume,
    cone_volume_direct,
)

DIGESTS = {
    "0,3,0": (
        "9b6fbf75f522530be7ad8b10992e19511e427c0ea2279dc562cb4c09993d7ad8",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "0,2,1": (
        "9b6fbf75f522530be7ad8b10992e19511e427c0ea2279dc562cb4c09993d7ad8",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "0,1,2": (
        "9b6fbf75f522530be7ad8b10992e19511e427c0ea2279dc562cb4c09993d7ad8",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "0,0,3": (
        "9b6fbf75f522530be7ad8b10992e19511e427c0ea2279dc562cb4c09993d7ad8",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
        "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    ),
    "0,4,0": (
        "8646ba2106f89ca7b4c09699e61d2e56542678788c1680bb277cb6ea4d16e6c5",
        "5736300b3c949d51c72de851ef6a569867eec8bae09ed6eff4b385639790b9f8",
        "4bfa330dbcd085b56bc0891374f894289af47aea1249408b26687a9f1fce8c67",
    ),
    "0,3,1": (
        "cd27b958ddc8b1abb4bdcccec0e649c8263830b9c1c874dacd4fcee7b56ccea4",
        "12e2b6f59d5ae89a90bda344860396d3e9d41eb636a999cde5184dc9ca83d80a",
        "9bc8e444a48946a18314d2b980b7f833abf6c3b87b186e92979965939f00ed93",
    ),
    "0,2,2": (
        "7991c8cc84e429c4e13a2c03a54b385cdbac51f425e2e7ef1a6f600350b28365",
        "72a80219dad10976800a5547b2e48877a172aa4d8b4a22e98917beeb566de554",
        "72fe0f82fd74441813030d509fad7ff91762f82fdb10af69b7c70002410eaaaf",
    ),
    "0,1,3": (
        "809a0489251879476835e50e36d37d2ebb8cf8798742d5ae003b7c45faca778e",
        "0fa71f6865459db14b97aa1a72865c9864267e52ae3e08d6dcdac14fa2149ac4",
        "20aab2ac84712888f7377d7ea5b1627a5c65955b6d3f22ed93bee4040329a172",
    ),
    "0,0,4": (
        "897fe5d36092bfdfc2db149bb7ef09496e8972dad141ae92bbf5c917df912d7a",
        "b3e62e11605309d74ea49094e9908f7e048405e118999a1d79b75c78beda7db8",
        "1fc719feac36270bacabb7b2a6e3de28dbac7d91c4afb39438860938bfbdd443",
    ),
    "0,5,0": (
        "75c71db8c1ee9778e879eb9408328a349f96b346ea23888f0cad030539f7f836",
        "6269807e7e6a6e279c8b7761fdfb1d53beee8ce941d298e79011008831af6634",
        "5063fc3d9e65b68e1588eaab8d1fc086c93778ab8c0773adc5ab37f52f41e56a",
    ),
    "0,4,1": (
        "2d9c84773a8c119821204c5b8fcfede1ebfbd34021d225c447610c3094688cea",
        "36e0c1e77bbe7e6b1c7c00544df203cc489597d0ffa23425487d62fa7abf0d9b",
        "bc243972408f204755ddddcfcf31d77c137229039ae4ccd318b3a8f343ecbe67",
    ),
    "0,3,2": (
        "b7e4d433f7d37d494bb48840d72f9a16584ef5fa831c5553f77058e997e92656",
        "79cdb7a83f845475f1f8a371ff6813a12646abd69cc956a289927c473812d5df",
        "217a9f415f25d376d14a144073168a2813029f720d4e83704e9c8514accd0070",
    ),
    "0,2,3": (
        "423ca163405d44ef2ec18856365c48731397f447f240aa9d2b1eb862e5d4dc07",
        "51385c12594631a908886bdcba58ae4892995440be59a7f37dc772e1424118b8",
        "a3dcb4f1f4ae94b2efefc2c8a0f0f16b926140b8a8b84c639a626c514bb71d2d",
    ),
    "0,1,4": (
        "a07d81ceaa2d5b40b92872b0f924b69c364b8e722e40aa6070599318e3d55b3b",
        "0b311d9992ff3a05eb9fb331782174e85abca667f1b118f853b80889571479dd",
        "f501f9757a2f1b8aaf61a7ffe7f8b4b703dd6572b8465efbb7de836a83c3d737",
    ),
    "0,0,5": (
        "75cc5e6f1de0c4ef166a8035124ee1d7763eda8eb8f4e596a2e422705cdd6e4e",
        "04c9de5211d1f8349fd974592712331a3633e15973823a994e7f05f6b064beee",
        "78b3c01fc18b5f781fdd3d300ff8178d0921954f040c3b5532eb36c24bd0cce6",
    ),
    "1,1,0": (
        "1ab1e42ac68f33982e74aecbc358a379c1c8697683b7228ceaa55bd3df4e6724",
        "f02f5cd7313d96cdc101f2cc15b7e7bea2c6b847d711d6135a04881c540a3b53",
        "4b6de1b132c359f440100f692549e46ff373a9fb76a70d7bc1340d69d0549dea",
    ),
    "1,0,1": (
        "608afc57c816561b5dba28afa4ab4bbb59d786c8f850c7f93a05149d4b86e3df",
        "9bd4617c9cbfe9b16a06ab36e4d607f571cb2490ec8b04e6d172a1345aaa190f",
        "acaa0d212e665ca72c9b26963086c6adb55612c8970b18d718fb6226dadbb2d1",
    ),
    "1,2,0": (
        "270728bd5d983c78172749a74a8819ca78021604899a154d0e15698245c8a911",
        "affb92c6ecaaf9e7e42d74a21bcefbb0308c04b84dac0ddd8ba4d1764584e7eb",
        "6f5658b1c65b3cc9e45553c8ac2c52e9c0dc32c5a15b40c01c4fa5d3ceaf53a3",
    ),
    "1,1,1": (
        "b808a791db4a863538014b8b24897566cfb9aede6a42c86acbfae268f3aceffa",
        "1f0338fc6add7e37cf5f0826494df3bd83df2acd1fd13fae87025df7da7f675f",
        "13a36ba5815bc66ad1aa2ca5fad04b1fa0ae65f316d706711534adf01f655629",
    ),
    "1,0,2": (
        "d3996bb60a0db7cedf7fcec22b9bb4384738a8586460828e26ee7fdded169ca2",
        "af18ed8fa3f26426f06226640664f2a1b47d7c4d62a0412e069e96d0d269ff1a",
        "4aa9fa9afa3a91c85df5f7bf6195a5a4003a5ee51163c94585755dc4d57979c2",
    ),
    "1,3,0": (
        "d4fe3507728d07f5d587406dc0d176348bccebc526ff6a1fca792459a314edb3",
        "7de879b7fad76d29e7ccafb79c1439f7be12d99d5c6a966ac85dfe44b2d60c7a",
        "5823d6d446a34d150cedf3174ad8aa20036ae7220ec23c94f07691aae1b45192",
    ),
    "1,2,1": (
        "b61939aa8e6a44e3e2a125a14ab86e8e4b253367ba1966cb73669ea256f4429f",
        "57bb3232a35b51a924ec6c137561078a4182825e3c0f0ca28ef86b767a6de8e3",
        "3b32016d9e2e512439cf9071b0c16ed7c8e0905e5885102fe68d4099b42096e4",
    ),
    "1,1,2": (
        "8cc5a4ab54d2657f931c08c39bbb1b401011713cbc608962b659680ca95b801a",
        "b9f9f719bb3c871069b87240ec06467934804a124ed602194aff2f5ee69a663e",
        "95c33a9a3d4ad8649074a338192cf7749e7ad3fad8a8ca8e63d3a0df04ead6bc",
    ),
    "1,0,3": (
        "4754fb47f1e1efed9d5ad10a1e883903fc2feb76ef5eec3ba1fe4b1d0020aae5",
        "1da6d612a6e94e0f3c79793d906051aeb8f010196084b0f7b44d58ec09aff6a4",
        "109c15f75ad0a5a3c3f19b5dfc783d2fd3acd07f27a79b1de5b30f4f6ba22d31",
    ),
    "1,4,0": (
        "8c975bbea36ef4780b6ff498a6b83b602ba3af9e345ee09a9834f08f0167849f",
        "77daf71cbe6a34756ef70a8da0357467016088c26263a7671e4b245fbce1ab8e",
        "c07a8aa9407a547cca4cd5003bbcb09cc775949c25d76ce45e60b6f3d64ee6d9",
    ),
    "1,3,1": (
        "5234103232b2a86d54d91adffc3b396fdc954a3c685965dd36a127f68bb7c225",
        "f1e0c649b4381366d542fd9e4386077e173d6c7f6436f6993ba60e8dc58a6832",
        "0217d5b91c87d44b07ebeabf9e2a09f4518ecded6f0716c457818dd2b9857b9d",
    ),
    "1,2,2": (
        "4aaa4e9169b4dc8a18c38b3b62ebb70293b2e8bb0c3bad2a633cd6f3d42ed7b0",
        "f8eacc99f74e15c0ee407a0a298e836fb9ce41fe201dc4132ade29b00a78b604",
        "846110b07e55dcc99753ad258ae89c134f4ba8de64727c50e56b9436365f1909",
    ),
    "1,1,3": (
        "8fa07efd7adfd9a89b4516ab7b5856e90c87935226c25bfbf629e484796a5a74",
        "4b9d85b22ce5a53f68f3f4aaf94d85714c86308fb7cce3f9b0a409c6bf43716b",
        "23b362ab256314b99afc26a7e2db89b93d45e775bdedabac15c973a51ee540df",
    ),
    "1,0,4": (
        "b99855a95e8a564af76cfa6b6303b07cd6303905206a0f21b9d59875e8766ebf",
        "b83179cc58a6d085ada44c59787a81f7b802d39bfede9c87c8c5ab5eb9a054b0",
        "e94df2c26987783c8112a71230cbc1106c3081caaf66e6db1867d7aed33513d6",
    ),
    "1,5,0": (
        "fcd2ee68feb53e82aded1e5b357929606672ec9c6cafb2263eeb11a9af9eff49",
        "b58d1ccd013e790217af460dcbb8c2235527ad941c2fb0c5fb01d9eee15ac5fe",
        "ce1528ef603212bbd86a2e54e0525e1f3cd3e48ce39056764f7dc0ff3bce9e25",
    ),
    "1,4,1": (
        "48f239f6697c824c987d481860e055662783dd88ca8932b0d661c7a055724a33",
        "98c62720cef171c9bca897729b935df9714071a836256ed3cad67634dc6d31f0",
        "9c80736bab417b0d2d0894ad118a5e80de09007aabcaf59b3ff60e063b8f311e",
    ),
    "1,3,2": (
        "6b9f63411ea32b5a44d58c0d1cb020ff11f2a01a62c20acedddd46549ff05f88",
        "f95f7005cea766f7f6750d8d659ba2776946c280acbf5f4c6e93e6dc5f80eb01",
        "1a1f6d52bcfcfe252b702c5afe43015268798101d3125c80b42c7eb816e44e2f",
    ),
    "1,2,3": (
        "92f43931ec1d286669333ba55f5c79e7a110efe3ff77a54bd34c347e8c95c068",
        "d80b2b8a594d5c3e286abf72f542e3ba941194fb53ce7594e675b6faeb23ea0b",
        "ba7131d804126928b0b2e53799129b5935464405af89e31d02283cf05987c29c",
    ),
    "1,1,4": (
        "e02fa9b620ca77ff803433437a911ef6ef64d91611cf3e7a0cc2bc143751ac4d",
        "5f86ad92d416ef7cfc7851e48d388d6032c03f363ba79264408cb92c636d126d",
        "d8a64c41b810051eede793f52fcb2a5a2e6c859d6a3d292f4f7b463fd166148e",
    ),
    "1,0,5": (
        "639be99ee3427f66a50a23fbd2a8917c889d87142d4bd745b161bff07a75a87d",
        "861bae0f62f3c6b2c27979a4b246ed5a4c8e49db971959e638ca3a4d14ce8587",
        "819f6b427d9058856024aec7f947c2cd3e580b0dca483b281466ba4f1cd991c4",
    ),
    "2,1,0": (
        "67ffa3bd8196eff5231a3e41a84a14824a8879378d793de1b5d7dbd3f2e1567b",
        "e7a8b233df2871ab43cefe3cf4bec3f5647b06656a67cbaf58a35e3d72f9d1a4",
        "e3281645634d63bfeb253bfbd32d852adf29ffb25e5683afff2645026f822166",
    ),
    "2,0,1": (
        "e3b0391698511f876f73b0ead037bf41f5898c7ac81e134547a75160ab8909d7",
        "7be2b76b4886e897dd2dbc3fb0cc4a97202d73d5735340fe7fe2c7bae547a545",
        "218550e5b857d8da3351da670be50fbf4de839135f6961b0c0837cd2659b533e",
    ),
    "2,2,0": (
        "e0ded90e1a66591d6be121bd03087f91af8bf0c1271ed7dec49a6065a97e6df2",
        "99eefce1b37ea0bb5b767f7c58481e0691f188599ac10f919ea268ac7cec8818",
        "c77179bef9d156447c1faaeb36497b26f08a3179adb34099b6fed684cfcfdd92",
    ),
    "2,1,1": (
        "80a46f572b731b42fd7250af0244b0a78b60f6295d6923e2427f55ec367fcf24",
        "b895af2946da0a3bd0690c46ccd42938918b162b3aa8d17464b5b203047addd9",
        "549bb4e3eedda8342e874da9bef15d216828e39e95fb0453db2dcf3c5d6c28d2",
    ),
    "2,0,2": (
        "e5c301c9cd00032b33bcdb6cc641421135858747ffc0d8c9ddbdbe0b37d7f2c8",
        "dbacfb64268144d5a61260051d8be0923c29bd870470ed2069ea6252836da1a8",
        "ec576efed918d85f104ba53428b4c09fad7fc21d76b621de1b60daeb0a53d799",
    ),
    "2,3,0": (
        "719ab358f250c45e87f1af1a3d17d3c1e6f4bb78710e1f1f49bc441b2f72bef1",
        "d1e3ef51c1f0a49c9b46c75bfd9936197e019ce5a7e2298534a6fabf429f8944",
        "7719e48c2a0a8a52d2023db9c3ea681286eb013f1e6bebb51566a006be32747c",
    ),
    "2,2,1": (
        "fd7e95ad7f52e04f861a88c922fe6e62bcd56e661274eebc69087024538ac06c",
        "ae5cb31c3b6327f19acb63fec47474cb6ab8a4e808608c815f54d7f36eb444be",
        "9c17707f16fcabadc285fbe6ef2d33b7cc0938fa7bda1fe5bde4c3b0b73628f6",
    ),
    "2,1,2": (
        "4dfba93f54d444656f0f6370fc4d3297e039371704fe1e0d72b8f077c2b1dad9",
        "d12f85b4e8f55a62dee275d837eabed9f7467eb9e9751905191097fddba4f8f5",
        "6dd7f5b9251162ad947812c5e2466d9ecdcdbaf390adac92fd16287a972fca42",
    ),
    "2,0,3": (
        "80edb22feef851a726bc3570c73d6f0b14bf7674841f3c1308c5c2eb2e83c0ca",
        "ab3362854bfa4d04b6943d4821e3fd37d3e4b591cc1a55c37c2093c340f5d357",
        "9b53b7076d04789196498e1e92772937c77cb20101182c4dc56498edb80d4742",
    ),
    "2,4,0": (
        "d486604fe656bfc5058fe115d177f63a88c329d705be4163261477e71fb9bda9",
        "299bcf4684906c2b0a273e66c273f2003c7a713442481abd9e4f56f9963fa92d",
        "72134a3d7ba6dfca1a776d9ba9e57c5bf261f246eb3c67e6bffd03c828aa6f6c",
    ),
    "2,3,1": (
        "15c372377dada50dbcbcf087bc9df6be11765d3f5d5c66d92722d5f8cc013237",
        "adda08185df49ed5bde5eaf60350ba8826710a179f2e97d2d72fba8acced05cb",
        "df878413865ee2e242d83269945aaf345237c9fb51d6557ccf19a78bc26b1b63",
    ),
    "2,2,2": (
        "abeacddcea0e6b5691f1693aff8238c82c7c99b20eb113eb58911c566fb5d7b9",
        "029d052a394d60fd2d136c44fa5e60418c99c0501ce2249372a80f5c201c4c46",
        "bc752b5ccde22e9dc56be967cfe3bd81ae1988453daa36df5b5afe9e867ab726",
    ),
    "2,1,3": (
        "38dd8d8af93348f3b3375b77903c57ec41a8fcfa31e1e640647dabf978965113",
        "36c01216b309eb4f9d01ca4b5b02f4be956dc7d881496679f18c4e53ce377fc9",
        "c6cf29d4bd5bb911a0ea72146b50c31aa9f57058c9abb08f71f024ff02d7be3f",
    ),
    "2,0,4": (
        "91127c739228dbd46904dd28824373c7f5e1c42182e851ab3d2ef58aaa38d0d8",
        "20dd0ada7ac4a8e456e73fdd49a91cf1295b349f792975ce2b6f8811b71b7932",
        "2c2de662c91c89c78df256a0733bdff087f32ce0e798cbc8a166f8375b4fa804",
    ),
    "2,5,0": (
        "c1cc45098ec63033bf3847651766a7945a261d0ff6f75bad765a97f7a404992c",
        "03ee7ffb5b7abad70e89abf14da5e532871403da42b044d4f77566b18a8a2b25",
        "fd9f7e38183d68471b417f18d04ffb8ff600a79174c2255f6ed465adfd5f2d8f",
    ),
    "2,4,1": (
        "52a55712cd9958da9066f853a56050fdf84fb60cbe158c377d8402f405149c7c",
        "375ce5c82b84beb9ce8b2d76034de10a7ba15e9f48046aa14f1c6d867ffacbbf",
        "255955c42a7fe3ec683af5e0db4ce2c389a16115681671ee30c712b5bb152ebf",
    ),
    "2,3,2": (
        "100936cf240e00eccb13d1d3e7b8bb53092dd6c68fb36bd15c7ef996a7bf1caf",
        "7a8e9a3daae3727720b522cc332f2b62d2a99f5d60954f5f191f246854360b8f",
        "9a457411a5c9a7e0ab1cfb97599a4dd6b3bf21f4a5a5b339f0a25c0524de10b6",
    ),
    "2,2,3": (
        "022353f48c5ed9722f4917dfc542e40e0ec6551f1fbbe032c5e21075c1d324e3",
        "9738b38f8729271bcd81a3f644242ba2b95519b27b2fbe691ff586dd7dc40e4d",
        "f6f0570f502327647d2b45dc74ed30551a7f3e7d0edbb04227d25f5c028063f1",
    ),
    "2,1,4": (
        "f70e2d88cd8cb5b028696c8d2a89e5b054a80c0e1216f1d0f13cf93dcdec00b5",
        "4f8669a814978e7782d3e0ee44975417e4ac63d3eb761e2726b21119132ea0ee",
        "9416918c1a21719d6493fc02b39ddf243d5da5b497fa7eecdc021554e0ca2f09",
    ),
    "2,0,5": (
        "3d04a8295c18105ac04b335fdf8b582c7125967ce426157c8528a219443c873d",
        "2e77c6f64297af12f228040772bd3e3bcd7c171e4265af54f89bae52d06ce732",
        "5af695e08087550b5bc6d583228fefd32bc8315ccabee2cece54bfcc775fe6e5",
    ),
}


def small_signatures():
    for key in DIGESTS:
        yield SurfaceSignature(*map(int, key.split(",")))


def kinds_of(sig):
    return ("length",) * sig.boundaries + ("angle",) * sig.cones


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_serializers_are_byte_identical_on_every_small_volume():
    clear_memo()
    assert len(DIGESTS) == 55
    for sig in small_signatures():
        p = compute_volume(sig)
        kinds = kinds_of(sig)
        assert "_order" not in vars(p)
        for _ in range(2):  # the second walk reads the kept canonical order
            got = (sha(to_json(p)), sha(to_latex(p, kinds)), sha(to_text(p, kinds)))
            assert got == DIGESTS["%d,%d,%d" % (sig.genus, sig.boundaries, sig.cones)], sig


def reference_value(sig, values):
    """The value as the earlier code computed it: every term of the expanded
    all-boundary volume, its sign flipped when its cone exponents sum to an
    odd number, then num / den * pi^(2j) * prod v^(2e) term by term."""
    den, nums, degree = boundary_volume(sig.genus, sig.slots).numerators
    cones = range(sig.boundaries, sig.slots)
    total = 0.0
    for xexp, num in nums.items():
        if sum(xexp[s] for s in cones) % 2:
            num = -num
        coeff = num / den * math.pi ** (2 * (degree - sum(xexp)))
        mono = 1.0
        for v, e in zip(values, xexp):
            if e:
                mono *= v ** (2 * e)
        total += coeff * mono
    return total


def test_eval_numeric_agrees_with_the_term_by_term_formula():
    rng = random.Random(41)
    for sig in small_signatures():
        p = compute_volume(sig)
        for _ in range(3):
            values = [rng.uniform(0.05, 3.0) for _ in range(sig.slots)]
            want = reference_value(sig, values)
            assert abs(eval_numeric(p, values) - want) <= 1e-14 * abs(want), sig
        # complex input (a cone is a boundary of length i*theta)
        boundary = boundary_volume(sig.genus, sig.slots)
        imaginary = values[: sig.boundaries] + [1j * v for v in values[sig.boundaries :]]
        want = term_by_term(boundary, imaginary)
        assert abs(eval_numeric(boundary, imaginary) - want) <= 1e-14 * abs(want), sig
        assert "_flat" in vars(p)  # the flat form is kept on the volume


def column_form(p, values):
    """eval_numeric as the earlier code computed it, one table lookup per
    term per slot: the same coefficients, products and sum, so every value
    must match bit for bit."""
    den, nums, degree = p.numerators
    pis = [math.pi ** (2 * j) for j in range(degree + 1)]
    products = [num / den * pis[degree - sum(e)] for e, num in nums.items()]
    for v, column in zip(values, zip(*nums)):
        squares = itertools.repeat(v * v, degree)
        table = list(itertools.accumulate(squares, operator.mul, initial=1.0))
        products = map(operator.mul, products, map(table.__getitem__, column))
    if any(isinstance(v, complex) for v in values):
        return sum(products, 0.0)
    return math.fsum(products)


def test_eval_numeric_is_bit_identical_to_the_column_form():
    clear_memo()
    rng = random.Random(83)
    polys = []
    for sig in small_signatures():
        p = compute_volume(sig)
        points = [[rng.uniform(0.05, 3.0) for _ in range(sig.slots)] for _ in range(3)]
        polys.append((uncached(p), points))  # the gatherers built on this read
        polys.append((p, points))
        # a cone is a boundary of length i*theta
        boundary = boundary_volume(sig.genus, sig.slots)
        imaginary = [v[: sig.boundaries] + [1j * t for t in v[sig.boundaries :]] for v in points]
        polys.append((boundary, imaginary))
        for k in range(sig.cones):
            cusp = cusp_limit(sig, k)
            polys.append((cusp, [v[: cusp.num_vars] for v in points]))
    # the zero polynomial, no slots, and one term: itemgetter of one index
    # returns the item, not a tuple
    polys += [
        (from_orbits(2, 1, {}, 3, (1, 1)), [[1.0, 2.0]]),
        (from_orbits(0, 1, {}, 0, ()), [[]]),
        (from_orbits(0, 12, {(): 1}, 1, ()), [[]]),
        (compute_volume(SurfaceSignature(0, 3, 0)), [[0.5, 1.5, 2.5]]),
        (from_orbits(1, 48, {(1,): 1}, 1, (1,)), [[0.7], [1j * 0.7]]),
        (from_orbits(2, 7, {(2, 1): -5}, 4, (1, 1)), [[1.1, 0.3]]),
    ]
    assert compute_volume(SurfaceSignature(0, 3, 0)).numerators.nums == {(0, 0, 0): 1}
    for p, points in polys:
        for values in points:
            for _ in range(2):  # the first call builds the flat form, the second reads it
                got, want = eval_numeric(p, values), column_form(p, values)
                assert got == want and type(got) is type(want), (p, values)


def test_reads_build_no_fraction_view():
    clear_memo()
    for sig in (SurfaceSignature(2, 3, 0), SurfaceSignature(1, 1, 3)):
        p = compute_volume(sig)
        to_json(p)
        to_latex(p, kinds_of(sig))
        to_text(p, kinds_of(sig))
        eval_numeric(p, [0.5] * sig.slots)
        assert "numerators" not in vars(p), sig  # no read keeps the expanded map
        assert p == uncached(p) and p != compute_volume(SurfaceSignature(2, 2, 1))
        assert "terms" not in vars(p), sig
    cusp = cusp_limit(SurfaceSignature(1, 1, 3), 1)
    to_json(cusp)
    to_latex(cusp)
    to_text(cusp)
    eval_numeric(cusp, [0.5] * cusp.num_vars)
    assert "terms" not in vars(cusp) and "numerators" not in vars(cusp)
    clear_memo()
    p = compute_volume(SurfaceSignature(1, 3, 1))
    assert bool(p) and "numerators" not in vars(p)  # truth expands no orbit


def test_a_first_read_does_not_wait_for_another_volumes_build(monkeypatch):
    # functools.cached_property on Python 3.10 and 3.11 holds one lock per
    # property across every instance; a volume's kept forms take none
    sig = SurfaceSignature(1, 1, 1)
    orbits = compute_volume(sig).orbits
    slow, quick = (from_orbits(sig.slots, *orbits, (1, 1)) for _ in range(2))
    building, release = threading.Event(), threading.Event()
    expand = polyalg._expand

    def held(orbits, blocks):
        if orbits is slow.orbits:
            building.set()
            release.wait(30)
        return expand(orbits, blocks)

    monkeypatch.setattr(polyalg, "_expand", held)
    first = threading.Thread(target=to_json, args=(slow,), daemon=True)
    first.start()
    try:
        assert building.wait(5)
        second = threading.Thread(target=to_json, args=(quick,), daemon=True)
        second.start()
        second.join(5)
        assert not second.is_alive()  # done while slow's build still waits
    finally:
        release.set()
        first.join(30)
    assert to_json(slow) == to_json(quick)


def test_signed_memo_returns_one_object_apart_from_the_direct_path():
    clear_memo()
    sig = SurfaceSignature(1, 1, 2)
    signed = compute_volume(sig)
    assert compute_volume(sig) is signed
    assert (1, 1, 2) in recursion._SIGNED_MEMO
    assert (1, 1, 2) not in recursion._RECURSION_MEMO  # no direct path run
    direct = cone_volume_direct(1, 1, 2)
    assert direct is not signed and direct == signed


def test_clear_memo_empties_the_signed_memo():
    compute_volume(SurfaceSignature(1, 0, 2))
    assert recursion._SIGNED_MEMO
    clear_memo()
    assert not recursion._SIGNED_MEMO and not recursion._RECURSION_MEMO


@pytest.mark.parametrize(
    "sig, lift, knob",
    [
        ((5, 1, 1), {"max_moment_k": None}, "max_moment_k"),
        ((0, 2, 7), {"max_slots": None}, "max_slots"),
        ((6, 0, 1), {"max_genus": None, "max_moment_k": None}, "max_genus"),
        ((5, 2, 0), {"max_moment_k": None}, "max_moment_k"),
        ((0, 9, 0), {"max_slots": None}, "max_slots"),
        ((6, 1, 0), {"max_genus": None, "max_moment_k": None}, "max_genus"),
    ],
)
def test_caps_raise_with_the_signed_memo_warm(sig, lift, knob):
    # a warm compute_volume reads its memo only after the caps
    clear_memo()
    sig = SurfaceSignature(*sig)
    warm = compute_volume(sig, **lift)
    memo = recursion._SIGNED_MEMO if sig.cones else recursion._RECURSION_MEMO
    assert memo[(sig.genus, sig.boundaries, sig.cones)] is warm
    with pytest.raises(ValueError, match=knob):
        compute_volume(sig)
    assert compute_volume(sig, **lift) is warm


def test_a_warm_read_checks_no_signature_again(monkeypatch):
    clear_memo()
    sigs = [SurfaceSignature(*sig) for sig in ((2, 3, 0), (2, 2, 1), (1, 1, 2))]
    volumes = [compute_volume(sig) for sig in sigs]
    spec = ConeSurfaceSpec(sigs[1], [2.5], [1.0, 3.0])
    value = volume_value(spec)
    cusp = cusp_limit(sigs[2], 1)
    calls = []
    direct, new = recursion.cone_volume_direct, SurfaceSignature.__new__

    def counting_direct(*args, **kwargs):
        calls.append(("cone_volume_direct", args))
        return direct(*args, **kwargs)

    def counting_new(cls, *args):
        calls.append(("SurfaceSignature", args))
        return new(cls, *args)

    monkeypatch.setattr(recursion, "cone_volume_direct", counting_direct)
    monkeypatch.setattr(SurfaceSignature, "__new__", staticmethod(counting_new))
    assert all(compute_volume(sig) is v for sig, v in zip(sigs, volumes))
    assert volume_value(spec) == value
    assert cusp_limit(sigs[2], 0) is cusp
    assert calls == []
    # a miss still goes through the checked entry, and so does a closed
    # surface, which no memo ever holds
    assert (0, 7, 0) not in recursion._RECURSION_MEMO
    compute_volume(SurfaceSignature(0, 7, 0))
    assert ("cone_volume_direct", (0, 7, 0, None)) in calls
    with pytest.raises(ValueError) as closed:
        compute_volume(SurfaceSignature(2, 0, 0))
    assert str(closed.value) == (
        "closed surfaces have no distinguished boundary to recurse on; "
        "add a boundary or cone point"
    )


def uncached(p):
    """A copy of p from its expanded integer form on one-slot blocks, with
    nothing kept on it yet."""
    return from_orbits(p.num_vars, *p.numerators, (1,) * p.num_vars)


def term_by_term(p, values):
    """eval_numeric term by term, the plain reference: every term of the
    integer form, num / den * pi^(2j) * prod v^(2e)."""
    den, nums, degree = p.numerators
    total = 0.0
    for xexp, num in nums.items():
        mono = 1.0
        for v, e in zip(values, xexp):
            if e:
                mono *= v ** (2 * e)
        total += num / den * math.pi ** (2 * (degree - sum(xexp))) * mono
    return total


def test_evaluator_on_the_zero_polynomial_and_on_no_slots():
    assert eval_numeric(from_orbits(2, 1, {}, 3, (1, 1)), [1.0, 2.0]) == 0.0
    assert eval_numeric(from_orbits(0, 1, {}, 0, ()), []) == 0.0
    constant = from_orbits(0, 12, {(): 1}, 1, ())
    assert eval_numeric(constant, []) == 1 / 12 * math.pi**2
    cusp = cusp_limit(SurfaceSignature(1, 0, 1), 0)  # V_{1,1}(0) = pi^2/12
    assert cusp.num_vars == 0 and eval_numeric(cusp, []) == 1 / 12 * math.pi**2


def test_a_warm_evaluator_still_checks_its_arguments():
    p = compute_volume(SurfaceSignature(1, 1, 1))
    assert eval_numeric(p, [1.0, 0.5]) > 0
    with pytest.raises(ValueError, match="nonnegative"):
        eval_numeric(p, [-1.0, 0.5])
    with pytest.raises(ValueError, match="slot values"):
        eval_numeric(p, [1.0])


def test_nan_slot_value_is_refused():
    p = compute_volume(SurfaceSignature(1, 1, 0))
    with pytest.raises(ValueError, match="slot values must be nonnegative"):
        eval_numeric(p, [math.nan])
    assert eval_numeric(p, [-0.0]) == eval_numeric(p, [0.0])


def test_terms_that_cancel_lose_nothing():
    # 10**20 x_1 + pi^2 - 10**20 x_2 at x = (1, 1) is exactly pi^2
    p = from_orbits(2, 1, {(1, 0): 10**20, (0, 0): 1, (0, 1): -(10**20)}, 1, (1, 1))
    assert eval_numeric(p, [1.0, 1.0]) == math.pi**2


def exact_value(p, values):
    """p at real values in rational arithmetic, pi read as Fraction(math.pi).
    p is homogeneous of degree d in (pi^2, v_1^2, ...), so over one common
    denominator `scale` of pi^2 and every v^2 the sum is over integers."""
    den, nums, degree = p.numerators
    squares = [Fraction(math.pi) ** 2] + [Fraction(v) ** 2 for v in values]
    scale = math.lcm(*(q.denominator for q in squares))
    pi2, *ys = [int(q * scale) for q in squares]
    total = 0
    for xexp, num in nums.items():
        term = num * pi2 ** (degree - sum(xexp))
        for y, e in zip(ys, xexp):
            term *= y**e
        total += term
    return Fraction(total, den * scale**degree)


@pytest.mark.parametrize("sig", [(0, 10, 0), (1, 7, 0), (8, 1, 0)])
def test_eval_numeric_on_the_ladder_ends_is_within_a_few_roundings(sig):
    """Positive terms: each product is off by at most one rounding per
    factor and per multiplication, and math.fsum adds one more."""
    sig = SurfaceSignature(*sig)
    p = compute_volume(sig, max_moment_k=None, max_genus=None, max_slots=None)
    bound = (p.numerators.degree + sig.slots + 3) * 2.0**-53
    rng = random.Random(19)
    for _ in range(2):
        values = [rng.uniform(0.05, 3.0) for _ in range(sig.slots)]
        want = exact_value(p, values)
        assert abs(Fraction(eval_numeric(p, values)) - want) <= bound * want, (sig, values)


def test_a_value_that_overflows_is_refused():
    p = compute_volume(SurfaceSignature(1, 2, 1))
    with pytest.raises(ValueError, match="not a finite double"):
        eval_numeric(p, [1e200, 1e200, 3.0])


def test_cusp_limit_on_orbits_matches_the_expanded_path():
    clear_memo()
    for sig in small_signatures():
        p = compute_volume(sig)
        for k in range(sig.cones):
            slot = sig.boundaries + k
            fast, slow = substitute_zero(p, slot), substitute_zero(uncached(p), slot)
            # slow keeps one-slot blocks: each exponent vector is its own orbit
            assert slow.orbits.nums == slow.numerators.nums
            assert len(fast.orbits.nums) <= len(slow.orbits.nums)
            assert fast.num_vars == slow.num_vars
            assert fast.numerators == slow.numerators, (sig, k)


def test_threads_reading_first_get_equal_results():
    p = uncached(compute_volume(SurfaceSignature(2, 2, 3)))
    values = [0.5, 1.5, 0.25, 1.0, 2.0]
    start = threading.Barrier(4)
    results = []

    def read():
        start.wait()
        results.append((eval_numeric(p, values), to_json(p)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4 and all(r == results[0] for r in results)
    assert results[0] == (eval_numeric(p, values), to_json(p))
    assert results[0][1] == to_json(uncached(p))
    want = term_by_term(p, values)
    assert abs(results[0][0] - want) <= 1e-14 * abs(want)

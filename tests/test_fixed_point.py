"""Fixed point: canonical JSON of every volume stays byte-identical.

Each digest is the SHA-256 of polyalg.to_json(compute_volume(sig)), recorded
from the code before the recursion moved to integer numerators.  A refactor
of the exact core must leave every one of them unchanged.
"""

import hashlib
import sys

import pytest

from wpcone.polyalg import to_json
from wpcone.recursion import SurfaceSignature, clear_memo, compute_volume

# every stable (g, m, n) with g <= 2 and 1 <= m + n <= 5
SMALL = {
    "0,3,0": "9b6fbf75f522530be7ad8b10992e19511e427c0ea2279dc562cb4c09993d7ad8",
    "0,2,1": "9b6fbf75f522530be7ad8b10992e19511e427c0ea2279dc562cb4c09993d7ad8",
    "0,1,2": "9b6fbf75f522530be7ad8b10992e19511e427c0ea2279dc562cb4c09993d7ad8",
    "0,0,3": "9b6fbf75f522530be7ad8b10992e19511e427c0ea2279dc562cb4c09993d7ad8",
    "0,4,0": "8646ba2106f89ca7b4c09699e61d2e56542678788c1680bb277cb6ea4d16e6c5",
    "0,3,1": "cd27b958ddc8b1abb4bdcccec0e649c8263830b9c1c874dacd4fcee7b56ccea4",
    "0,2,2": "7991c8cc84e429c4e13a2c03a54b385cdbac51f425e2e7ef1a6f600350b28365",
    "0,1,3": "809a0489251879476835e50e36d37d2ebb8cf8798742d5ae003b7c45faca778e",
    "0,0,4": "897fe5d36092bfdfc2db149bb7ef09496e8972dad141ae92bbf5c917df912d7a",
    "0,5,0": "75c71db8c1ee9778e879eb9408328a349f96b346ea23888f0cad030539f7f836",
    "0,4,1": "2d9c84773a8c119821204c5b8fcfede1ebfbd34021d225c447610c3094688cea",
    "0,3,2": "b7e4d433f7d37d494bb48840d72f9a16584ef5fa831c5553f77058e997e92656",
    "0,2,3": "423ca163405d44ef2ec18856365c48731397f447f240aa9d2b1eb862e5d4dc07",
    "0,1,4": "a07d81ceaa2d5b40b92872b0f924b69c364b8e722e40aa6070599318e3d55b3b",
    "0,0,5": "75cc5e6f1de0c4ef166a8035124ee1d7763eda8eb8f4e596a2e422705cdd6e4e",
    "1,1,0": "1ab1e42ac68f33982e74aecbc358a379c1c8697683b7228ceaa55bd3df4e6724",
    "1,0,1": "608afc57c816561b5dba28afa4ab4bbb59d786c8f850c7f93a05149d4b86e3df",
    "1,2,0": "270728bd5d983c78172749a74a8819ca78021604899a154d0e15698245c8a911",
    "1,1,1": "b808a791db4a863538014b8b24897566cfb9aede6a42c86acbfae268f3aceffa",
    "1,0,2": "d3996bb60a0db7cedf7fcec22b9bb4384738a8586460828e26ee7fdded169ca2",
    "1,3,0": "d4fe3507728d07f5d587406dc0d176348bccebc526ff6a1fca792459a314edb3",
    "1,2,1": "b61939aa8e6a44e3e2a125a14ab86e8e4b253367ba1966cb73669ea256f4429f",
    "1,1,2": "8cc5a4ab54d2657f931c08c39bbb1b401011713cbc608962b659680ca95b801a",
    "1,0,3": "4754fb47f1e1efed9d5ad10a1e883903fc2feb76ef5eec3ba1fe4b1d0020aae5",
    "1,4,0": "8c975bbea36ef4780b6ff498a6b83b602ba3af9e345ee09a9834f08f0167849f",
    "1,3,1": "5234103232b2a86d54d91adffc3b396fdc954a3c685965dd36a127f68bb7c225",
    "1,2,2": "4aaa4e9169b4dc8a18c38b3b62ebb70293b2e8bb0c3bad2a633cd6f3d42ed7b0",
    "1,1,3": "8fa07efd7adfd9a89b4516ab7b5856e90c87935226c25bfbf629e484796a5a74",
    "1,0,4": "b99855a95e8a564af76cfa6b6303b07cd6303905206a0f21b9d59875e8766ebf",
    "1,5,0": "fcd2ee68feb53e82aded1e5b357929606672ec9c6cafb2263eeb11a9af9eff49",
    "1,4,1": "48f239f6697c824c987d481860e055662783dd88ca8932b0d661c7a055724a33",
    "1,3,2": "6b9f63411ea32b5a44d58c0d1cb020ff11f2a01a62c20acedddd46549ff05f88",
    "1,2,3": "92f43931ec1d286669333ba55f5c79e7a110efe3ff77a54bd34c347e8c95c068",
    "1,1,4": "e02fa9b620ca77ff803433437a911ef6ef64d91611cf3e7a0cc2bc143751ac4d",
    "1,0,5": "639be99ee3427f66a50a23fbd2a8917c889d87142d4bd745b161bff07a75a87d",
    "2,1,0": "67ffa3bd8196eff5231a3e41a84a14824a8879378d793de1b5d7dbd3f2e1567b",
    "2,0,1": "e3b0391698511f876f73b0ead037bf41f5898c7ac81e134547a75160ab8909d7",
    "2,2,0": "e0ded90e1a66591d6be121bd03087f91af8bf0c1271ed7dec49a6065a97e6df2",
    "2,1,1": "80a46f572b731b42fd7250af0244b0a78b60f6295d6923e2427f55ec367fcf24",
    "2,0,2": "e5c301c9cd00032b33bcdb6cc641421135858747ffc0d8c9ddbdbe0b37d7f2c8",
    "2,3,0": "719ab358f250c45e87f1af1a3d17d3c1e6f4bb78710e1f1f49bc441b2f72bef1",
    "2,2,1": "fd7e95ad7f52e04f861a88c922fe6e62bcd56e661274eebc69087024538ac06c",
    "2,1,2": "4dfba93f54d444656f0f6370fc4d3297e039371704fe1e0d72b8f077c2b1dad9",
    "2,0,3": "80edb22feef851a726bc3570c73d6f0b14bf7674841f3c1308c5c2eb2e83c0ca",
    "2,4,0": "d486604fe656bfc5058fe115d177f63a88c329d705be4163261477e71fb9bda9",
    "2,3,1": "15c372377dada50dbcbcf087bc9df6be11765d3f5d5c66d92722d5f8cc013237",
    "2,2,2": "abeacddcea0e6b5691f1693aff8238c82c7c99b20eb113eb58911c566fb5d7b9",
    "2,1,3": "38dd8d8af93348f3b3375b77903c57ec41a8fcfa31e1e640647dabf978965113",
    "2,0,4": "91127c739228dbd46904dd28824373c7f5e1c42182e851ab3d2ef58aaa38d0d8",
    "2,5,0": "c1cc45098ec63033bf3847651766a7945a261d0ff6f75bad765a97f7a404992c",
    "2,4,1": "52a55712cd9958da9066f853a56050fdf84fb60cbe158c377d8402f405149c7c",
    "2,3,2": "100936cf240e00eccb13d1d3e7b8bb53092dd6c68fb36bd15c7ef996a7bf1caf",
    "2,2,3": "022353f48c5ed9722f4917dfc542e40e0ec6551f1fbbe032c5e21075c1d324e3",
    "2,1,4": "f70e2d88cd8cb5b028696c8d2a89e5b054a80c0e1216f1d0f13cf93dcdec00b5",
    "2,0,5": "3d04a8295c18105ac04b335fdf8b582c7125967ce426157c8528a219443c873d",
}

# the cold ladder of the benchmark
LADDER = {
    "0,2,6": "4368f8a8b7bd573803802099e37c2f3e8929902a3e345d87ab891c2eb3447382",
    "0,3,4": "7ada924d1d548ac47eb6e4cdd7438ab28f3e617e7a730321c27cdc9696b8bf39",
    "1,3,3": "9aaf93d9be7f4d2fea1a79d67869550ef6100eb12af84d7514e1fa171bc48fb5",
    "2,2,2": "abeacddcea0e6b5691f1693aff8238c82c7c99b20eb113eb58911c566fb5d7b9",
    "3,1,2": "1fe64c1a00e6115e6f35f1c422b2d54992be36e642b9b8ca4402ae2398d03803",
    "4,1,1": "1fc2533b658ba461d3e4d6b26f6f66cdd2cec839e55c68276359d734ff9cfd3b",
    "5,0,1": "d0ea0f2a97c02600a6b9a1ab74c52f2f20f054cccb9020c3378adc22822ed889",
}


def mismatches(digests):
    clear_memo()
    wrong = []
    for key, want in digests.items():
        sig = SurfaceSignature(*map(int, key.split(",")))
        got = hashlib.sha256(to_json(compute_volume(sig)).encode()).hexdigest()
        if got != want:
            wrong.append(key)
    return wrong


def test_small_signatures_cover_the_bound():
    want = {
        "%d,%d,%d" % (g, total - n, n)
        for g in range(3)
        for total in range(1, 6)
        if 2 * g - 2 + total > 0
        for n in range(total + 1)
    }
    assert set(SMALL) == want


def test_fixed_point_small_signatures():
    assert mismatches(SMALL) == []


def test_fixed_point_ladder():
    assert mismatches(LADDER) == []


if __name__ == "__main__":
    sys.exit(pytest.main(sys.argv))

"""Every functor matrix with d <= 7, and those at (8,4), (9,4), (10,5),
(11,5) and (12,6), pinned bit for bit; (12,6) is the largest box `kmatrix`
computes by default.

The digests are sha256 of the compact JSON of each matrix
(`oracles.digest`).  Those up to (8,4) were recorded from the Fraction
Gauss-Jordan engine (the O(1) matrix at (8,4) from the Kapranov pairing with
one Bott call per entry), those at (9,4) and (10,5) from the Kapranov
coordinate map, and those at (11,5) and (12,6) from the read-off (the O(1)
matrix at (12,6) from the per-entry pairing); the read-off of the images
reproduces every pin.  A change to the images, the read-off or the Kapranov
pairing that moves any entry fails here.
"""

import pytest

from oracles import digest

from grwin.autoequiv import k_matrix, o1_matrix

DIGESTS = {
    "twist:2,1": "fa99f7619c856d65565fad0f189103fc6236f366931671c9e0404594b66a2ed0",
    "cotwist:2,1": "fa99f7619c856d65565fad0f189103fc6236f366931671c9e0404594b66a2ed0",
    "identity:2,1": "be555edbfc39d6a4327eb8ec81b88dbceedfec1812445ad8f0b7dfb80ea39d11",
    "o1:2,1": "fa99f7619c856d65565fad0f189103fc6236f366931671c9e0404594b66a2ed0",
    "twist:3,1": "b972132fa32684c90c984b123daf5434763d959f90e3520ad15c58b72821911e",
    "cotwist:3,1": "b972132fa32684c90c984b123daf5434763d959f90e3520ad15c58b72821911e",
    "identity:3,1": "109bbb0d098bdafc39cf6a1bd168f764524693e0397d50d120c246ac1ea69b38",
    "o1:3,1": "b972132fa32684c90c984b123daf5434763d959f90e3520ad15c58b72821911e",
    "twist:3,2": "415e8a5612310fa45b1b3cc484ac02a0394bd90b73eeef8b698f661ede4a38e4",
    "cotwist:3,2": "415e8a5612310fa45b1b3cc484ac02a0394bd90b73eeef8b698f661ede4a38e4",
    "identity:3,2": "109bbb0d098bdafc39cf6a1bd168f764524693e0397d50d120c246ac1ea69b38",
    "o1:3,2": "415e8a5612310fa45b1b3cc484ac02a0394bd90b73eeef8b698f661ede4a38e4",
    "twist:4,1": "a44c4976694efba51350df848fd78ae2afb12698ba9ad282a2a8b56c8336bf91",
    "cotwist:4,1": "a44c4976694efba51350df848fd78ae2afb12698ba9ad282a2a8b56c8336bf91",
    "identity:4,1": "473e020da9f9843de6a7226b8ba362432e2b536e31e5407c91c01524c0f12a2a",
    "o1:4,1": "a44c4976694efba51350df848fd78ae2afb12698ba9ad282a2a8b56c8336bf91",
    "twist:4,2": "df52152a6c4bb48210acffa13b3f11ff53ed2eb7aec3ccf9e9a0881be57c74c5",
    "cotwist:4,2": "df52152a6c4bb48210acffa13b3f11ff53ed2eb7aec3ccf9e9a0881be57c74c5",
    "identity:4,2": "2b409f046a322801272d87a822f47d3e27ff1a7dc96203a1f4e63b64434c2579",
    "o1:4,2": "df52152a6c4bb48210acffa13b3f11ff53ed2eb7aec3ccf9e9a0881be57c74c5",
    "twist:4,3": "685c9c290624e63c69f08a4ff587f0a1048189491bebcd2ad7825722f0d3ba44",
    "cotwist:4,3": "685c9c290624e63c69f08a4ff587f0a1048189491bebcd2ad7825722f0d3ba44",
    "identity:4,3": "473e020da9f9843de6a7226b8ba362432e2b536e31e5407c91c01524c0f12a2a",
    "o1:4,3": "685c9c290624e63c69f08a4ff587f0a1048189491bebcd2ad7825722f0d3ba44",
    "twist:5,1": "21d9c1c6e3d3d9ba8cc8dee6f76361f0f3f3abb6d2835c3b508b5d4fda5b5366",
    "cotwist:5,1": "21d9c1c6e3d3d9ba8cc8dee6f76361f0f3f3abb6d2835c3b508b5d4fda5b5366",
    "identity:5,1": "cdfd52d60c7ccb111c65f84eb310ce292e29dbbb751517199c1e1391a58ec376",
    "o1:5,1": "21d9c1c6e3d3d9ba8cc8dee6f76361f0f3f3abb6d2835c3b508b5d4fda5b5366",
    "twist:5,2": "cbe62b09ac4dcd46308f8f506c09ee73e1a38170b6341d030eec673c346931b0",
    "cotwist:5,2": "cbe62b09ac4dcd46308f8f506c09ee73e1a38170b6341d030eec673c346931b0",
    "identity:5,2": "40e44f87038aad74632c9e810a4cede4b75ec9a669faa5c5cd9c1dd141ae8da3",
    "o1:5,2": "cbe62b09ac4dcd46308f8f506c09ee73e1a38170b6341d030eec673c346931b0",
    "twist:5,3": "8c8da165c568c7642f1d852250627be81700834dcb53d0854477e5f5fde8573d",
    "cotwist:5,3": "8c8da165c568c7642f1d852250627be81700834dcb53d0854477e5f5fde8573d",
    "identity:5,3": "40e44f87038aad74632c9e810a4cede4b75ec9a669faa5c5cd9c1dd141ae8da3",
    "o1:5,3": "8c8da165c568c7642f1d852250627be81700834dcb53d0854477e5f5fde8573d",
    "twist:5,4": "0be78852669cf601295b894313567c0444b3dace15535f3209e8f891510517b9",
    "cotwist:5,4": "0be78852669cf601295b894313567c0444b3dace15535f3209e8f891510517b9",
    "identity:5,4": "cdfd52d60c7ccb111c65f84eb310ce292e29dbbb751517199c1e1391a58ec376",
    "o1:5,4": "0be78852669cf601295b894313567c0444b3dace15535f3209e8f891510517b9",
    "twist:6,1": "fe88be4f429b41cba2edd3c28f59b67d70a9638daccd59e2db6109c8823abd7b",
    "cotwist:6,1": "fe88be4f429b41cba2edd3c28f59b67d70a9638daccd59e2db6109c8823abd7b",
    "identity:6,1": "2b409f046a322801272d87a822f47d3e27ff1a7dc96203a1f4e63b64434c2579",
    "o1:6,1": "fe88be4f429b41cba2edd3c28f59b67d70a9638daccd59e2db6109c8823abd7b",
    "twist:6,2": "dd410475f64564b310b7c2f580cd78f5537681345b23cf630faea30c937bbade",
    "cotwist:6,2": "dd410475f64564b310b7c2f580cd78f5537681345b23cf630faea30c937bbade",
    "identity:6,2": "d0927b7838eba3f9cf086308d2569fa0a0e49d0471462bfc8380a1ba34b0c13a",
    "o1:6,2": "dd410475f64564b310b7c2f580cd78f5537681345b23cf630faea30c937bbade",
    "twist:6,3": "a2ac1d2e900efc86b7ec0aabf4790ac605d035cf73d7bb93a64185a56d973936",
    "cotwist:6,3": "a2ac1d2e900efc86b7ec0aabf4790ac605d035cf73d7bb93a64185a56d973936",
    "identity:6,3": "8817db0b345cc277b1b2e649062c98d9a923e6a5159c08ff8b075a3947d0d259",
    "o1:6,3": "a2ac1d2e900efc86b7ec0aabf4790ac605d035cf73d7bb93a64185a56d973936",
    "twist:6,4": "89a374fe36a7c814462ed323067308998261afcc93c844dddbf5781cdc47b178",
    "cotwist:6,4": "89a374fe36a7c814462ed323067308998261afcc93c844dddbf5781cdc47b178",
    "identity:6,4": "d0927b7838eba3f9cf086308d2569fa0a0e49d0471462bfc8380a1ba34b0c13a",
    "o1:6,4": "89a374fe36a7c814462ed323067308998261afcc93c844dddbf5781cdc47b178",
    "twist:6,5": "9004b9a26af2fd86b17bb3217701358d7c21d68548087869fd2a496473a4ec2c",
    "cotwist:6,5": "9004b9a26af2fd86b17bb3217701358d7c21d68548087869fd2a496473a4ec2c",
    "identity:6,5": "2b409f046a322801272d87a822f47d3e27ff1a7dc96203a1f4e63b64434c2579",
    "o1:6,5": "9004b9a26af2fd86b17bb3217701358d7c21d68548087869fd2a496473a4ec2c",
    "twist:7,1": "f0fc02da8ed5e6593928d63785d40d607beca231f6d2909e7181a88decb0b74b",
    "cotwist:7,1": "f0fc02da8ed5e6593928d63785d40d607beca231f6d2909e7181a88decb0b74b",
    "identity:7,1": "3eb16c08e2da376388c01585111bb38109af90297609656bab73cb1c2b18db8b",
    "o1:7,1": "f0fc02da8ed5e6593928d63785d40d607beca231f6d2909e7181a88decb0b74b",
    "twist:7,2": "4fcda904129a3cc3348e4c7f6f505aa545a326d2ae161b007023f14b9e967c6c",
    "cotwist:7,2": "4fcda904129a3cc3348e4c7f6f505aa545a326d2ae161b007023f14b9e967c6c",
    "identity:7,2": "084b4880cf4a0abbbdf0c3e83ab8ec246dad2c0c957e4414878579213ef3726b",
    "o1:7,2": "4fcda904129a3cc3348e4c7f6f505aa545a326d2ae161b007023f14b9e967c6c",
    "twist:7,3": "eb19b0881c84749804cb031076d617a6e20a9c3278e6b7abbe8305fd2c072847",
    "cotwist:7,3": "eb19b0881c84749804cb031076d617a6e20a9c3278e6b7abbe8305fd2c072847",
    "identity:7,3": "1604d556c841c7bd6c4dd1a18ec8ec8cc5169df7796a25cf34c21adde33e3ab6",
    "o1:7,3": "eb19b0881c84749804cb031076d617a6e20a9c3278e6b7abbe8305fd2c072847",
    "twist:7,4": "6d9c7ae217ab03ed48aa1f8df160b71fdadfe68ab23d7a30af5020f9dcd5f407",
    "cotwist:7,4": "6d9c7ae217ab03ed48aa1f8df160b71fdadfe68ab23d7a30af5020f9dcd5f407",
    "identity:7,4": "1604d556c841c7bd6c4dd1a18ec8ec8cc5169df7796a25cf34c21adde33e3ab6",
    "o1:7,4": "6d9c7ae217ab03ed48aa1f8df160b71fdadfe68ab23d7a30af5020f9dcd5f407",
    "twist:7,5": "a13ff3b1bf491de3c4fc42774087baf0e0be8205c581f16d62c8755c1340e90c",
    "cotwist:7,5": "a13ff3b1bf491de3c4fc42774087baf0e0be8205c581f16d62c8755c1340e90c",
    "identity:7,5": "084b4880cf4a0abbbdf0c3e83ab8ec246dad2c0c957e4414878579213ef3726b",
    "o1:7,5": "a13ff3b1bf491de3c4fc42774087baf0e0be8205c581f16d62c8755c1340e90c",
    "twist:7,6": "cb7735f6cb81382382d2b9af727e8fcf32a373ee872fe32357a2fa27f7a147eb",
    "cotwist:7,6": "cb7735f6cb81382382d2b9af727e8fcf32a373ee872fe32357a2fa27f7a147eb",
    "identity:7,6": "3eb16c08e2da376388c01585111bb38109af90297609656bab73cb1c2b18db8b",
    "o1:7,6": "cb7735f6cb81382382d2b9af727e8fcf32a373ee872fe32357a2fa27f7a147eb",
}
EIGHT_FOUR = {
    "twist": "640327ecda58d7d279979536f6d8c6731e66975b869d7111f63a087a877057e5",
    "cotwist": "640327ecda58d7d279979536f6d8c6731e66975b869d7111f63a087a877057e5",
    "identity": "499d7c721e0228308705d8c18127ef526352a39e5a264c07fbbd2bb8b6af0f4b",
    "o1": "640327ecda58d7d279979536f6d8c6731e66975b869d7111f63a087a877057e5",
}
LARGE = {
    "twist:9,4": "03cc2d8f3cfc872810ea8251176da86944fbb79dbcd46c9ac07f49198b7110d4",
    "cotwist:9,4": "03cc2d8f3cfc872810ea8251176da86944fbb79dbcd46c9ac07f49198b7110d4",
    "identity:9,4": "4cac2854cd1423484041b021a121d96a1659fd4ee417dfd50c708685f7ef5e8c",
    "o1:9,4": "03cc2d8f3cfc872810ea8251176da86944fbb79dbcd46c9ac07f49198b7110d4",
    "twist:10,5": "bbcab3e2a4c1f6ee301058e2b06d47e14bf561a75cce096e955136adc4436a0a",
    "cotwist:10,5": "bbcab3e2a4c1f6ee301058e2b06d47e14bf561a75cce096e955136adc4436a0a",
    "identity:10,5": "530cde49bd376aee356be2e861a122bb82cb1d9db5eb3e7834482220b7c27003",
    "o1:10,5": "bbcab3e2a4c1f6ee301058e2b06d47e14bf561a75cce096e955136adc4436a0a",
    "twist:11,5": "c9478a7bd2dd14f7f841138390e75235d650de4a7dbffd7e2c0550fc9a5e4e8b",
    "cotwist:11,5": "c9478a7bd2dd14f7f841138390e75235d650de4a7dbffd7e2c0550fc9a5e4e8b",
    "identity:11,5": "777ce5934a78098632205c4efe0b17ce34cec4629169286c658ef6fa910bcd59",
    "o1:11,5": "c9478a7bd2dd14f7f841138390e75235d650de4a7dbffd7e2c0550fc9a5e4e8b",
    "twist:12,6": "67a90df22bb70774cf84f192d99f52469f3962d4c95d1641263e58a71b725d75",
    "cotwist:12,6": "67a90df22bb70774cf84f192d99f52469f3962d4c95d1641263e58a71b725d75",
    "identity:12,6": "533e0bc5033cd4b9173899905a94b7172548b5d46decc84f12eb094792af1255",
    "o1:12,6": "67a90df22bb70774cf84f192d99f52469f3962d4c95d1641263e58a71b725d75",
}
BOXES = sorted({tuple(map(int, key.split(":")[1].split(","))) for key in DIGESTS})


def test_pins_cover_every_box_up_to_seven():
    assert BOXES == [(d, r) for d in range(2, 8) for r in range(1, d)]


@pytest.mark.parametrize("d,r", BOXES)
def test_k_matrices_match_pinned_digests(d, r):
    for which in ("twist", "cotwist", "identity"):
        assert digest(k_matrix(which, d, r)) == DIGESTS[f"{which}:{d},{r}"], which
    assert digest(o1_matrix(d, r)) == DIGESTS[f"o1:{d},{r}"]


def test_k_matrices_match_pinned_digests_at_eight_four():
    for which in ("twist", "cotwist", "identity"):
        assert digest(k_matrix(which, 8, 4)) == EIGHT_FOUR[which], which
    assert digest(o1_matrix(8, 4)) == EIGHT_FOUR["o1"]


@pytest.mark.parametrize("d,r", [(9, 4), (10, 5), (11, 5), (12, 6)])
def test_k_matrices_match_pinned_digests_at_the_largest_default_boxes(d, r):
    for which in ("twist", "cotwist", "identity"):
        assert digest(k_matrix(which, d, r)) == LARGE[f"{which}:{d},{r}"], which
    assert digest(o1_matrix(d, r)) == LARGE[f"o1:{d},{r}"]

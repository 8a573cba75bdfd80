"""Euler and pushforward characters of every seed in four boxes, of a few
seeds in three wider ones, and of a few seeds above the stable degree,
pinned bit for bit.

Each digest is the sha256 of the compact JSON of the sorted
[lambda, mu, coefficient] rows of a character, recorded from the
candidate-partition Schur products that strip-by-strip generation
replaced (the wider seeds from the LR-tableau products that Pieri vertical
strips replaced for exterior powers).  The resolutions are exact, so both sides of a seed share one
digest; a product bug that moves both sides alike still fails here.
"""

import pytest

import oracles

from grwin.characters import euler_character, pushforward_character
from grwin.partitions import partitions_in_box, size

# "d,r:delta" -> digest of both characters at D = |delta| + r(d-r+1)
DIGESTS = {
    "4,2:": "abd81999ee95e54cb37c391e427f8835e74ca213c1aa6dd9a1ae34b816906737",
    "4,2:3": "96c25e7dae0d89747b4d32c20fb031c15756577ae7493ab02900bb42f3fee9d5",
    "4,2:2": "c43eb5eaa3f86b5a0b2773b18ce02116e3ace1c558602ebb855d448517d826ac",
    "4,2:1": "c93299dde6460f7564ca7059e2b64bf7165e0c7c928e4c6ac5a575e2a4c5fd95",
    "4,3:": "841520b903ae26c4308f910411185b4c330577cf83d8fca8b25c12eeab31dcf8",
    "4,3:2": "1ba1b0be30fff31f6855d044bdc204a74c331b78634995a35343fa05eeea9c0e",
    "4,3:2,2": "ddc9590c4806642fcab6ed929abb82aa3bd7e8d63d8fa662afabe25002b34906",
    "4,3:2,1": "9a00e9a1cba115564f2313eee768f4bf45a991c949845bfba9bc47f196164843",
    "4,3:1": "c606a8099a498e93ba4c6c67e2c493dcd543126354b79a97e22784fe2a871540",
    "4,3:1,1": "a44f1b53563a7993a46cdb4dbd1215359ba5596cd4e479c364a8da9aba466e2a",
    "5,2:": "7eb20467b01f882f9d8cde309b834e08cb1317d11ea2593d5f7e81411c8b550a",
    "5,2:4": "2eb081ea3aae15f95605d864c5278eb6734b07d59554ed2e88f56e37a7b4a746",
    "5,2:3": "6412d268c16d2a7a5fa87381db04cbb7641ba5d62e67dcd7a1ddc22822816bf6",
    "5,2:2": "b9dad9964bf4532de08bc8aaadf29d6175762f078ba9eb4f5e98f6a00d5b891d",
    "5,2:1": "5409f3964ddc78ba9720ffd73f9b864620ed23d98a98025b44e9772db3b20c5f",
    "5,3:": "d46b146bdfd7964cc90b65be3e719dd6215c793536c1a86376faa74eee4601c5",
    "5,3:3": "143a94c4d2e23b3cfc3b57caa2962808f3144411ded904ccace480a46067a72d",
    "5,3:3,3": "20a3bb935d8bff0ccb23487d8695cecfb5ef9b4fa57dc045d9e091d5a7dfbd32",
    "5,3:3,2": "a0d0ee4c5b5a4757343841f456783444c6a73a18d224f64f1e80cc6b92990c60",
    "5,3:3,1": "f4b25e24c516fada7b990cc1ac00477f056243e1c1b177a86ab6d39371fb4a8b",
    "5,3:2": "a82bd1d0955a9f0ac5af1ce5b3492ea3d6e7494e6aca16d78a514728efddab12",
    "5,3:2,2": "e9905938c876b320a6dac9090b2e705a370b5e8e1d559afce7738ed0688ff187",
    "5,3:2,1": "41b6e7a96678b2c5ffacd669007a3151c7d7d84dff64c15f60dd2390f9c8282f",
    "5,3:1": "09a9f8f8e4fbdf24d84d598cffe8eb3bcc32012bd68e23ee9af5bba1c5d21c30",
    "5,3:1,1": "3d659c694dec3d9bd45b5ebb05c96a1a79eadd0df1907d86dbf7fc9686f85269",
}
BOXES = [(4, 2), (4, 3), (5, 2), (5, 3)]
CASES = [(d, r, delta) for d, r in BOXES for delta in partitions_in_box(d - r + 1, r - 1)]
# a few seeds each at (6,3), (7,2) and (7,3), up to delta = (5,5) at D = 25
WIDER_DIGESTS = {
    "6,3:": "ac1efac01920bc5103cf89b9e1b5a1a264c0e71629df298e166049008ae9b7fe",
    "6,3:2,1": "618593dd2f636be62a9ddca86652f2811aa0992de1432ae2092993c32345f3fa",
    "6,3:4,2": "5998a148e8c5c1af073e462bc9913d9ff6829a604a37def4b01dbaf14654b0ee",
    "6,3:4,4": "4c7876c92dd682da357fe3738e461717702aae310812c27d3ddf6b1d14593f3e",
    "7,2:": "0d82b9547b25d352cc48bc452ef3204482ea38917c4cb7929351fa57f8e7c4a7",
    "7,2:3": "76bf001b7be7e02a9562876002aa5016738859d9f31ca289263769d116292247",
    "7,2:6": "c4918b2014fd38e4476660874855aedd7bb37bb2dece6b5cfc95531c421f9b23",
    "7,3:": "250f1a4a0a8124d188a582fff2d4cba73cf86d5e8890b672f340124b8d5f50b5",
    "7,3:3,1": "34a55f4b743592e468b9cc8a6d04e97745052df3e15ac8cc7dc603cc81d2043a",
    "7,3:5,5": "045a07000874cdcd8ddf6c7764525a86e0742c40ba461d3f11bc9f590a3429e5",
}


def digest(character):
    return oracles.digest(sorted([list(lam), list(mu), c]
                                 for (lam, mu), c in character.items()))


def key(d, r, delta):
    return f"{d},{r}:{','.join(map(str, delta))}"


def parse_key(pin):
    box, _, rows = pin.partition(":")
    d, r = map(int, box.split(","))
    return d, r, tuple(int(x) for x in rows.split(",") if x)


WIDER_CASES = [parse_key(pin) for pin in WIDER_DIGESTS]
# "d,r:delta:D" at D = stable + r and stable + 2r, recorded from the products
# grown from LR tableaux, before the filling tables replaced them
ABOVE_STABLE_DIGESTS = {
    "6,3:2,1:18": "0208063cc451b7abebbe3c149615dddcd6bd6fde42d0d6d67b068470815bc108",
    "6,3:2,1:21": "46ee91f8910b868e0111fe1669f08cd5053b3723e28984258407847f2eec78da",
    "6,3:4,3:22": "a1206166936061e091d92445f794075e158f1187d11e7b151f8f029a1aef7835",
    "6,3:4,3:25": "0f5b9f2ba385da79ba218699f40dfcb40c0c7d4af1a77c63b017a6b524c9fc38",
    "7,3:3,1:22": "970c6372f88fc987311a3479376a6cb512a280b9e9f6365f314f3707f7ffd2cd",
    "7,3:3,1:25": "5ed8b2807d2cf13cb34242d8ad4e3e0ac0df4e0f32881d87f9dfa187e33813eb",
    "7,3:5,2:25": "3c855cbe26dc2f5ac4a78737a1c952c9ec9512e3f97afa241fe9784d2e9ab576",
    "7,3:5,2:28": "8046a4db458ed85523504302a1f7b0731d20e3fb95bc5adedee75dcb1851c323",
    "8,4::24": "c41573147ad06dc8b54a304244131bf19383c7f87c55127a16b0605a977cfacf",
    "8,4::28": "e934c128f9bf5b40442a70cee3d368ddc5667bf7ca7eb026038bab7901f8bd3f",
    "8,4:3,3,3:33": "c0f45593bdb7d466b6914892b9aaff53a4c73d29a6e02619655edabb26fe40b3",
    "8,4:3,3,3:37": "1fb89f431b0f03838c28a385d3ea594b2ac6aac144f556e953ccebefbad4df99",
}


# "d,r:delta:D" at the room's edge boxes, at D = stable and stable + 2r:
# r = 1 (every core is empty) and r = d - 1 (no zero tail under row r),
# recorded before the Pieri tables were grown under the shared core room
EDGE_DIGESTS = {
    "5,1::5": "7856f87a417b4ebd89c914474d5b05b41531be06d81ed97a236506cdcab11817",
    "5,1::7": "7856f87a417b4ebd89c914474d5b05b41531be06d81ed97a236506cdcab11817",
    "8,1::8": "7856f87a417b4ebd89c914474d5b05b41531be06d81ed97a236506cdcab11817",
    "8,1::10": "7856f87a417b4ebd89c914474d5b05b41531be06d81ed97a236506cdcab11817",
    "6,5:2,1:13": "99ea516d54bd66c72e14dd73786ff2d4a096711a777e903d4e6dfb6677a16be4",
    "6,5:2,1:23": "fdf2fe4d0c814cb00f33e09533882ad9039f3ea0b812cdd81f3096b3080f1791",
    "6,5:2,2,1,1:16": "437c8ae7238e637ab84099598ece78f65114bd7f602214c392c7e1763f51b75c",
    "6,5:2,2,1,1:26": "09c56d601aa0b253cbcff8ab483651019fd5c0f6396125904ecf4ebf1272467a",
    "7,6::12": "b2a27c88d066d289c38218871a65ae283cb5737d77d9ddb395503ff7e2129955",
    "7,6::24": "80d1a77c5ef73f67c5dde631c62b9b7d9366ac32a54fee146d68c6dfd6de253d",
    "7,6:1,1,1:15": "2207a59a6a006e07f943ba65c4c680b3bf8f4f046fa16fd1c4eb6ea2f9bdd8be",
    "7,6:1,1,1:27": "fbf4c1f117c5aa394de9d2bbef0f421535a1c508fb4150f0547ee7f5fa24356a",
}


def test_pins_cover_every_seed_of_the_four_boxes():
    assert sorted(key(*case) for case in CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("d,r,delta", CASES + WIDER_CASES,
                         ids=[key(*case) for case in CASES + WIDER_CASES])
def test_characters_match_pinned_digests(d, r, delta):
    D = size(delta) + r * (d - r + 1)
    pinned = {**DIGESTS, **WIDER_DIGESTS}[key(d, r, delta)]
    assert digest(euler_character(delta, d, r, D)) == pinned
    assert digest(pushforward_character(delta, d, r, D)) == pinned


def test_above_stable_pins_sit_at_stable_plus_r_and_plus_2r():
    for pin in ABOVE_STABLE_DIGESTS:
        box, _, D = pin.rpartition(":")
        d, r, delta = parse_key(box)
        assert int(D) - size(delta) - r * (d - r + 1) in (r, 2 * r)


def test_edge_pins_sit_at_r_1_and_d_minus_1_at_stable_and_plus_2r():
    for pin in EDGE_DIGESTS:
        box, _, D = pin.rpartition(":")
        d, r, delta = parse_key(box)
        assert r in (1, d - 1)
        assert int(D) - size(delta) - r * (d - r + 1) in (0, 2 * r)


def check_pin(pin, pinned):
    box, _, D = pin.rpartition(":")
    d, r, delta = parse_key(box)
    assert digest(euler_character(delta, d, r, int(D))) == pinned
    assert digest(pushforward_character(delta, d, r, int(D))) == pinned


@pytest.mark.parametrize("pin", sorted(ABOVE_STABLE_DIGESTS))
def test_characters_above_the_stable_degree_match_pinned_digests(pin):
    check_pin(pin, ABOVE_STABLE_DIGESTS[pin])


@pytest.mark.parametrize("pin", sorted(EDGE_DIGESTS))
def test_characters_at_the_room_edge_boxes_match_pinned_digests(pin):
    check_pin(pin, EDGE_DIGESTS[pin])

"""Bott's theorem pinned bit for bit: `bwb_cohomology` on every small
diagram, `euler_characteristic` on every small weight, and the `bwb`
subcommand's exit codes and stdout.

The digests are sha256 of the compact JSON of each table
(`oracles.digest`).  They were recorded before `classify` returned plain
pairs, so any change to the classifier that moves a degree, a shape, a sign
or a byte of output fails here.
"""

from itertools import product

from oracles import digest, euler_characteristic, euler_characteristic_bruteforce, run_cli

from grwin.bott import bwb_cohomology
from grwin.partitions import partitions_in_box

BWB_COHOMOLOGY = "e830112d2a9c8199b6896452ddbaa9427a76ea6b8f21c9584b128d0c243bbd25"
EULER_CHARACTERISTIC = "2ebaaa5bb02f359b48fb146b95433e87c32f6c43be675cb4bc3358b67bf90d40"
CLI_BWB = "428325f71969f68a8c598f6f7aae35865e94d38af254b5b583c0b0a3c7486205"


def test_bwb_cohomology_matches_pinned_digest():
    table = [[list(delta), i, r, bwb_cohomology(delta, i, r)]
             for r in range(1, 7) for delta in partitions_in_box(4, r - 1)
             for i in range(11)]
    assert len(table) == 2772
    assert digest(table) == BWB_COHOMOLOGY


def test_euler_characteristic_matches_pinned_digest_and_bruteforce():
    weights = [alpha for n in range(5) for alpha in product(range(-3, 4), repeat=n)]
    assert len(weights) == 2801
    values = [euler_characteristic(alpha) for alpha in weights]
    assert digest(values) == EULER_CHARACTERISTIC
    for alpha, value in zip(weights, values):
        assert value == euler_characteristic_bruteforce(alpha), alpha


def test_bwb_subcommand_matches_pinned_digest():
    argvs = [["bwb", ",".join(map(str, delta)), str(i), str(r)]
             for r in range(1, 5) for delta in partitions_in_box(3, r - 1) for i in range(6)]
    argvs = [argv + ["--json"] * (n % 2) for n, argv in enumerate(argvs)]
    table = [[argv, *run_cli(argv)[:2]] for argv in argvs]
    assert len(table) == 210 and {code for _, code, _ in table} == {0}
    assert digest(table) == CLI_BWB
    for argv in (["bwb", "1,1,1", "0", "3"], ["bwb", "", "0", "0"], ["bwb", "1", "-1", "3"]):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and "Traceback" not in err, argv

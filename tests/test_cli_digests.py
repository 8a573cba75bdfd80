"""Every subcommand's exit code and stdout pinned bit for bit, with each of
the 8 combinations of the shared flags (`--json`, `--pretty`,
`--expand-multiplicities`), over valid and invalid argvs with d <= 5.

The digests are sha256 of the compact JSON of each table of
[argv, exit code, stdout] (`oracles.digest`).  They were recorded before
the subcommands returned their output to `main`, so a change to the
printers that moves a byte of output fails here.
"""

from itertools import product

import pytest

from oracles import digest, run_cli

DIGESTS = {
    "windows": "836771289df5a089f2b1650f728db2a5f67d41830e15a8dcc1520bd1195994ce",
    "staircase": "e99f9df8aed1e4ea508794900f5807a6a2f4686e789c584910ec87620b301551",
    "resolve": "0408c2f413746cb8a1022f2390d69b40505b406a223b103816588d393d2d9f92",
    "resolve-expand": "beb7c3dcf132b7e98d2a2e39331915e6bc3b4570bc2d6e14af4a51b5813490f1",
    "twist": "089d122e20435d2e150d5954a079c4b843c2a741002804def9c3e9f2705416fe",
    "cotwist": "a357e16be61df5cb20d95d6129ee8ddfcc05b2ac1a40fd49fcaed67192917548",
    "bwb": "187e2bbf728ce437aa7fe18fc1d88ba1f14b57351b5d0956fac22df3014fdf21",
    "kmatrix": "e60c84d55956f29d6920f12968db95d2bbd500576c0ce12bcd6aecc57b33e92b",
    "verify-exactness": "f150bbc9d45dc2733f2456b264d440e40635d81ba397857aeb1392f2946d3839",
    "invalid": "d2f3bd9c7112b3b85c625f77f6bbfc5061a3c460357db4c3caa1b42d054776f8",
}
SHARED = ("--json", "--pretty", "--expand-multiplicities")
FLAG_SETS = [[flag for flag, on in zip(SHARED, mask) if on]
             for mask in product((False, True), repeat=3)]


def valid_argvs():
    """Pin name -> argvs that exit 0, before the shared flags."""
    return {
        "windows": [["windows", *map(str, dkr)]
                    for dkr in ((2, 1, -1), (3, 2, 0), (4, 2, 0), (4, 2, 1), (5, 2, 0), (5, 3, -1))],
        "staircase": [["staircase", delta, r, K]
                      for delta, r, K in (("", "2", "3"), ("1", "2", "3"), ("2,1", "3", "2"),
                                          ("3", "2", "4"))],
        "resolve": [["resolve", delta, "--d", d, "--r", r]
                    for delta, d, r in (("", "3", "2"), ("1", "4", "2"), ("3", "4", "2"),
                                        ("2,1", "5", "3"))]
                   + [["resolve", delta, "--d", d, "--r", r, "--twisted"]
                      for delta, d, r in (("1", "2", "1"), ("2,1", "4", "2"), ("2,2", "4", "2"))],
        "twist": [["twist", delta, "--d", d, "--r", r]
                  for delta, d, r in (("", "2", "1"), ("1", "2", "1"), ("1", "4", "2"),
                                      ("2,1", "4", "2"), ("2,2,1", "5", "3"))],
        "cotwist": [["cotwist", delta, "--d", d, "--n", n]
                    for delta, d, n in (("", "2", "1"), ("1", "2", "1"), ("1", "4", "2"),
                                        ("2,1", "4", "2"), ("2,2,1", "5", "3"))],
        "bwb": [["bwb", delta, i, r]
                for delta, i, r in (("", "0", "2"), ("1", "0", "2"), ("1", "2", "2"),
                                    ("2,1", "1", "3"), ("3,1", "4", "3"))],
        "kmatrix": [["kmatrix", "--which", which, "--d", d, "--r", r]
                    for which in ("twist", "cotwist", "identity")
                    for d, r in (("3", "1"), ("4", "2"))],
        "verify-exactness": [["verify-exactness", "--d", d, "--r", r, "--delta", delta,
                              "--degree", degree] + report
                             for d, r, delta, degree in (("3", "2", "1", "4"),
                                                         ("4", "2", "2", "6"),
                                                         ("4", "3", "1,1", "3"))
                             for report in ([], ["--report", "json"])],
    }


def invalid_argvs():
    """Argvs that exit 2, before the shared flags."""
    return [
        ["twist", "1,x", "--d", "4", "--r", "2"],            # malformed
        ["twist", "1,2", "--d", "4", "--r", "2"],            # increasing rows
        ["staircase", "-1", "2", "4"],                       # negative row
        ["twist", "4", "--d", "4", "--r", "2"],              # outside the box
        ["cotwist", "", "--d", "4", "--n", "4"],             # n >= d
        ["resolve", "", "--d", "4", "--r", "2", "--twisted"],  # not full width
        ["windows", "4", "4", "0"],                          # r >= d
        ["windows", "4", "x", "0"],                          # not an int
        ["bwb", "1,1,1", "2", "2"],                          # too tall
        ["resolve", "", "--d", "4"],                         # missing --r
        ["kmatrix", "--which", "shift", "--d", "4", "--r", "1"],  # bad choice
        ["kmatrix", "--which", "twist", "--d", "5", "--r", "2",
         "--max-basis", "9"],                                # refused size
        ["verify-exactness", "--d", "4", "--r", "2", "--delta", "1",
         "--degree", "-1"],                                  # negative degree
        ["verify-exactness", "--d", "4", "--r", "2", "--delta", "1",
         "--report", "text"],                                # bad choice
        ["frobnicate", "4"],                                 # no such command
    ]


def tables():
    """Pin name -> every argv it covers, with each shared-flag set."""
    out = {name: [argv + flags for argv in argvs for flags in FLAG_SETS]
           for name, argvs in dict(valid_argvs(), invalid=invalid_argvs()).items()}
    # plain resolve reads --expand-multiplicities only with --twisted (the
    # FOUND line on `cli.cmd_resolve` in CHANGES.md); those entries are
    # pinned apart, so mending it re-records "resolve-expand" alone
    out["resolve-expand"] = [argv for argv in out["resolve"] if "--twisted" not in argv
                             and "--expand-multiplicities" in argv]
    out["resolve"] = [argv for argv in out["resolve"] if argv not in out["resolve-expand"]]
    return out


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_subcommand_output_matches_pinned_digest(name):
    table = [[argv, *run_cli(argv)[:2]] for argv in tables()[name]]
    assert {code for _, code, _ in table} == {2 if name == "invalid" else 0}
    assert digest(table) == DIGESTS[name]


@pytest.mark.parametrize("command", ["bwb", "cotwist", "kmatrix", "resolve", "staircase",
                                     "twist", "verify-exactness", "windows"])
def test_subcommand_help_names_the_shared_flags(command):
    code, out, err = run_cli([command, "-h"])
    assert (code, err) == (0, "")
    for flag in SHARED:
        assert flag in out, flag

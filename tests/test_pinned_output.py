"""Pinned CLI output: the SHA-256 of stdout and the exit code of a few
commands, taken before a refactor that must keep the output byte for byte.

A change that alters any of these outputs on purpose (a new envelope key,
a version bump) updates the hashes here and says why."""

import hashlib

import pytest

from sturmion import cli

COUNT_14 = ("x^14-7x^13+85/4x^12-37x^11+93/4x^10+32x^9-86x^8+126x^7"
            "-235/2x^6+41x^5+33/4x^4-25x^3+117/4x^2-2x-15/2")

PINNED = [
    (["verify", "--nmax", "4"], 0,
     "5d3bb700ff256c0802ca82909f0e7d6eacdcc2dfde89769b1a6d05ada983c113"),
    (["verify", "--nmax", "3", "--q", "1/3", "--q", "2/3"], 0,
     "9040ebd75db6b2cf056d6d598420124cd26e8bb7d620c07b0d352dadd6459e2a"),
    (["chain", "--grid", "trig1", "--n", "12"], 0,
     "e88d7a2041e67f43eceb64a75d359252e0043bf1f73ef9e1a70774a588aa1370"),
    (["--precision", "512", "chain", "--grid", "trig2", "--n", "20"], 0,
     "a739a572ab6fb18f5a0a8b7fe9e81bf2f37d32145db8c3531d7c3acbb2951e77"),
    (["chain", "--grid", "exp:q=2/3", "--n", "12"], 0,
     "46a17b577e096c7fd2dec9e0dbca79821f94e9987fbfee2af3b6a46d6d14ce77"),
    (["chain", "--grid", "quad:tau=2", "--n", "20"], 0,
     "b5f1608a9ef2ca87bb4f211ff686c3d72b4e4d433eea4e8c790e9a4068b8a703"),
    (["--format", "csv", "chain", "--grid", "trig1", "--n", "2"], 0,
     "12531365c80210ee45f6db38651d09a6d77152f5240d47a3eefefc5a43d2999d"),
    (["chain", "--grid", "linear", "--n", "150"], 0,
     "750ecbca68d44dc7b654fafa119957b199b3832ba5838c6fa6f76dbb0771c0ee"),
    (["chain", "--grid", "quad:tau=1", "--n", "62"], 0,
     "f8b5a0c173ad64b3c74340a9c6d41975862a52abbea850627730be4f514ff817"),
    (["chain", "--grid", "exp:q=1/2", "--n", "40"], 0,
     "807fe86e112a9aa0e35f2888d1e26f117bbc18c6d3b7a09615413875dc30cc85"),
    # the largest trig ops of the chain-trig workload, and a rational node
    # with q != 1
    (["chain", "--grid", "trig1", "--n", "30"], 0,
     "35af523a6d6fd19183b95ebb3aa44331c6fb3392c53ad16c4f466eb38491a93d"),
    (["--precision", "512", "chain", "--grid", "trig2", "--n", "29"], 0,
     "d83bbd0a274ba3f0138de59f01295bb81bd71b4164743a94f00d52cd98b4abc6"),
    (["chain", "--grid", "exp:q=3/4", "--n", "48"], 0,
     "080ea36301a0b92086d51ab9f5b922740fb81a7b1667721935cbcba585013fb6"),
    # a repeated root, a negative leading coefficient, a fractional one
    (["count", "--poly", "x^3-2x^2+x", "--lo", "-1", "--hi", "2"], 0,
     "afbb7f0909c630478f39d50c2a302489548bd3f2545d92b0903852041a0ecd37"),
    (["count", "--poly=-x^2+1", "--lo", "-2", "--hi", "2"], 0,
     "ebc7513e1ddecc348b35f9ba2cea35ff65efd6ebfc903e4c563b7b2fd04e3930"),
    (["count", "--poly", "3/2x^5-2x^3+1/2x", "--lo=-3/2", "--hi", "1"], 0,
     "f4ec28cb91eb44c446b2a4aabedddd56172777ed052e4887b8ea1e7b54d2c96f"),
    # the reference verify run with two q values, and verify at the lowest
    # precision the trig checks pass at
    (["verify", "--nmax", "7", "--q", "1/2", "--q", "2/3"], 0,
     "859a7f9367794d8979af286e3b2cfe71db10341cdbb3b4a62ecf9881fc83056c"),
    (["--precision", "128", "verify", "--nmax", "4"], 0,
     "45a68d1969a4bc67d7027f1f727a9c74d7744ee48252aa92824e4e1e8bb4eea0"),
    # a half-integer tau, whose chain vectors carry large contents, and the
    # Askey-Wilson and bi-lattice grids
    (["chain", "--grid", "quad:tau=3/2", "--n", "40"], 0,
     "7e1e4284fdc84627bdc4ec5a758b028e8d071a0c48569f580476b18f3dd93c69"),
    (["chain", "--grid", "aw:q=1/2,c1=1,c2=1,c0=0", "--n", "20"], 0,
     "88f1ecd2d1bde1e7556dc3e5d2e529951dfe8f6cad786db9b4c7d98e736b4645"),
    (["chain", "--grid", "bi:c1=4,c2=-3,c0=0", "--n", "6"], 0,
     "c2a10d709d312af2b114df3d292050ba2fbc1b19a2ffa5b46cb60496a0f51602"),
    # degree 14: (x-1)^3 (x+1/2)^2 (x-3) (x^2+1)^2 (x^2-2) (x^2-2x+5)
    (["count", "--poly", COUNT_14, "--lo=-2", "--hi", "2"], 0,
     "8466edc961b5f9ccf6643d10f53ef78bdf68fcb061b3bb3ca963d935feca04e3"),
    # verify past the nmax of the benchmark ops, where every check runs on
    # chains of a dozen and more entries
    (["verify", "--nmax", "12", "--q", "1/2", "--q", "2/3"], 0,
     "776de10c7de69525e763a592a6ba6805dcd10a3def71da6df0f442791a15f584"),
    (["verify", "--nmax", "16"], 0,
     "eed1331b58fb99a8c17acb7c861624ab925e1c3f9f4251e8b70dfaf8d729ccb5"),
]


@pytest.mark.parametrize("argv, code, digest", PINNED,
                         ids=[" ".join(argv) for argv, _, _ in PINNED])
def test_pinned_output(argv, code, digest, capsys, monkeypatch):
    monkeypatch.delenv("STURMION_PRECISION", raising=False)
    assert cli.main(argv) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest

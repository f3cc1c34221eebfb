"""CLI output pinned byte for byte: a sha256 of stdout and stderr per command.

Each command runs in-process through ``lmg.cli.main``.  The digests were
recorded from the CLI's output when it was last checked by hand; a change
that alters the output of one of these commands on purpose updates its
digests here and says which commands moved and why.
"""

import hashlib
import shlex

import pytest

from lmg.cli import main

EMPTY = hashlib.sha256(b"").hexdigest()

# (arguments, exit code, sha256 of stdout, sha256 of stderr)
PINNED = [
    ("spectrum --n 7 --v 0.75 --w 0.5", 0,
     "2aeec05e69941a684e0d639cacdf7da388307aabed0b561098fe32c45e49780c",
     EMPTY),
    ("spectrum --n 7 --v 0.75 --w 0.5 --format csv", 0,
     "1cfb0658ae913576211a943b1f9a6c0f6ab54f318229efb3db883703ea070dde",
     EMPTY),
    ("spectrum --n 4 --v 1 --w 1", 0,
     "d37b33866f9bf966c12d60291ede98f216faf9121527f447a0e9b73017135046",
     EMPTY),
    ("spectrum --n 4 --v 0 --w 0.5", 0,
     "e0187d06d2390e2fe0b01f8533d06d52271d32f73c6bd41d4abafeaf5f74e695",
     EMPTY),
    ("spectrum --n 12 --v 0.2 --w 1.5", 0,
     "e595e23d42bc0e5b216e6b72cf65efe235a0e13b020c711f944eedbe7ddd29cb",
     EMPTY),
    ("spectrum --n 10 --v 0.5921 --w -1.6233 --format csv", 0,
     "fb213a71cd280ed455f2a8363f3774ce35309a3b7a418951e8388034b06f01fa",
     EMPTY),
    ("benchmark --n 7 --v 0.75 --w 0.5 --shots 0 1000", 0,
     "26decf2468d4b365119f99f0b8cd14e09d2475f654c04b4bcfe17d411e475179",
     EMPTY),
    ("benchmark --n 4 --v 1 --w 1", 0,
     "afe601b630a058295729f10512108838cc162992c2220660eeb89391aa07b745",
     EMPTY),
    ("benchmark --n 4 --v 0 --w 0.5", 0,
     "cb8fae310721d1cec5e214f8c77ca65faccc7b97a83d3f09f72605134753cba7",
     EMPTY),
    ("benchmark --n 10 --v 0.5921 --w -1.6233", 0,
     "49393306db9d678870dba351984b37051b7db5cb02405ba82abcbff06217938d",
     EMPTY),
    ("bethe --n 7 --v 0.75 --w 0.5 --sector 1,0", 0,
     "2475ef59b0a2de3236d6130c228cdae95a11e116521a026994961c9ea98604bf",
     EMPTY),
    ("bethe --n 12 --v 0.2 --w 1.5 --sector 0,0", 0,
     "2c06c3e81d099a5c4602776c9abb51fb8bf13748606c47e998f598b61ea181e3",
     EMPTY),
    ("bethe --n 4 --v 1 --w 1 --sector 0,0", 1,
     EMPTY,
     "7697ad40269d1219b624f53f0a94290242b815e94b3e708a0df2bb16c229347a"),
    ("vqe --n 8 --v 0.8 --w 0.25", 0,
     "491ab797240e851ac1f51c0cb653c794537d319da6fd391a23a1e96c9c66a096",
     EMPTY),
    ("vqe --n 1 --v 0.8 --w 0.25", 0,
     "061de1bd2f05611e2722f594af2132e669c6a32c431eab8625e0f6b89bf5a2fb",
     EMPTY),
    ("vqe --n 8 --v 0.8 --w 0.25 --shots 1000 --seed 7 --restarts 2", 0,
     "7eac92122a57a75815fa27a7f5e73ddfe3f803e46e6a171270b7b288149a1df2",
     EMPTY),
    ("vqe --n 8 --v 0.8 --w 0.25 --warm --restarts 1 --depth log", 0,
     "7aafd8f9016a2f9c37a38bd93ac78d61c8d31d70c6f7f37ebcf40617159b4549",
     EMPTY),
    ("vqe --n 8 --v 0.8 --w 0.25 --shots 1000 --warm --restarts 1", 0,
     "accaae211883a37c9cfe02390bfda8539d970b3b208685e001a682aff649da4b",
     EMPTY),
    ("vqe --n 20 --v 0.75 --w 0.5 --shots 10000 --seed 0 --restarts 3", 0,
     "f0df7135badbb2a9e1b8a7150c3d23c10574f7637ff9305617ab5443945fcff3",
     EMPTY),
    ("vqe --n 8 --v 40 --w 0.25 --shots 1000 --seed 3 --restarts 2 --depth log", 0,
     "98e5ef33029a2572a328c17220ec9f1472f5626cc090b9f7af88f61f9c65d629",
     EMPTY),
    ("vqe --n 9 --v 1e6 --w 0.5 --shots 1 --seed 5 --restarts 1", 0,
     "c3b0064a0133e65745759da13a4cb80e2a400ca0710cb38ac58916b082764e9f",
     EMPTY),
    ("vqe --n 40 --v 0.75 --w 0.5 --shots 100000 --seed 11 --restarts 2 --depth log", 0,
     "0941f1aec5304648a6e826b19c72f257a0a1244d4353c3cafa5bc3e1eea26b3f",
     EMPTY),
    ("bethe --n 22 --v 0.75 --w 0.5 --sector 0,0 --format csv", 0,
     "a0ed97edda64700bfd0980fb5d9cad2c2c79d4642475fd1df664f939d1aa729d",
     EMPTY),
    ("bethe --n 64 --v 0.75 --w 0.5 --sector 0,0", 0,
     "b6a396ff2e4b077b9a95eb134f0d40a91f0bdff048f6afdf1d4770fd68a44ba2",
     EMPTY),
    ("state --n 9 --v 0.75 --w 0.5 --index 4 --format csv", 0,
     "462c55e0885c2d5d5c31e1aad3dcb410b9c4e93f2233ed691c6d82c6731189f6",
     EMPTY),
    ("angles --n 7 --v 0.75 --w 0.5 --index 2 --depth log", 0,
     "b5eb0932ce401da79f5705fcfaf0b8c341e3ddfb6b804bb2dc188db7cfeebcfe",
     EMPTY),
    ("angles --n 200 --v 0.75 --w 0.5 --index 3 --format csv", 0,
     "77ac2507e918d244d2ecc04fb89fea1677495f173c33429656de8eeba2405caf",
     EMPTY),
    ("angles --n 200 --v 0.75 --w 0.5 --index 3 --depth log --format csv", 0,
     "1e7c5b8e909eb062cecf3d4d6b6f291f99cfa57595b2cb2531f20a6111fa29e5",
     EMPTY),
    ("circuit --n 7 --v 0.75 --w 0.5 --index 1 --depth log --format qasm", 0,
     "850e318097d19ccaa1bad680230349ac5e85b3876e1d43386d0a51eb14ff881c",
     EMPTY),
    ("spectrum --n 3 --v 1e308 --w 9e307", 0,
     "823aea4519c4e4a5117df3af77a0ec14e0c56942c430ed6e9ca68d7fb1a6c278",
     EMPTY),
    ("bethe --n 1 --v 1e308 --w 9e307 --sector 1,0", 0,
     "598d888e7296d8dbf90728acc3ba75a401c0f624dcdb23782202de7b6e602171",
     EMPTY),
    ("bethe --n 6 --v 0 --w 0.5 --sector 0,0", 1,
     EMPTY,
     "d37363552c564f0e6511c20e06e0291ae17d4b896558f34bf57c5aa3a73d6111"),
    ("bethe --n 56 --v 0.75 --w 0.5 --sector 0,0", 0,
     "3877e569f0b49514233ae39a85324ef5d6d414142ffaedf67549ec384993a91f",
     EMPTY),
    ("spectrum --n 24 --v 0.2 --w 1.5", 0,
     "17a4822e8fad5d9414b0b237b38c6e783e50b54e2afbca5de3400fc53a1a85d8",
     EMPTY),
]


@pytest.mark.parametrize(
    "argv, code, out_digest, err_digest", PINNED, ids=[row[0] for row in PINNED]
)
def test_cli_output_is_byte_identical(argv, code, out_digest, err_digest, capsys):
    assert main(shlex.split(argv)) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == out_digest, captured.out
    assert hashlib.sha256(captured.err.encode()).hexdigest() == err_digest, captured.err

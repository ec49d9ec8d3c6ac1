"""Golden outputs of the command line.

Each command below is pinned by the sha256 of its stdout and, for
``poset``, of the DOT and JSON files it writes.  A change to any byte of
these outputs fails here; re-pin only for an intended change of output.
The n = 8 and n = 9 commands are marked ``long`` (run with ``pytest -m long``).
``verify 5`` is pinned line by line in test_cli.py.
"""

import hashlib

import pytest

from geoposet.cli import main
from geoposet.geoequiv import ClassTable

FILES = ("h.dot", "h.json")

# command -> sha256 of stdout, or for poset (stdout, DOT file, JSON file)
GOLDEN = {
    "enumerate 1 --format table": "c390c0b2f2f870abf3e1cf390e934be6ceaaf05319e182a925cfc320744acbde",
    "enumerate 1 --format json": "5a8d579f05c69b5c1c0df2f3651e39c8f0c3d194e1618c2e68a9c5e2987cd515",
    "enumerate 1 --format csv": "71ff7dac554a06134df935d0cc2e587e3391eaf4fed6a7b860d38e1e43d44512",
    "enumerate 2 --format table": "7e4fad5cf8051f0b40cf987c66cb749f80a02bc1b25273bbeafd7ffe5e1e2ba3",
    "enumerate 2 --format json": "477548902d0a7fa77ab6b3521517b31944efcc19267e5fde9c5dcd8a642ba93d",
    "enumerate 2 --format csv": "a5169a27db1807224954f91833ab5ace88987bcc8eaee5da1223680223438df9",
    "enumerate 3 --format table": "6c08543c4201118a1a43ad988cd103a5dc596410e2e2bee780831bcf6081a3b4",
    "enumerate 3 --format json": "326e9db0872ac4d2617b0db34b4e39fac70acfafeb0ae041b9db24271e3ac440",
    "enumerate 3 --format csv": "d15266085540490cc54c94f113f2b560dcd712bf234f26d4aa45387d39dd4927",
    "enumerate 4 --format table": "7b278afd1154e1da502c6cb69c14e9a97135b8305f66687888e45109e28ec6e3",
    "enumerate 4 --format json": "a7ec7bb8d8727887f090f427d24af59c9068c2fe86f634aa09ee16b5a830ffad",
    "enumerate 4 --format csv": "4564581d23133cde1b221e5921efaea6ecd4c3089557a44bcfbaf9f83b14d250",
    "enumerate 5 --format table": "0467199cf55e6cd359a527501ea9a1531f39dbf9fc347ce93ba10bdb4fdfefbe",
    "enumerate 5 --format json": "2628fe56c16cf377967543654488a21a3ede78a47f96750bac060342934bb3bf",
    "enumerate 5 --format csv": "fd0c9ad88957202689b268a2a7a6a50876e9ef31a7217cb5c707dc5bdeb56826",
    "enumerate 6 --format table": "ad757e0a134a753c705da8f7563b645868864e607e1acbb7e9e5aade50ca2814",
    "enumerate 6 --format json": "027a73eb53cc8fbbb5df70f87eb002844ce42cbf4ede1c2af627b52f26aff34a",
    "enumerate 6 --format csv": "6f7e4b1086d848253d0570333e1f6ab937f401ed1dd5752eda67c501fd204410",
    "enumerate 7 --format table": "26fb3133803e5b200c818ac7f2b93260dac16f586b4473d08fbfc3b2e71ede3e",
    "enumerate 7 --format json": "9dfbb47e8d882294b25fa9e9a00929ff7fed9593008542a651e283d7c96e64d8",
    "enumerate 7 --format csv": "a88ad01a953ce6ff5ffb5fb71521bf3d3c8124cf112a1b8e9592537b247fb9bf",
    "enumerate 8 --format table --allow-long": "23d2f5039d9836fdd0fb383badb7f4f8c60bd06a17d65618abb36c61ca05294d",
    "enumerate 8 --format json --allow-long": "8809ae32286bb6e1b7425af2ef4760b55c0a01c0fd9532f527b4198aa373e951",
    "enumerate 8 --format csv --allow-long": "7eae2d6fa5eef21b9d8b5fcf5c5796942af5cdf21388d80b33d9c653b98d3312",
    "enumerate 9 --format table --allow-long": "1e69c2d9d615ab3ddde318a0483d243a52c92068fe83dbfa7375472b1e7886e3",
    "enumerate 9 --format json --allow-long": "495ae788ebb50a74082b96591b094e7b30754e075e86325727cdf2a0ac11b183",
    "enumerate 9 --format csv --allow-long": "cd75a981785efceff08a2ff33d587fbb24f2f94501c3fff231c34fec881989a5",
    "poset 5 --dot h.dot --json h.json": (
        "0abe13562edd0c32af1482a470b68fdd5abfe261ec72f43f2cc8b60603fffa4c",
        "4b0dff08a38d63b1a728b1f54360c9b7f2328daea4856bab7b540bc1b1b3ebd1",
        "5e3f342634575ca9e0aeb3ccf7160ac58f232159359c9d71187dd707222c1bde",
    ),
    "poset 6 --dot h.dot --json h.json": (
        "ef870e625a98b9adbe73bcb0400539726a02071421b562627f130c4ba9103bc1",
        "979db7a8743a02d698696d91103dd8f1eb92d83d7c2cd7aa3f9f92db18c20260",
        "41fd3d946302a4e702f19d9508ee020c0c6d77ae778af9732abd36f074b03657",
    ),
    "poset 7 --dot h.dot --json h.json": (
        "1f8ab6f41e82004093c931c69355f45d33633e23281cc5e922de333f9ab5c379",
        "905fb1de67fc93a64742f1c90513094f088ba76d8daae1a61afa385fb620ac2a",
        "b3eb9e95ec919282e09c718ef68f6e5986a36b4670f2d024a7d058d399107e23",
    ),
    "poset 8 --dot h.dot --json h.json --allow-long": (
        "7fc9ba85352551803f03c351eea2c548e3f8c6cdd7cf265cfdf126c7d31c8eb1",
        "8ca58efb90877ca2f7c9a68150389da9d7242082e24cd5b7e954e07cab357625",
        "58d7b74eab2861a8c7b7e4148d3a8d84cb3e1611f1166b4d11df531454de5573",
    ),
    "classify 1": "aa634df3053fb6656b3d09c8bd0bcbfed598f40e6abb260a77617b819eca3735",
    "classify 2413": "8c417d7f56329f8c991756d83a04c2396059d94a9d901211eedb0fc634ad9c56",
    "classify 35124": "ea7aeb9c93c915bd5b6c0c1c37eaaa2a483eadd3ef4cb4389b34cda36393c713",
    "classify 51284367": "516356dc33ab2055bf93c28dcd6f25e202d65e3db5659b1acd02120254f19c5b",
}


@pytest.fixture(autouse=True)
def isolated(tmp_path, monkeypatch):
    monkeypatch.setenv("GEOPOSET_CACHE_DIR", str(tmp_path / "cache"))
    # poset's stdout names the files it wrote, so write them under relative names.
    monkeypatch.chdir(tmp_path)


def _case(command):
    marks = [pytest.mark.long] if "--allow-long" in command else []
    return pytest.param(command, GOLDEN[command], id=command, marks=marks)


@pytest.mark.parametrize("command, pins", [_case(command) for command in GOLDEN])
def test_output_is_golden(capsys, tmp_path, command, pins):
    assert main(command.split()) == 0
    outputs = [capsys.readouterr().out.encode()]
    if command.startswith("poset"):
        outputs += [(tmp_path / name).read_bytes() for name in FILES]
    digests = tuple(hashlib.sha256(data).hexdigest() for data in outputs)
    assert digests == (pins if isinstance(pins, tuple) else (pins,))


def test_enumerate_json_is_written_without_the_json_object(capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("enumerate --format json built to_json_obj()")

    monkeypatch.setattr(ClassTable, "to_json_obj", refuse)
    assert main(["enumerate", "7", "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN["enumerate 7 --format json"]

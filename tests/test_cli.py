import ast
import csv
import hashlib
import inspect
import io
import json
import math
import sys
import types
from pathlib import Path

import pytest

from effcone.cli import main
from oracles import combined


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kodaira_full_json(capsys):
    code, out, _ = run(capsys, "kodaira", "--n", "7", "--space", "full",
                       "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["value"] == "2/7"
    assert data["verdict"] == "pass"


def test_kodaira_human_output(capsys):
    code, out, _ = run(capsys, "kodaira", "--n", "7")
    assert code == 0
    assert "value: 2/7" in out


def test_kodaira_spaces_agree(capsys):
    for n in (3, 5, 8, 13):
        _, full_out, _ = run(capsys, "kodaira", "--n", str(n),
                             "--space", "full", "--format", "json")
        _, fiber_out, _ = run(capsys, "kodaira", "--n", str(n),
                              "--space", "fiber", "--format", "json")
        assert json.loads(full_out)["value"] == json.loads(fiber_out)["value"]


def test_json_round_trips_byte_identical(capsys, tmp_path):
    series = tmp_path / "series.csv"
    series.write_text("B,N\n10,4\n20,8\n40,16\n")
    for argv in (("kodaira", "--n", "5"),
                 ("cone-cert", "--n", "4"),
                 ("pairings", "--n", "5"),
                 ("relation", "--n", "6"),
                 ("fiber-check", "--n", "4"),
                 ("disc", "--coeffs", "1,0,-1,-1"),
                 ("act", "--coeffs", "1,0,-1", "--matrix", "1,1,0,1"),
                 ("count", "--coeffs=1,0,-1,-1", "--bmax", "100", "--grid", "2"),
                 ("fit", "--in", str(series))):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True) == out.strip()
        assert json.loads(out)["command"] == argv[0]


def _printed_verdict(fmt, out):
    if fmt == "json":
        return json.loads(out)["verdict"]
    if fmt == "human":
        return next(line.removeprefix("verdict: ")
                    for line in out.splitlines() if line.startswith("verdict: "))
    return dict(csv.reader(io.StringIO(out)))["verdict"]


# each judged subcommand, and one input that, monkeypatched, makes it fail
# without an error
VERDICT_BREAKS = {
    ("cone-cert",): ("picard", "pairing_matrix",
                     lambda real: lambda n: [[1, 0], [1, 2]]),  # minima 0, -1
    ("kodaira", "--space", "full"): ("picard", "kodaira_full",
                                     lambda real: lambda n: real(n) / 2),
    ("kodaira", "--space", "fiber"): ("fiber", "kodaira_fiber",
                                      lambda real: lambda n: real(n) / 2),
    ("fiber-check",): ("fiber", "pair_R", lambda real: lambda *a: real(*a) + 1),
}


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
@pytest.mark.parametrize("command", sorted(VERDICT_BREAKS))
def test_printed_verdict_sets_the_exit_code(capsys, monkeypatch, command, fmt):
    from effcone import fiber, picard

    argv = (*command, "--n", "3", "--format", fmt)
    code, out, err = run(capsys, *argv)
    assert (code, err, _printed_verdict(fmt, out)) == (0, "", "pass")
    module, name, broken = VERDICT_BREAKS[command]
    module = {"fiber": fiber, "picard": picard}[module]
    monkeypatch.setattr(module, name, broken(getattr(module, name)))
    code, out, err = run(capsys, *argv)
    assert (code, err, _printed_verdict(fmt, out)) == (1, "", "fail")


def test_csv_list_cells_read_back(capsys):
    for argv in (("disc", "--coeffs=1,0,-1,-1"),
                 ("act", "--coeffs=1,0,-1,-1", "--matrix", "1,1,0,1")):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert (code, err) == (0, "")
        rows = list(csv.reader(io.StringIO(out)))
        assert all(len(row) == 2 for row in rows)
        _, json_out, _ = run(capsys, *argv, "--format", "json")
        expected = json.loads(json_out)
        for key, cell in rows:
            if isinstance(expected[key], list):
                assert json.loads(cell) == expected[key]
    assert rows == [["coeffs", "[1, 0, -1, -1]"], ["command", "act"],
                    ["matrix", "[1, 1, 0, 1]"], ["result", "[1, 3, 2, -1]"]]


def _digit_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def _read_long_ints(text):
    """json.loads with the int-to-str digit limit lifted."""
    limit = _digit_limit()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("fmt", ["human", "json", "csv"])
def test_results_past_the_digit_limit_print_in_full(capsys, fmt):
    # a 4,413-digit discriminant and a 4,500-digit image coefficient print
    # whole and exit 0; inputs stay within the limit
    from effcone import forms

    before = _digit_limit()
    coeffs = [10 ** 200 + i * i for i in range(13)]
    code, out, err = run(capsys, "disc", "--coeffs=" + ",".join(map(str, coeffs)),
                         "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        printed = _read_long_ints(out)["disc"]
    else:  # the last line is "disc: D" or "disc,D"
        printed = _read_long_ints(out.splitlines()[-1][5:])
    assert printed == forms.disc(tuple(coeffs))
    assert 10 ** 4412 <= abs(printed) < 10 ** 4413
    code, out, err = run(capsys, "act", "--coeffs=" + ",".join(["1"] * 101),
                         "--matrix", f"1,{10 ** 45},0,1", "--format", fmt)
    assert (code, err) == (0, "")
    if fmt == "json":
        assert _read_long_ints(out)["result"] == list(
            forms.substitute((1,) * 101, 1, 10 ** 45, 0, 1))
    assert _digit_limit() == before


def test_input_past_the_digit_limit_exits_two(capsys):
    before = _digit_limit()
    if before is None:
        pytest.skip("this interpreter has no int-to-str digit limit")
    code, out, err = run(capsys, "disc", "--coeffs=1,0,-1," + "9" * (before + 100))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert _digit_limit() == before


def test_cone_cert_passes(capsys):
    code, out, _ = run(capsys, "cone-cert", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["certificate"]["minima"] == {"B[2]": "1/4", "B[3]": "1/2"}


# sha256 of `cone-cert --n N --format json` stdout, recorded before the
# phase-one rewrite that froze the free pivot rows (n = 200: before bounded
# rows deferred their pivots): the certificates must stay byte for byte the
# same
CONE_CERT_JSON_SHA256 = {
    3: "b2b7c2e36c75e26764a9ec57a0158a5fa7d778ddd25203087af8deaa76041e2e",
    4: "93afc5fc73bc232df07ab3c14eaa1d67a48c14dfa390f78f921e93571046f58e",
    5: "98ccedc6730f7cf73a9cb154321996ed5be934ea4d1ad972c20e501bd00a5a28",
    10: "473ffd98c138183b566c6431b99a7d903c84edcd2ea9c292c8b498d2250cd003",
    32: "e1f698275230b7bee4d03d756bc411f671682edd875b49d2ce5b2442c9a00624",
    64: "c6ba3b126f3df55a9e5dd985c131d2c262d380320d4aa30274b175f2d5c0c1e7",
    100: "330d4850353bef1f658e9650d6cc696548d2c34fb68f76cbc4dee16a5b22f72f",
    200: "559473eb7b70624ad1989a3e3fef971fef30c646741721f0c65c49d532246624",
}


@pytest.mark.parametrize("n", sorted(CONE_CERT_JSON_SHA256))
def test_cone_cert_json_bytes_are_pinned(capsys, n):
    code, out, err = run(capsys, "cone-cert", "--n", str(n), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONE_CERT_JSON_SHA256[n]


# sha256 of `cone-cert --n N --format F` stdout for the other two formats,
# recorded before certificates were carried as integer blocks: every format
# is rebuilt from the certificate, so all three must stay byte for byte the same
CONE_CERT_TEXT_SHA256 = {
    (3, "human"): "61d8d4f014be7a58480395dcad13b3958b03b60978da891a9879e79674d36bc2",
    (3, "csv"): "85318031e2206894b503a22c44ec08f9e2bc055b549b681969ed9e6b7b29417b",
    (5, "human"): "479be69f842d08d9f8ca1c24c98eb64bf2f70007297edd3bd849defd1700a4b6",
    (5, "csv"): "08ab2066a78bc5b9268752b10428d7562b0badb3b31d6da4fe90b517cbf7f7a3",
    (32, "human"): "08ee351ab9dce5b263010f12aa8ccc80be8e1b3ab0c21d064b27965c02162c37",
    (32, "csv"): "2c12d33f95aac864269863aa0b47537cca43044eb7d1e1e68b42da1bd739a11a",
    (100, "human"): "726bd5ad57be3f9e93a32db2bfe0927bc66844e2005bd783a2ed1a824d69f2d5",
    (100, "csv"): "9d053d5740b60001e54736e8639ec1dc06e2742ef28d79808a6ba053b8a32121",
}


@pytest.mark.parametrize("n, fmt", sorted(CONE_CERT_TEXT_SHA256))
def test_cone_cert_text_bytes_are_pinned(capsys, n, fmt):
    code, out, err = run(capsys, "cone-cert", "--n", str(n), "--format", fmt)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONE_CERT_TEXT_SHA256[n, fmt]


# sha256 of the stdout of `fiber-check --n N` and `kodaira --n N --space S`
# in each format, recorded before the class arithmetic moved from Fraction
# to int, and of `relation --n N`, recorded while its trace still
# recomputed the counts that the relation checks: the outputs must stay
# byte for byte the same.  The fiber-check csv digests were recorded again
# when its csv gained a closing verdict row (see
# test_fiber_check_csv_ends_with_its_verdict).  The `pairings --n N`
# digests were recorded while a curve-class object still wrote each row
# label and a divisor-class object the relation text.
CLASS_OUTPUT_SHA256 = {
    ("fiber-check", 3, "human"):
        "44f413f9fb3841cb37cfa40400fcdfd8768b361efbc9f7dfa0de785e145a76f1",
    ("fiber-check", 3, "json"):
        "463194ca5f46947fe804caf9537f0a5c34d6fc70854692ebcca8aeae74ff04b4",
    ("fiber-check", 3, "csv"):
        "2734c410a5c56911a52b21a4c5ae72d2318f8f7edb96989c9543ed77f70eba63",
    ("fiber-check", 4, "human"):
        "6c940c3529f50107b9211da2183ba2b90cecd2acfbd63a99856966cd0bb45d73",
    ("fiber-check", 4, "json"):
        "1277a03bdaf094edac5568b497be238b1f642bc97b26692fda67b2d9bec81b2f",
    ("fiber-check", 4, "csv"):
        "322f8cc7b28a0c73c76fc202baed3e8dae641498f8bcce3eb2a8ba36591a1c2a",
    ("fiber-check", 5, "human"):
        "6a42905c361522bbc7d908c0e77ca4cb23a5f9be1595c4c5d96142fbd1a47d77",
    ("fiber-check", 5, "json"):
        "546cfab1c7eb39400fef24ac3841c1eae1b94e59c07db4a792a8c557b31934fe",
    ("fiber-check", 5, "csv"):
        "322f8cc7b28a0c73c76fc202baed3e8dae641498f8bcce3eb2a8ba36591a1c2a",
    ("fiber-check", 10, "human"):
        "e725938a9b1e83bd538cbb273f3ca583b8c482e5628aed1f060af94316c7e4ed",
    ("fiber-check", 10, "json"):
        "3e276fb115b7ef8ff1200aee56c4c7ac58c17890f34a292ca7f2ef99442babc9",
    ("fiber-check", 10, "csv"):
        "322f8cc7b28a0c73c76fc202baed3e8dae641498f8bcce3eb2a8ba36591a1c2a",
    ("fiber-check", 32, "human"):
        "267ef561770aacbcc076bea1b33a3938a2340153055cc9345a6977037f7bf8a4",
    ("fiber-check", 32, "json"):
        "cf75270d432aa1286bddf4d8c2d96f30678801f5c60fde86f88fb27b840267ae",
    ("fiber-check", 32, "csv"):
        "322f8cc7b28a0c73c76fc202baed3e8dae641498f8bcce3eb2a8ba36591a1c2a",
    ("fiber-check", 100, "human"):
        "1dab311f5487f19e71359afa19e886552a226a7d23afe779069be0766d8c5d69",
    ("fiber-check", 100, "json"):
        "14630066fbfa9c879be7255bd61a27b81f07ac900ec198fdc546cdb92e5e0538",
    ("fiber-check", 100, "csv"):
        "322f8cc7b28a0c73c76fc202baed3e8dae641498f8bcce3eb2a8ba36591a1c2a",
    ("fiber-check", 1000, "human"):
        "03d3712484bd37b7eca4024183a65c04cb58e5f6e3346d123fc2c6bf2c274da2",
    ("fiber-check", 1000, "json"):
        "166f6487335a794f3ccfb7ebe9f0a9a8c5a9e6728745467b46a00d6607f84f83",
    ("fiber-check", 1000, "csv"):
        "322f8cc7b28a0c73c76fc202baed3e8dae641498f8bcce3eb2a8ba36591a1c2a",
    ("kodaira --space full", 3, "human"):
        "1c2a671b21e49f42421fb23585bae069a0bec11d79470b6de24030368512802f",
    ("kodaira --space full", 3, "json"):
        "d2ad61a011d43b1a26e565bea432ec8b6a91beeda2459df01c4253175fbab655",
    ("kodaira --space full", 3, "csv"):
        "c73050717360e5643c07cc51717e498398b8f2fa8e75327542b346717c50e6a2",
    ("kodaira --space full", 4, "human"):
        "7e338cd38c1d8a479f88ae21bc6e66873815e99129eca5d1f105e7e399bdb7ca",
    ("kodaira --space full", 4, "json"):
        "b7cbe94de9d6523ac15acd8a5e77d201503cf30e590fb238847cd6c6da6933d5",
    ("kodaira --space full", 4, "csv"):
        "6a08fcf637d06393f72895618ebc3e6e8fb264038bb429aa573553fcc742b30e",
    ("kodaira --space full", 5, "human"):
        "6c21596eb65a5d0fd2d8e50bdfdea7483853b9e81c4ce5fe24bac369badc5824",
    ("kodaira --space full", 5, "json"):
        "ca015c303758999a530eb84e57e1bbb91163228113b194f7951309f80472bb71",
    ("kodaira --space full", 5, "csv"):
        "753359ef9604beb8fcc8dcad639b4f329afece2eb22dd1d7773c54c06efc7ca9",
    ("kodaira --space full", 10, "human"):
        "0757580dee582bf58468de69d9ce937592ef01c6a6bf687c572dd26ee87b75c5",
    ("kodaira --space full", 10, "json"):
        "3db5598cfbd37baffe6690f009cb691af17f061239cf15a1f63bc0e820cb0e71",
    ("kodaira --space full", 10, "csv"):
        "8b0b643ca129600d980077973ea723f1eec615b0d530f22be489e2108ce94787",
    ("kodaira --space full", 32, "human"):
        "7d83295d90f68692a53bc1ce0c80884399c3ade02bd34bbe155317acbc1de6e4",
    ("kodaira --space full", 32, "json"):
        "802e4020be92843dcb74e8c0f36e5cd02874d52074e3ad64470bec8a95908da6",
    ("kodaira --space full", 32, "csv"):
        "73a2b8b27420473bfd5e9dc1ea524babdbde4ae6b70e6b05b46f35b4d00e06f8",
    ("kodaira --space full", 100, "human"):
        "8a54d2134dbecd9bbda57bd21a41e756f7dfd3e1353a429f1028400f72cb3208",
    ("kodaira --space full", 100, "json"):
        "c25a382d5ae2a9a46e74425b6af58539ffac20b079bee644afea2931d366bde3",
    ("kodaira --space full", 100, "csv"):
        "6275a5db4e91116c32bef3c9591e6742cf7d7738cc937fb96498bda06e8b5f33",
    ("kodaira --space full", 1000, "human"):
        "fbc59d6535bbb86084423e3b425e3cd88bc1cf5315b8a8e09fca938c51358da0",
    ("kodaira --space full", 1000, "json"):
        "49c2a25f5b28a606aa2b0b472cdd6f2d74381203c8a195b14c07d1a208f22d91",
    ("kodaira --space full", 1000, "csv"):
        "11a1de88b34486beebc5be0900203330df59f8635ec91952deac1ffeecb68855",
    ("kodaira --space fiber", 3, "human"):
        "8fe2f7cae34d7121b53044d49684645da0a5563dcba011df8829f011a2f00e97",
    ("kodaira --space fiber", 3, "json"):
        "57ee783c12dd2d06cb7f21fc1cd4efee0517229169d6461bc28f509b7e4291b5",
    ("kodaira --space fiber", 3, "csv"):
        "07185626608e15399f504ce215f29544da693f53a81e26d1860ab0a96611e8df",
    ("kodaira --space fiber", 4, "human"):
        "48e593828475635c59b9986e6e3a105598e1936857e7cd57509f4cd6d616bf49",
    ("kodaira --space fiber", 4, "json"):
        "ec7bc6531cebe140e13d11cc51b96218dc7f93f912186eb2a9a5bad0fc4462a7",
    ("kodaira --space fiber", 4, "csv"):
        "4288775b624554874141844c56ec63c286879a3aa7aa89d9160676e135c0def2",
    ("kodaira --space fiber", 5, "human"):
        "65333a035e188b92d801c71a2de43fbe551cb3cc462369642fc2210bf4a4a4e5",
    ("kodaira --space fiber", 5, "json"):
        "c1ac2ddcedd2ed2f03fe33f7ead767c538f26770aebbd7f2b5e5c3a6b2d6d6a1",
    ("kodaira --space fiber", 5, "csv"):
        "d4bfd0feb60d5b33ba9df2f2bd02c1d12c7ab934f22ebc90387ed535626484b3",
    ("kodaira --space fiber", 10, "human"):
        "057ed8299e961ced24afe4f197e08c1a397f753960615f356655050b6bae5593",
    ("kodaira --space fiber", 10, "json"):
        "fb95dd91232eb58e30fe1ea2fd4ec637e5ddb8b6c11071efea19a763cef46d40",
    ("kodaira --space fiber", 10, "csv"):
        "ee1df5c9d7bea2a6948651c47d716262ff658da64d5ebc9cac8ddae965d7e001",
    ("kodaira --space fiber", 32, "human"):
        "61fb55c26caedf40c6df63f956489185afd607129a6c041ba5ff7b12e85b7e06",
    ("kodaira --space fiber", 32, "json"):
        "4d70694b548fb29d9ae7d3d5af5e2ddd39a5604f5e80d07a90c1e247a6340710",
    ("kodaira --space fiber", 32, "csv"):
        "14e413c782d0527ce4495888cb58a9bd940d060a91d1f09a02dc8636a56137b4",
    ("kodaira --space fiber", 100, "human"):
        "d573c6c1e1c5338440f945c27d5bb4652dc63e6285e71e7336ca3ec8523b0775",
    ("kodaira --space fiber", 100, "json"):
        "6dfbee4c3fa3c3da7534433f34ef1003986f1a5da3f52a4317099e583d6d6842",
    ("kodaira --space fiber", 100, "csv"):
        "801f34bc0f74dc4ef48ac67c69fb8076166d5ed444a24df413177a1f61602271",
    ("kodaira --space fiber", 1000, "human"):
        "09e92972256fc067a01a073bd165efd55719ede0e994a4006ffae83ef0f5dafb",
    ("kodaira --space fiber", 1000, "json"):
        "226ac9c0df24505b7aac9cdeb81181663342fe5af50a6598d3a2f0b0fe1a4e38",
    ("kodaira --space fiber", 1000, "csv"):
        "9aefd076b8f73c4364408abfc27fec87740ee62b0609645f2e625be48d9d86ae",
    ("pairings", 4, "human"):
        "625f79fbacfbc6526261b2251baaab372bea5595b0022fe0d394f5d1edaf9188",
    ("pairings", 4, "json"):
        "de675b987ba8acaf0f6a768b4950a468422421b1ffc02d37538394ee30e2493c",
    ("pairings", 4, "csv"):
        "2a86f9f8a980b04684815f8a2ef832778ecec67b29f74ff84df561a18eab0e31",
    ("pairings", 10, "human"):
        "3e05eecb7cc70219516d1ee76d98e30ed0d533b8dead94ccb4635211d285ad41",
    ("pairings", 10, "json"):
        "a2c646d00f0b0cd200e95c26d21c2e14096fddd67ecea7fdf87557faeac3bd62",
    ("pairings", 10, "csv"):
        "9312111e3082bf4096e64cfe8e88783b7d5637c6e5608bf4de0c8874341aad42",
    ("pairings", 300, "human"):
        "a31afcadfc3d79ab3146eda05377ab0c2098bb91e0610c5bb0dd7185fa4866d5",
    ("pairings", 300, "json"):
        "1cf776fbc27c39e11c312da34b89a7aab3653b6f3be35ec41274100ad2844b6f",
    ("pairings", 300, "csv"):
        "b91e2072f0af0ed7708b3a54963cf91bfef49780ebdd51844ae4eb127dfde0c4",
    ("relation", 4, "json"):
        "a30e631eec049eec0712339f0f62dc4505e9bf80313d67fad613390f13f2bb97",
    ("relation", 4, "csv"):
        "0676238543676ca55ffdecbe7cf6034b0bb90820dd0da11cb621dea61b11765f",
    ("relation", 4, "human"):
        "82b41c0a18b2443c7e083a906da76117b252dab3935182ee2a6be68e124aab9f",
    ("relation", 10, "json"):
        "96adb5c6f01bb42cc7dd9495a4e9b0f05a28c4ffd5b9ef722ee50ee219ade83e",
    ("relation", 10, "csv"):
        "827d2bb572acac4e2cbbc2b975ac812aff2853d7bbf6b04813570169738f7aff",
    ("relation", 10, "human"):
        "5d4591a528c5e01a3e440042edff078603fee27f45fcd7067ffe322e49c0abfc",
    ("relation", 300, "json"):
        "708ad97dbe09d2c96211903769474a555853d7ef35fb7a72591063faad2d7f15",
    ("relation", 300, "csv"):
        "5373cb0377ab8500d0367b668eae27df44f324663c2d4956c3415084a689a049",
    ("relation", 300, "human"):
        "68ee5b2f3dd4a87adb72946763b41154ef081f0268e148df7829301651b2bcda",
}


@pytest.mark.parametrize("command, n, fmt", sorted(CLASS_OUTPUT_SHA256))
def test_class_outputs_are_pinned(capsys, command, n, fmt):
    code, out, err = run(capsys, *command.split(), "--n", str(n), "--format", fmt)
    assert (code, err) == (0, "")
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CLASS_OUTPUT_SHA256[command, n, fmt]


def test_cone_cert_csv(capsys):
    code, out, _ = run(capsys, "cone-cert", "--n", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "coordinate,minimum"
    assert lines[1] == "B[2],1/4"
    assert lines[-1] == "verdict,pass"


def test_pairings_csv(capsys):
    code, out, _ = run(capsys, "pairings", "--n", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "curve,B[2],B[3],B[4]"
    assert lines[1] == "C_3,3,-1,0"
    assert lines[3] == "R_2,0,1,0"


def test_relation_trace(capsys):
    code, out, _ = run(capsys, "relation", "--n", "4", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["relation"] == "3*L - 1*B[2] - 3*B[3] - 6*B[4]"
    assert data["coefficients"][0] == {
        "s": 2, "subsets_per_pair": 1, "pair_incidences": 6,
        "subsets": 6, "coefficient": "1"}


@pytest.mark.parametrize("n", [4, 300])
def test_relation_counts_once(capsys, monkeypatch, n):
    # the trace and the relation read the same count tuples
    from effcone import picard

    calls = []
    real = picard.pair_incidence_counts
    monkeypatch.setattr(picard, "pair_incidence_counts",
                        lambda m: calls.append(m) or real(m))
    code, out, _ = run(capsys, "relation", "--n", str(n), "--format", "json")
    assert code == 0
    assert calls == [n]
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == CLASS_OUTPUT_SHA256["relation", n, "json"]


def test_fiber_check(capsys):
    code, out, _ = run(capsys, "fiber-check", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    names = {c["name"] for c in data["checks"]}
    assert "large_diagonal_coherence" in names


def test_fiber_check_large_n(capsys, monkeypatch):
    from effcone import fiber

    code, out, _ = run(capsys, "fiber-check", "--n", "1000", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"
    # every F_m term is read from the class table: a wrong entry fails
    table = fiber.fiber_class
    monkeypatch.setattr(fiber, "fiber_class", lambda n, name: table(
        n, "F6" if name == "F5" else name))
    code, out, _ = run(capsys, "fiber-check", "--n", "8", "--format", "json")
    assert code == 1
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
    assert failed == ["hyperplane_expansion"]


# sha256 of `fiber-check --n N --format csv` before its verdict row: the
# same for every n >= 4, whose checks are the same
FIBER_CHECK_CSV_BEFORE_VERDICT = {
    3: "215668a950188f91773988ce66e3bd13acb8117ed9ff9b6ba1e6a462f01a19a3",
    **dict.fromkeys(
        (4, 32, 1000),
        "06b6f1bede65ff60748c4d4523487d4cca11cacc2c4f3412c1b35e991afe212f"),
}


@pytest.mark.parametrize("n", sorted(FIBER_CHECK_CSV_BEFORE_VERDICT))
def test_fiber_check_csv_ends_with_its_verdict(capsys, n):
    # the csv is the check rows as before plus exactly one closing line
    code, out, err = run(capsys, "fiber-check", "--n", str(n), "--format", "csv")
    assert (code, err) == (0, "")
    body, last = out.removesuffix("\n").rsplit("\n", 1)
    assert last == "verdict,pass"
    digest = hashlib.sha256((body + "\n").encode()).hexdigest()
    assert digest == FIBER_CHECK_CSV_BEFORE_VERDICT[n]


# each input of fiber-check, perturbed alone, and the checks that must fail
FIBER_CHECK_MUTATIONS = {
    "K": ["canonical_in_A_basis", "threshold_matches_full_space"],
    "A_sub": ["canonical_in_A_basis", "hyperplane_expansion",
              "threshold_matches_full_space"],
    "A_top": ["canonical_in_A_basis", "hyperplane_expansion",
              "hyperplane_misses_curve", "threshold_matches_full_space"],
    "Lhalf": ["hyperplane_expansion", "hyperplane_misses_curve",
              "threshold_matches_full_space"],
    "pair_R": ["curve_pairing_A_sub", "curve_pairing_A_top",
               "hyperplane_misses_curve"],
    "kodaira_fiber": ["threshold_matches_full_space"],
    "kodaira_full": ["threshold_matches_full_space"],
}


@pytest.mark.parametrize("n", [3, 6])
@pytest.mark.parametrize("target", sorted(FIBER_CHECK_MUTATIONS))
def test_fiber_check_fails_exactly_where_an_input_is_wrong(
        capsys, monkeypatch, target, n):
    from effcone import fiber, picard

    # a named class gains twice another one, so that Lhalf stays integral
    shift = {"K": "A_top", "A_sub": "E", "A_top": "g1", "Lhalf": "A_top"}
    if target in shift:
        table = fiber.fiber_class

        def perturbed(m, name):
            c = table(m, name)
            return (combined((1, c), (2, table(m, shift[target])))
                    if name == target else c)

        monkeypatch.setattr(fiber, "fiber_class", perturbed)
    else:
        module = picard if target == "kodaira_full" else fiber
        real = getattr(module, target)
        monkeypatch.setattr(module, target, lambda *a: real(*a) + 1)
    code, out, err = run(capsys, "fiber-check", "--n", str(n), "--format", "json")
    assert (code, err) == (1, "")
    failed = [c["name"] for c in json.loads(out)["checks"] if not c["pass"]]
    expected = FIBER_CHECK_MUTATIONS[target]
    if n == 3 and target == "A_sub":
        expected = expected + ["large_diagonal_coherence"]
    assert failed == expected


def test_disc_repeated_root(capsys):
    code, out, _ = run(capsys, "disc", "--coeffs", "1,-2,1,0",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["disc"] == 0


def test_act_binomials(capsys):
    code, out, _ = run(capsys, "act", "--coeffs", "1,0,0,0",
                       "--matrix", "1,1,0,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"] == [1, 3, 3, 1]


def test_count_and_fit_pipeline(tmp_path, capsys):
    code, out, _ = run(capsys, "count", "--coeffs", "1,0,-1,-1",
                       "--bmax", "800", "--grid", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "B,N"
    assert [int(line.split(",")[0]) for line in lines[1:]] == [100, 200, 400, 800]
    csv_file = tmp_path / "series.csv"
    csv_file.write_text(out)
    code, out, _ = run(capsys, "fit", "--in", str(csv_file), "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["points_used"] == 4
    assert 0.3 < data["slope"] < 1.1


def test_exit_codes_for_invalid_input(capsys, tmp_path):
    assert run(capsys, "kodaira", "--n", "2")[0] == 2
    assert run(capsys, "disc", "--coeffs", "5")[0] == 2
    assert run(capsys, "disc", "--coeffs", "1,2")[0] == 2  # degree 1
    assert run(capsys, "disc", "--coeffs", "1,x,2,3")[0] == 2
    assert run(capsys, "count", "--coeffs", "1,-2,1,0", "--bmax", "100")[0] == 2
    code, out, err = run(capsys, "count", "--coeffs", "1,0,-1", "--bmax", "100")
    assert (code, out) == (2, "") and "n >= 3" in err
    assert run(capsys, "fit", "--in", "/nonexistent.csv")[0] == 2
    two_points = tmp_path / "two.csv"
    two_points.write_text("B,N\n10,4\n20,8\n")
    assert run(capsys, "fit", "--in", str(two_points))[0] == 2
    for row in ("0,1", "1,-1"):  # B < 1 once failed in log(), N < 0 was dropped
        bad = tmp_path / "bad.csv"
        bad.write_text(f"B,N\n{row}\n10,4\n20,8\n40,16\n")
        b, n = row.split(",")
        assert run(capsys, "fit", "--in", str(bad)) == (
            2, "", f"error: point ({b}, {n}) needs B >= 1 and N >= 0\n")
    # a row that is not two integers names its line; only a first line B,N
    # is a header, so a row starting with b is no longer skipped
    for row in ("bogus,99", "20,8,3", "40", "20,x"):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"B,N\n10,4\n{row}\n20,8\n40,16\n")
        assert run(capsys, "fit", "--in", str(bad)) == (
            2, "", f"error: line 3: expected B,N as two integers, got '{row}'\n")
    # outside input is checked where it enters, word for word
    int_error = "error: invalid literal for int() with base 10: "
    for argv, err in (
            (("act", "--coeffs=5", "--matrix", "1,0,0,1"),
             "error: a binary form has degree at least 1"),
            (("act", "--coeffs=1,0,1", "--matrix", "1,0,0"),
             "error: expected 4 comma-separated entries a,b,c,d"),
            (("act", "--coeffs=1,0,1", "--matrix", "1,0,0,1,0"),
             "error: expected 4 comma-separated entries a,b,c,d"),
            (("act", "--coeffs=1,0,1", "--matrix", "a,0,0,1"), int_error + "'a'"),
            (("act", "--coeffs=1,0,1", "--matrix", "1,1,1,1"),
             "error: matrix determinant must be 1"),
            (("count", "--coeffs=1.5,0,-1,-1", "--bmax", "100"), int_error + "'1.5'"),
            (("disc", "--coeffs="), int_error + "''")):
        assert run(capsys, *argv) == (2, "", err + "\n")
    for argv in (("--grid", "0", "--bmax", "100"), ("--bmax", "0")):
        assert run(capsys, "count", "--coeffs=1,0,-1,-1", *argv) == (
            2, "", "error: grid length and bmax must be positive\n")


def test_size_guard_exits_two(capsys, monkeypatch):
    from effcone import cli

    limits = {"cone-cert": "MAX_N", "pairings": "MAX_N", "relation": "MAX_N",
              "kodaira": "MAX_N_FIBER", "fiber-check": "MAX_N_FIBER"}
    for command, limit in limits.items():
        code, out, err = run(capsys, command, "--n", "10000")
        assert (code, out) == (2, "")
        assert err == (f"error: n must be at most {getattr(cli, limit)} "
                       "(got 10000)\n")
    # every --coeffs is capped at MAX_DEGREE, and a dense form at the cap passes
    high = "--coeffs=" + ",".join(["1"] * (cli.MAX_DEGREE + 2))
    for argv in (("disc",), ("act", "--matrix", "1,1,0,1"), ("count", "--bmax", "9")):
        assert run(capsys, *argv, high) == (
            2, "", f"error: degree must be at most {cli.MAX_DEGREE} "
                   f"(got {cli.MAX_DEGREE + 1})\n")
    dense = ",".join(str((-1) ** i * (1 + 7 * i % 9)) for i in range(cli.MAX_DEGREE + 1))
    assert run(capsys, "disc", "--coeffs=" + dense)[0] == 0
    monkeypatch.setattr(cli, "MAX_N", 5)
    monkeypatch.setattr(cli, "MAX_N_FIBER", 5)
    for command in limits:
        assert run(capsys, command, "--n", "5")[0] == 0
        assert run(capsys, command, "--n", "6")[0] == 2


def test_usage_errors_exit_two(capsys):
    assert main(["no-such-command"]) == 2
    assert main(["kodaira"]) == 2  # missing --n
    assert main([]) == 2


def test_repeated_calls_share_one_parser(capsys):
    from effcone.cli import build_parser

    assert build_parser() is build_parser()
    full = run(capsys, "kodaira", "--n", "5", "--format", "json")
    assert json.loads(full[1])["space"] == "full"
    code, out, _ = run(capsys, "kodaira", "--n", "5", "--space", "fiber",
                       "--format", "json")
    assert (code, json.loads(out)["space"]) == (0, "fiber")
    assert run(capsys, "kodaira", "--n", "5", "--format", "json") == full
    assert run(capsys, "kodaira", "--n", "5", "--space", "other")[0] == 2
    assert run(capsys, "kodaira", "--n", "5", "--format", "json") == full
    for argv in (["--help"], ["kodaira", "--help"]):
        assert run(capsys, *argv)[0] == 0
        assert run(capsys, "kodaira", "--n", "5", "--format", "json") == full


def test_matrix_dump_matches_library(capsys):
    from effcone.picard import pairing_matrix

    code, out, _ = run(capsys, "pairings", "--n", "6", "--format", "json")
    data = json.loads(out)
    assert [row["pairings"] for row in data["rows"]] == pairing_matrix(6)


@pytest.mark.parametrize("failure", ["unbounded", "pivot limit", "verification"])
def test_solver_failures_exit_one(capsys, monkeypatch, failure):
    from effcone import cone, picard

    def reject(*args):
        raise cone.ConeError("dual multipliers do not reproduce the objective")

    if failure == "unbounded":
        # {x0 >= |x1|}: the x1 minimum over sum(x) = 1 is unbounded below
        monkeypatch.setattr(picard, "pairing_matrix", lambda n: [[1, 1], [1, -1]])
    elif failure == "pivot limit":
        monkeypatch.setattr(cone, "_PIVOT_LIMIT", 0)
    else:
        # a re-check that rejects the solver's result raises a plain ConeError
        monkeypatch.setattr(cone, "verify_lp_minimum", reject)
    code, out, err = run(capsys, "cone-cert", "--n", "3", "--format", "json")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_zero_pairing_table_exits_one(capsys, monkeypatch):
    # a broken table is a failed certificate, not invalid input
    from effcone import picard

    real = picard.pairing_matrix
    monkeypatch.setattr(picard, "pairing_matrix",
                        lambda n: [[0] * len(row) for row in real(n)])
    code, out, err = run(capsys, "cone-cert", "--n", "5")
    assert code == 1
    assert out == ""
    assert err == "error: constraint matrix is zero\n"


@pytest.mark.parametrize("scale", [-1, 0])
def test_threshold_failures_exit_one(capsys, monkeypatch, scale):
    # a threshold is taken along L big only: along -L or the zero
    # direction the energy is refused as a failure, not as bad input
    from effcone import cone

    real = cone.kodaira_energy
    monkeypatch.setattr(cone, "kodaira_energy",
                        lambda base, direction: real(base, [scale * q for q in direction]))
    code, out, err = run(capsys, "kodaira", "--n", "5", "--format", "json")
    assert (code, out, err) == (
        1, "", "error: the direction needs every entry > 0 (L big)\n")


def test_inexact_count_exits_one(capsys, monkeypatch):
    # a walk that yields every node twice breaks the stabilizer arithmetic
    from effcone import counting

    real = counting._farey_walk

    def doubled(xs, b_max, box):
        for item in real(xs, b_max, box):
            yield item
            yield item

    monkeypatch.setattr(counting, "_farey_walk", doubled)
    code, out, err = run(capsys, "count", "--coeffs=1,0,-1,-1", "--bmax", "100")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


# each input of an exactness check, broken alone, and the subcommands that
# reach the broken check
EXACTNESS_BREAKS = {
    "_off_diagonal": [("pairings", "--n", "5"), ("cone-cert", "--n", "5")],
    "comb": [("relation", "--n", "5")],
    "A_top": [("fiber-check", "--n", "5"),
              ("kodaira", "--n", "5", "--space", "fiber")],
    "K": [("kodaira", "--n", "5", "--space", "fiber")],
    "resultant": [("disc", "--coeffs=1,0,-1,-1"),
                  ("count", "--coeffs=1,0,-1,-1", "--bmax", "100")],
}


@pytest.mark.parametrize("target, argv", [
    pytest.param(target, argv, id=f"{target}-{argv[0]}")
    for target, argvs in sorted(EXACTNESS_BREAKS.items()) for argv in argvs])
def test_exactness_failures_exit_one(capsys, monkeypatch, target, argv):
    from effcone import fiber, forms, picard

    if target == "_off_diagonal":
        real_off = picard._off_diagonal

        def off_diagonal(kind, s, n):
            # C_s meets B[s-1] s+1 times: no integral self term
            return {s - 1: s + 1} if kind == "C" else real_off(kind, s, n)

        monkeypatch.setattr(picard, "_off_diagonal", off_diagonal)
    elif target == "comb":
        monkeypatch.setattr(picard, "comb", lambda a, b: math.comb(a, b) + 1)
    elif target in ("A_top", "K"):
        # A_top + g1 makes the g1-coordinate of 2 Lhalf odd at n = 5, and
        # K + g1 leaves span(A_sub, A_top)
        table = fiber.fiber_class
        monkeypatch.setattr(fiber, "fiber_class", lambda n, name: (
            combined((1, table(n, name)), (1, table(n, "g1"))) if name == target
            else table(n, name)))
    else:
        # R + 1 is no multiple of n^(n-2) for n >= 3
        real_resultant = forms.resultant

        def resultant_plus_one(p, q):
            r, u, v = real_resultant(p, q)
            return r + 1, u, v

        monkeypatch.setattr(forms, "resultant", resultant_plus_one)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_negative_first_coefficient_as_own_token(capsys):
    for argv in (("count", "--bmax", "100", "--format", "csv"),
                 ("disc", "--format", "json"),
                 ("act", "--matrix", "-1,0,0,-1", "--format", "json")):
        spaced = run(capsys, *argv, "--coeffs", "-1,0,1,1")
        assert spaced[0] == 0
        assert run(capsys, *argv, "--coeffs=-1,0,1,1") == spaced
    assert json.loads(spaced[1])["matrix"] == [-1, 0, 0, -1]


def test_count_grid_longer_than_bmax_bits(capsys):
    # grid steps past the bit length of bmax all give B = 0 and are skipped
    # without being computed, so a huge --grid returns at once
    argv = ("count", "--coeffs=1,0,-1,-1", "--bmax", "200", "--format", "csv")
    short = run(capsys, *argv, "--grid", "8")
    assert short[0] == 0
    assert run(capsys, *argv, "--grid", "1000000") == short


def test_count_form_with_huge_root(capsys):
    # a real root near 1e16: a cubic of height <= 20000 has a far smaller
    # |disc| than this form, so no orbit form qualifies; the entry bound is
    # 4B/3, so the walk follows the root down about 27,000 nodes
    coeffs = "1,0,0,-1000000000000000000000000000000000000000000012345"
    code, out, err = run(capsys, "count", "--coeffs=" + coeffs, "--bmax",
                         "20000", "--grid", "3", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["series"] == [[5000, 0], [10000, 0], [20000, 0]]


# Branches of src/effcone that no command-line run needs to execute, each
# as (function, first line of its first unreached statement); every entry
# is recorded with its reason in CHANGES.md.
UNREACHED_ALLOWED: frozenset[tuple[str, str]] = frozenset({
    ("cone._Tableau._pivot", "self.row(i)"),
    ("counting._farey_walk", "yield from _one_signed_walk(rows, b_max, width)"),
    ("counting._farey_walk", "yield _spine_level(spine, width)"),
    ("_terms.format_terms", 'return "0"'),
})


def _library_functions(src) -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> qualified name of every function
    and method compiled from the package's modules.  Module and class
    bodies, lambdas and comprehensions are left out."""
    found = {}
    for path in sorted(src.glob("*.py")):
        stack = [(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            for const in code.co_consts:
                if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                    continue
                if const.co_flags & inspect.CO_NEWLOCALS:  # a function body
                    name = prefix + const.co_name
                    found[(path.name, const.co_firstlineno, const.co_name)] = (
                        f"{path.stem}.{name}")
                    stack.append((const, name + ".<locals>."))
                else:  # a class body
                    stack.append((const, prefix + const.co_name + "."))
    return found


def _statement_blocks(path):
    """Yield (function, statements) for each statement list in a function
    body of the module at path, with the simple statements of that list
    that must run: raise statements and bare strings (docstrings) are left
    out, and so are except handlers, which are error handling."""
    tree = ast.parse(path.read_text(encoding="utf-8"))

    def visit(stmts, qualname, in_function):
        simple = []
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(node.body, f"{qualname}.{node.name}",
                                 not isinstance(node, ast.ClassDef))
            elif hasattr(node, "body"):  # if, for, while, with, try
                for field in ("body", "orelse", "finalbody"):
                    yield from visit(getattr(node, field, []), qualname, in_function)
            elif in_function and not isinstance(node, ast.Raise) and not (
                    isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                simple.append(node)
        if simple:
            yield qualname, simple

    yield from visit(tree.body, path.stem, False)


def test_every_library_function_runs_under_the_cli(capsys, tmp_path):
    # every function is entered, and every simple statement of a function
    # body runs, as judged by a line event within its lines
    from effcone import cli, fiber

    src = Path(cli.__file__).parent
    series = tmp_path / "series.csv"
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("B,N\n10,x\n")
    formats = ("human", "json", "csv")
    argvs = [[*argv, "--format", fmt] for fmt in formats for argv in (
        ["pairings", "--n", "5"], ["cone-cert", "--n", "5"],
        ["kodaira", "--n", "5", "--space", "full"],
        ["kodaira", "--n", "5", "--space", "fiber"],
        ["relation", "--n", "5"], ["fiber-check", "--n", "3"],
        ["fiber-check", "--n", "5"], ["disc", "--coeffs=1,0,-1,-1"],
        ["act", "--coeffs=1,0,-1,-1", "--matrix", "1,1,0,1"],
        ["count", "--coeffs=1,0,-1,-1", "--bmax", "400", "--grid", "3"],
        ["fit", "--in", str(series)])]
    argvs += [["count", "--coeffs=1,-3,-25,75,0", "--bmax", "2000"],
              ["count", "--coeffs=1,0,0,0,1", "--bmax", "2000"],
              # a separate negative token, and a level wider than _MAX_BATCH
              ["count", "--coeffs", "-1,0,1,1", "--bmax", "1000000", "--grid", "2"],
              # no orbit form of height <= 2000: every count is 0
              ["count", "--coeffs=1,0,0,-1000000000000000000000000000000000000000000012345",
               "--bmax", "2000"],
              # resultant: x0 = 0 swaps f_z and f_w, x0 = x1 = 0 leaves both
              # without a leading coefficient, a double root ends the chain
              # on a zero remainder, and a chain with a degree gap of 2
              ["disc", "--coeffs=0,1,0,-1"], ["disc", "--coeffs=0,0,1,7"],
              ["disc", "--coeffs=1,-2,1,0"], ["disc", "--coeffs=1,1,0,0,0,1"]]
    exit_two = [["disc", "--coeffs=1,1"],
                ["act", "--coeffs=1,0,-1,-1", "--matrix", "1,1,1,1"],
                ["count", "--coeffs=1,0,-1,-1", "--bmax", "0"],
                ["count", "--coeffs=1,0,-1", "--bmax", "100"],
                ["cone-cert", "--n", "301"],
                ["disc", "--coeffs=" + ",".join(["1"] * (cli.MAX_DEGREE + 2))],
                ["fit", "--in", str(tmp_path / "missing.csv")],
                ["fit", "--in", str(malformed)]]
    assert main(["count", "--coeffs=1,0,-1,-1", "--bmax", "800",
                 "--format", "csv"]) == 0
    series.write_text(capsys.readouterr().out)

    cli.build_parser.cache_clear()  # earlier tests built the shared parser
    fiber._basis_index.cache_clear()  # and the label index of each n
    files = {str(path) for path in src.glob("*.py")}
    entered = set()
    ran = set()  # (file, line) of every line event in the package

    def on_line(frame, event, arg):
        ran.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        if frame.f_code.co_filename in files:  # line events in the package only
            entered.add(frame.f_code)
            return on_line
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        codes = [main(argv) for argv in argvs + exit_two]
    finally:
        sys.settrace(previous)
    capsys.readouterr()
    assert codes == [0] * len(argvs) + [2] * len(exit_two)

    functions = _library_functions(src)
    called = {(Path(c.co_filename).name, c.co_firstlineno, c.co_name) for c in entered}
    unentered = sorted(name for key, name in functions.items() if key not in called)
    assert not unentered, "never entered under the CLI: " + ", ".join(unentered)

    unreached = {}
    for path in sorted(src.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for function, block in _statement_blocks(path):
            missed = [node for node in block if not any(
                (str(path), line) in ran
                for line in range(node.lineno, node.end_lineno + 1))]
            if missed:
                key = (function, lines[missed[0].lineno - 1].strip())
                unreached[key] = ", ".join(f"{path.name}:{node.lineno}" for node in missed)
    extra = sorted(f"{where} {function}: {text}"
                   for (function, text), where in unreached.items()
                   if (function, text) not in UNREACHED_ALLOWED)
    assert not extra, "never run under the CLI: " + "; ".join(extra)
    assert sorted(unreached) == sorted(UNREACHED_ALLOWED)

import hashlib
import json

import pytest

from effcone.cli import main


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


def test_json_round_trips_byte_identical(capsys):
    for argv in (("kodaira", "--n", "5"),
                 ("cone-cert", "--n", "4"),
                 ("pairings", "--n", "5"),
                 ("relation", "--n", "6"),
                 ("fiber-check", "--n", "4"),
                 ("disc", "--coeffs", "1,0,-1,-1"),
                 ("act", "--coeffs", "1,0,-1", "--matrix", "1,1,0,1")):
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        assert json.dumps(json.loads(out), sort_keys=True) == out.strip()


def test_cone_cert_passes(capsys):
    code, out, _ = run(capsys, "cone-cert", "--n", "3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "pass"
    assert data["certificate"]["minima"] == {"B[2]": "1/4", "B[3]": "1/2"}


# sha256 of `cone-cert --n N --format json` stdout, recorded before the
# phase-one rewrite that froze the free pivot rows: the certificates must
# stay byte for byte the same
CONE_CERT_JSON_SHA256 = {
    3: "b2b7c2e36c75e26764a9ec57a0158a5fa7d778ddd25203087af8deaa76041e2e",
    4: "93afc5fc73bc232df07ab3c14eaa1d67a48c14dfa390f78f921e93571046f58e",
    5: "98ccedc6730f7cf73a9cb154321996ed5be934ea4d1ad972c20e501bd00a5a28",
    10: "473ffd98c138183b566c6431b99a7d903c84edcd2ea9c292c8b498d2250cd003",
    32: "e1f698275230b7bee4d03d756bc411f671682edd875b49d2ce5b2442c9a00624",
    64: "c6ba3b126f3df55a9e5dd985c131d2c262d380320d4aa30274b175f2d5c0c1e7",
    100: "330d4850353bef1f658e9650d6cc696548d2c34fb68f76cbc4dee16a5b22f72f",
}


@pytest.mark.parametrize("n", sorted(CONE_CERT_JSON_SHA256))
def test_cone_cert_json_bytes_are_pinned(capsys, n):
    code, out, err = run(capsys, "cone-cert", "--n", str(n), "--format", "json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == CONE_CERT_JSON_SHA256[n]


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
    assert run(capsys, "act", "--coeffs", "1,0,1", "--matrix", "1,1,1,1")[0] == 2


def test_size_guard_exits_two(capsys, monkeypatch):
    from effcone import cli

    limits = {"cone-cert": "MAX_N", "pairings": "MAX_N", "relation": "MAX_N",
              "kodaira": "MAX_N_FIBER", "fiber-check": "MAX_N_FIBER"}
    for command, limit in limits.items():
        code, out, err = run(capsys, command, "--n", "10000")
        assert (code, out) == (2, "")
        assert err == (f"error: n must be at most {getattr(cli, limit)} "
                       "(got 10000)\n")
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


@pytest.mark.parametrize("scale, message", [
    (-1, "no coordinate bounds the shift from below"),
    (0, "coordinate is negative for every shift"),
])
def test_threshold_failures_exit_one(capsys, monkeypatch, scale, message):
    # K + boundary has B[n]-coordinate -1, so along the zero direction no
    # shift is effective, and along -L every negative enough shift is
    from effcone import cone

    real = cone.kodaira_energy
    monkeypatch.setattr(cone, "kodaira_energy",
                        lambda base, direction: real(base, [scale * q for q in direction]))
    code, out, err = run(capsys, "kodaira", "--n", "5", "--format", "json")
    assert (code, out, err) == (1, "", f"error: {message}\n")


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

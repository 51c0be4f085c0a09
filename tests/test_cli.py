"""End-to-end checks of the command front door.

Every documented exit code is produced through a real failure path, the
worked examples are pinned byte-for-byte, and the reproducibility
contract is checked on actual artifact files.
"""

import hashlib
import json
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from heisgeo.cli import UsageError, main, parse_sigma
from heisgeo.core import generator, inverse, lattice_identity, multiply


# small fixed runs of every subcommand; the suffix after "-" names a variant
PINNED_RUNS = {
    "ball": ["--n", "1", "--k", "3"],
    "doubling": ["--n", "1", "--k-max", "3"],
    "folner": ["--n", "1", "--k", "4", "--sigma", "e1"],
    "folner-sweep": ["--n", "1", "--k-max", "3", "--sigma", "e1,ie1^-1"],
    "boundary": ["--n", "1", "--k", "4", "--t", "1/2"],
    "net": ["--n", "1", "--rho", "0.9"],
    "bcp": ["--trials", "2", "--count", "12", "--seed", "3"],
    "colour": ["--trials", "2", "--count", "12", "--seed", "3"],
    "boundgen": ["--f", "3", "--t", "2", "--height", "3", "--seed", "4"],
    "height": ["--chi", "1", "--eps", "1/2", "--delta", "1/2", "--kappa", "2"],
    "lss": ["--trials", "3", "--seed", "5"],
    "closeball": ["--trials", "2", "--seed", "6"],
    "intersect": ["--trials", "3", "--workers", "1", "--seed", "7"],
    "ergodic": ["--m", "2", "--k-max", "2", "--masses", "linear"],
    "maximal": ["--m", "2", "--trials", "2", "--k-max", "3", "--seed", "8"],
}
# SHA-256 of each artifact, one per (run, --format); recorded before the
# output writers moved into the CLI and unchanged since
PINNED_SHA256 = {
    "ball-plain":
        "80a8dad7e09fb6db82c36af9459415aa65b441e60cff539456268a2a1f9b0beb",
    "ball-csv":
        "80a8dad7e09fb6db82c36af9459415aa65b441e60cff539456268a2a1f9b0beb",
    "ball-json":
        "596acabb04af84a420a5db395484930a88eb1139325b19d62e191fb4b22e6fdc",
    "doubling-plain":
        "00a8d7d126e3cf9fcfe3565925de9e9f785ec94bf2eb76f4fbfc04a48311a69a",
    "doubling-csv":
        "8b3861027bcc695ef0b828298add12f88ee83dffabc242c5f8c3f7b620b269c8",
    "doubling-json":
        "d810d3c7b82a95187a7330aa41fa0453fe4a867dd79589634353693be38534f9",
    "folner-plain":
        "7e37921038afb88f03b35e467cbc25ff5d5cee06980a43b246adc9d079672c88",
    "folner-csv":
        "7e37921038afb88f03b35e467cbc25ff5d5cee06980a43b246adc9d079672c88",
    "folner-json":
        "1b6123ca4bbe6ca6c3a839c0ef6d8e99c5a6cff8cbce50dd71219f246e8bbddb",
    "folner-sweep-plain":
        "6a4a6f585bfc78c9b5914b947608f34c9cd7c432e4702c283b038db5a1f67fe7",
    "folner-sweep-csv":
        "8c450f5adf45b6c736b83aacf882d5ed5a9864ed505c62ac2dcb623ed9793ae9",
    "folner-sweep-json":
        "95023312dde012efc7de788b4226daac14576032df1ce62b7f150bfd6fe13f84",
    "boundary-plain":
        "121ec7fc388e3fd084f8d46536adc3b2077d866839b5f5dc6248e6790bb3488e",
    "boundary-csv":
        "121ec7fc388e3fd084f8d46536adc3b2077d866839b5f5dc6248e6790bb3488e",
    "boundary-json":
        "78a7b44a11151e902fd3c2845d7135957854b0ef8a6f8cae25473b1337c0d571",
    "net-plain":
        "6df9d0a6ea8e120e383e708daf48c33d8f6d0f79b42bfc2a0fefbb2d092cadee",
    "net-csv":
        "6df9d0a6ea8e120e383e708daf48c33d8f6d0f79b42bfc2a0fefbb2d092cadee",
    "net-json":
        "71a3e4fec4902f7da90455c2f75e5dfc4837ba912131736c3314e4fe1febf9e1",
    "bcp-plain":
        "92034b9790a7423cbbe646d6cfb01a2c205ca8cd28b1f660753efd9be85e59b9",
    "bcp-csv":
        "4e616d26c542d24077ef539d22ef198b6442724e436ff29826d1e000ac7f91bb",
    "bcp-json":
        "a67537a417d88ec3d30f42f7674d722c0c246ef009fcfefdc7a0f9d5fd5004bc",
    "colour-plain":
        "11dc2824ed3c957cc90d818253d1aa898bf809fa41944d4772d121004cfc8f9c",
    "colour-csv":
        "c1f9279d4283258bfb42ff12319b978bee53c639d3d37d04ac31ec10c5ec89a3",
    "colour-json":
        "b6c8a8797843da76d861354fa2f623cfdbfd514a535e3a40a0e2cbb4e25ed5dc",
    "boundgen-plain":
        "28456eeb8f3e57f00a241b95f0cdc1922ee643c703fe6e3581c6c9fdb6144a49",
    "boundgen-csv":
        "d0003dd3805f34cb442de97489fb42cd0c1a623defaae70cb22fcdf09aead0e2",
    "boundgen-json":
        "266a6df6828d827c4b369f3d097eb7534cf778a67a99c6aa537f3605520f042a",
    "height-plain":
        "748ea33db356501af68a9e37a1583cfa57192a894aab2a692c5475f031d1e81a",
    "height-csv":
        "748ea33db356501af68a9e37a1583cfa57192a894aab2a692c5475f031d1e81a",
    "height-json":
        "3049c8da10e8b3825f4dfec29ed708dee71d5c14251b756f4878e9536eeb1bb6",
    "lss-plain":
        "bab548036ba976a986ee131509be25db02a074b03770ba8720421baf686a7614",
    "lss-csv":
        "aba9980289ab9d042dc1cc451a4e7ca10814d511c198c3a190aee770fde25f81",
    "lss-json":
        "a5e523b7a59ed828f6ba21d524352010f9b9d59bfd3b0aa84798fcaac5993e6c",
    "closeball-plain":
        "a2e5e660e05005587a39be66ecf3491bcb4e6b483e03a6a93a818b9e06a4dd48",
    "closeball-csv":
        "6725b10a659b73850ab006981209e5ae201349821c30001c00291cc9bbea9b89",
    "closeball-json":
        "1686b761737f0f8f605cee4a5f74248f160044dbe73db8642fbb57073e942e94",
    "intersect-plain":
        "02598f81fe243c204b0b2c05e6006d87458fab5be3987a17373d84d48da51abb",
    "intersect-csv":
        "8f8716108edaaa4549bce5839090185ede2b3886da62b5401573f9a4bee00950",
    "intersect-json":
        "25a0e1d389d579378152d83f28a2b1d41feb9b5d2e3ef9d288a021baead96d62",
    "ergodic-plain":
        "fcc5653983bf0ea416b9b8aa98a35453baffeb906eacda839877620b6aab28d1",
    "ergodic-csv":
        "4fbb12504d3a9eb0837d74c6faac8ef4ffd4f3733085a4d1673d61b9d50d5d27",
    "ergodic-json":
        "2ab7f8fd104debf8ed0f5760c7cba0860ce9eda24ce646b479f93b94250c0e95",
    "maximal-plain":
        "e76839b7424f7cf093a0e2fdfe7b30eb53ce1d47ac2d5199f7ee88fa7be218f4",
    "maximal-csv":
        "2490453502e04ff5cb36e56c8fc721af0ab9fa94b45e9be4d8b579f256d18a51",
    "maximal-json":
        "d42400c8cab8a6bb800320942b54fef3334fb624d49782b614c545610771ce54",
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSigmaGrammar:
    def test_single_generator(self):
        assert parse_sigma("e1", 1) == generator(1, 0)
        assert parse_sigma("ie1", 1) == generator(1, 0, imaginary=True)
        assert parse_sigma("ie2", 2) == generator(2, 1, imaginary=True)

    def test_inverse_suffix(self):
        assert parse_sigma("e1^-1", 1) == inverse(generator(1, 0))

    def test_word_multiplies_left_to_right(self):
        want = multiply(generator(1, 0), inverse(generator(1, 0, imaginary=True)))
        assert parse_sigma("e1,ie1^-1", 1) == want

    def test_word_with_spaces(self):
        assert parse_sigma("e1, e1^-1", 1) == lattice_identity(1)

    def test_bad_token(self):
        with pytest.raises(UsageError):
            parse_sigma("q3", 1)
        with pytest.raises(UsageError):
            parse_sigma("e", 1)
        with pytest.raises(UsageError):
            parse_sigma("ie2^-2", 2)

    def test_index_out_of_range(self):
        with pytest.raises(UsageError):
            parse_sigma("e2", 1)
        with pytest.raises(UsageError):
            parse_sigma("e0", 1)


class TestWorkedExamples:
    def test_ball_small(self, capsys):
        code, out, _ = run(capsys, "ball", "--n", "1", "--k", "1")
        assert code == 0
        assert out == "7\n"

    def test_ball_k2(self, capsys):
        code, out, _ = run(capsys, "ball", "--n", "1", "--k", "2")
        assert code == 0
        assert out == "65\n"

    def test_height_example(self, capsys):
        code, out, _ = run(capsys, "height", "--chi", "1", "--eps", "0.5",
                           "--delta", "0.5", "--kappa", "2")
        assert code == 0
        assert out == "136\n"

    def test_folner_decays(self, capsys):
        code, lo, _ = run(capsys, "folner", "--n", "1", "--k", "5", "--sigma", "e1")
        assert code == 0
        code, hi, _ = run(capsys, "folner", "--n", "1", "--k", "40", "--sigma", "e1")
        assert code == 0
        assert Fraction(hi.strip()) < Fraction(lo.strip())

    def test_boundary_count(self, capsys):
        code, out, _ = run(capsys, "boundary", "--n", "1", "--k", "5", "--t", "1")
        assert code == 0
        assert int(out) > 0

    def test_net_count(self, capsys):
        code, out, _ = run(capsys, "net", "--n", "1", "--rho", "0.9")
        assert code == 0
        assert int(out) >= 1


class TestExitCodes:
    def test_unknown_flag_is_usage(self, capsys):
        code, _, err = run(capsys, "ball", "--n", "1", "--k", "1", "--bogus")
        assert code == 64
        assert "usage" in err

    def test_missing_subcommand_is_usage(self, capsys):
        assert run(capsys, )[0] == 64

    def test_bad_sigma_is_usage(self, capsys):
        code, _, err = run(capsys, "folner", "--n", "1", "--k", "3",
                           "--sigma", "zz")
        assert code == 64

    def test_folner_without_k_is_usage(self, capsys):
        code, out, err = run(capsys, "folner", "--n", "1", "--sigma", "e1")
        assert (code, out) == (64, "")
        assert "--k or --k-max" in err

    def test_folner_with_k_and_k_max_is_usage(self, capsys):
        # the config would record a --k the table does not use
        code, out, err = run(capsys, "folner", "--n", "1", "--k", "5", "--k-max", "2",
                             "--sigma", "e1")
        assert (code, out) == (64, "")
        assert "--k or --k-max" in err

    @pytest.mark.parametrize("k_max", ["0", "-2"])
    def test_folner_k_max_below_one_is_usage(self, capsys, k_max):
        code, out, err = run(capsys, "folner", "--n", "1", "--k-max", k_max, "--sigma", "e1")
        assert (code, out) == (64, "")
        assert "--k-max" in err

    @pytest.mark.parametrize("k_max", ["0", "-2"])
    def test_ergodic_k_max_below_one_is_usage(self, capsys, k_max):
        code, out, err = run(capsys, "ergodic", "--m", "2", "--k-max", k_max)
        assert (code, out) == (64, "")
        assert "--k-max" in err

    @pytest.mark.parametrize("target", ["27", "99", "-1"])
    def test_ergodic_target_out_of_range_is_usage(self, capsys, target):
        # m = 3 gives 27 states, indexed 0..26; -1 must not wrap to the last
        code, out, err = run(capsys, "ergodic", "--m", "3", "--target", target)
        assert (code, out) == (64, "")
        assert "outside 0..26" in err
        assert run(capsys, "ergodic", "--m", "3", "--target", "26")[0] == 0

    @pytest.mark.parametrize("argv", [
        ("closeball", "--trials", "-1"), ("lss", "--trials", "0"),
        *((cmd, "--trials", k) for cmd in ("bcp", "colour", "maximal", "intersect")
          for k in ("0", "-2")),
        ("intersect", "--trials", "two"),
        ("intersect", "--trials", "2", "--workers", "0"),
        ("intersect", "--trials", "2", "--workers", "-3"),
        *((cmd, "--trials", "1", "--n", "0") for cmd in ("lss", "closeball", "intersect")),
        ("maximal", "--trials", "1", "--k-max", "0"),
    ], ids=" ".join)
    def test_count_below_one_is_usage(self, capsys, argv):
        # the last flag of argv carries the bad count
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert f"argument {argv[-2]}: " in err and repr(argv[-1]) in err

    @pytest.mark.parametrize("cmd", ["bcp", "colour"])
    def test_count_above_distinct_centers_is_usage(self, capsys, cmd):
        # 25 * 25 * 73 = 45625 distinct (a, b, m) can be drawn; one more
        # once looped forever looking for a new center
        code, out, err = run(capsys, cmd, "--trials", "1", "--count", "45626")
        assert (code, out) == (64, "")
        assert "--count 45626 exceeds the 45625 distinct centers" in err

    @pytest.mark.parametrize("max_chain", ["0", "1", "-2"])
    def test_intersect_max_chain_below_two_is_usage(self, capsys, max_chain):
        # once printed "longest_chain_found": 2 beside "max_chain": 0 with exit 0
        code, out, err = run(capsys, "intersect", "--trials", "2", "--max-chain", max_chain)
        assert (code, out) == (64, "")
        assert "max_chain must be 2 or 3" in err

    @pytest.mark.parametrize("max_chain", ["4", "5"])
    def test_intersect_max_chain_above_three_is_usage(self, capsys, max_chain):
        # once exited 0 recording "max_chain": 5 for a search that stops at three
        code, out, err = run(capsys, "intersect", "--trials", "2", "--max-chain", max_chain)
        assert (code, out) == (64, "")
        assert "max_chain must be 2 or 3" in err

    @pytest.mark.parametrize("count", ["+1", " 1", "0_1"])
    def test_count_parses_as_int(self, capsys, count):
        # a count accepts what int() accepts; only values below 1 are refused
        assert run(capsys, "closeball", "--trials", count) == run(capsys, "closeball", "--trials", "1")

    def test_bad_rational_is_usage(self, capsys):
        code, _, _ = run(capsys, "boundary", "--n", "1", "--k", "3", "--t", "x/y")
        assert code == 64

    def test_hypothesis_violation_is_2(self, capsys):
        code, _, err = run(capsys, "lss", "--eps", "3/2", "--trials", "1")
        assert code == 2
        assert "eps_range" in err

    def test_resource_cap_is_3(self, capsys):
        code, _, err = run(capsys, "ball", "--n", "2", "--k", "1000",
                           "--cap", "1000")
        assert code == 3
        assert "cap" in err

    def test_maximal_cap_is_3(self, capsys):
        # the config recorded --cap, but the experiment once ran without it
        code, out, err = run(capsys, "maximal", "--trials", "1", "--k-max", "3", "--cap", "10")
        assert (code, out) == (3, "")
        assert "25 horizontal grid cells exceed cap 10" in err

    def test_grid_over_small_cap_is_3(self, capsys):
        # the 81^2 = 6,561-cell horizontal grid is refused before any count
        code, _, err = run(capsys, "ball", "--n", "1", "--k", "40", "--cap", "7")
        assert code == 3
        assert "6561 horizontal grid cells exceed cap 7" in err

    def test_ball_count_past_default_cap_is_printed(self, capsys):
        # |B_100| has more points than the default cap, but no point is written
        code, out, _ = run(capsys, "ball", "--n", "1", "--k", "100")
        assert (code, out) == (0, "418863885\n")

    def test_oversize_net_is_3(self, capsys):
        # a 319^5-cell grid is refused before any array is allocated
        import heisgeo.covering  # noqa: F401  (keep import costs out of the peak)

        tracemalloc.start()
        try:
            code, _, err = run(capsys, "net", "--n", "2", "--rho", "0.05")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert "cap" in err
        assert peak < 1 << 20

    def test_net_cap_is_3(self, capsys):
        # the 33^3-cell grid of rho = 0.5 is over --cap 10, and only just fits 35937
        code, out, err = run(capsys, "net", "--n", "1", "--rho", "0.5", "--cap", "10")
        assert code == 3
        assert "cap" in err and out == ""
        code, out, _ = run(capsys, "net", "--n", "1", "--rho", "0.5", "--cap", "35937")
        assert code == 0 and int(out) == 960

    @pytest.mark.parametrize("argv", [
        ("lss", "--R", "inf", "--trials", "1"),
        ("intersect", "--R", "nan", "--trials", "1"),
        ("net", "--n", "1", "--rho", "inf"),
    ])
    def test_non_finite_value_is_usage(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 64
        assert "finite" in err

    def test_value_error_is_usage(self, capsys):
        code, _, _ = run(capsys, "intersect", "--R", "0.5", "--trials", "1")
        assert code == 64
        code, out, err = run(capsys, "ball", "--n", "0", "--k", "2")
        assert (code, out) == (64, "")
        assert "n must be >= 1" in err


class TestDocumentShape:
    def test_json_embeds_run_identity(self, capsys):
        code, out, _ = run(capsys, "ball", "--n", "1", "--k", "3",
                           "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "ball"
        assert doc["config"]["n"] == 1 and doc["config"]["k"] == 3
        assert doc["version"]
        assert doc["result"] == {"cardinality": 339}

    def test_config_omits_placement_keys(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        code, _, _ = run(capsys, "folner", "--n", "1", "--k", "2",
                         "--sigma", "e1", "--format", "json",
                         "--out", str(path))
        assert code == 0
        doc = json.loads(path.read_text())
        assert "out" not in doc["config"]
        assert "workers" not in doc["config"]

    def test_csv_carries_metadata_header(self, capsys):
        code, out, _ = run(capsys, "doubling", "--n", "1", "--k-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("# command: doubling")
        assert lines[1].startswith("# config: ")
        assert lines[2].startswith("# version: ")
        assert lines[3] == "k,card,card_sq,ratio"
        assert len(lines) == 4 + 3

    def test_boundgen_embeds_checklist(self, capsys):
        code, out, _ = run(capsys, "boundgen", "--f", "3", "--t", "2",
                           "--height", "3", "--seed", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["checklist"]["shell_mass"] is True
        assert doc["result"]["k"] == 3

    def test_folner_sweep_csv(self, capsys):
        code, out, _ = run(capsys, "folner", "--n", "1", "--k-max", "4",
                           "--sigma", "ie1")
        assert code == 0
        lines = out.splitlines()
        assert lines[3] == "k,sym_diff,card,ratio"
        assert len(lines) == 4 + 4


class TestReproducibility:
    def test_same_config_same_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "bcp", "--trials", "4", "--count", "20",
                             "--seed", "3", "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "colour", "--trials", "4", "--count", "20", "--seed", "1",
            "--out", str(a))
        run(capsys, "colour", "--trials", "4", "--count", "20", "--seed", "2",
            "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_net_artifact_pinned(self, capsys, tmp_path):
        path = tmp_path / "net.json"
        code, _, _ = run(capsys, "net", "--n", "1", "--rho", "0.5",
                         "--format", "json", "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "a1633ec079139c497dfb4aaa3a2cf1a02ab56b3ba859eb9df37a51b12489cd3d")

    @pytest.mark.parametrize("seed", ["1", "2"])
    def test_intersect_artifact_matches_bench_reference(self, capsys, tmp_path, seed):
        # the benchmark's cli-cold sweep pins these bytes; read, never written
        reference = Path(__file__).resolve().parents[1] / "bench" / "reference.json"
        argv = ["intersect", "--trials", "30", "--workers", "1", "--seed", seed]
        [want] = [e["sha256"] for e in json.loads(reference.read_text())["cli-cold"]
                  if e["argv"] == argv]
        path = tmp_path / "intersect.json"
        code, _, _ = run(capsys, *argv, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want

    def test_out_file_silences_stdout(self, capsys, tmp_path):
        path = tmp_path / "x.txt"
        code, out, _ = run(capsys, "ball", "--n", "1", "--k", "1",
                           "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == "7\n"

    def test_lss_documents_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "lss", "--trials", "2", "--seed", "5",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        doc = json.loads(a.read_text())
        assert doc["result"]["holds"] == 2


class TestActionFile:
    def test_ergodic_reads_action_spec(self, capsys, tmp_path):
        from heisgeo.ergodic import make_quotient_action

        spec = tmp_path / "action.json"
        spec.write_text(json.dumps(make_quotient_action(1, 2).spec))
        code, out, _ = run(capsys, "ergodic", "--action", str(spec), "--k", "2")
        assert code == 0
        assert out.splitlines()[3] == "k,x_id,value,abs_err"
        assert len(out.splitlines()) == 4 + 8

    @pytest.mark.parametrize("cmd", ["ergodic", "maximal"])
    @pytest.mark.parametrize("text, problem", [
        ('{"type": "torus", "n": 1, "alpha": [Infinity, 0.5], "resolution": 8}', "finite"),
        ('{"type": "quotient", "m": 3}', "lacks 'n'"),
    ])
    def test_malformed_spec_is_usage(self, capsys, tmp_path, cmd, text, problem):
        spec = tmp_path / "action.json"
        spec.write_text(text)
        code, out, err = run(capsys, cmd, "--action", str(spec))
        assert (code, out) == (64, "")
        assert problem in err

    @pytest.mark.parametrize("cmd", ["ergodic", "maximal"])
    def test_state_cap_is_exit_3(self, capsys, cmd):
        # 10^9 states (with linear masses for maximal) exhausted memory instead
        code, out, err = run(capsys, cmd, "--m", "1000")
        assert (code, out) == (3, "")
        assert "exceed cap" in err

    def test_act_table_cap_is_exit_3(self, capsys):
        # 8,000 states pass the state cap; their 6.4e7-entry act table was built
        code, out, err = run(capsys, "ergodic", "--m", "20")
        assert (code, out) == (3, "")
        assert "act table" in err

    def test_maximal_rows_hold(self, capsys):
        code, out, _ = run(capsys, "maximal", "--trials", "2", "--k-max", "4",
                           "--seed", "7")
        assert code == 0
        rows = out.splitlines()[4:]
        assert all(row.endswith("True") for row in rows)


class TestPinnedArtifacts:
    @pytest.mark.parametrize("key", sorted(PINNED_SHA256))
    def test_artifact_bytes(self, capsys, tmp_path, key):
        name, fmt = key.rsplit("-", 1)
        path = tmp_path / "artifact"
        code, _, _ = run(capsys, name.split("-")[0], *PINNED_RUNS[name],
                         "--format", fmt, "--out", str(path))
        assert code == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED_SHA256[key]

    @pytest.mark.parametrize("name", ["boundgen", "lss", "closeball", "intersect"])
    def test_json_only_commands_ignore_format(self, capsys, name):
        code, out, _ = run(capsys, name, *PINNED_RUNS[name], "--format", "plain")
        assert code == 0
        assert json.loads(out)["command"] == name


class TestTables:
    def test_doubling_csv_golden(self, capsys):
        code, out, _ = run(capsys, "doubling", "--n", "1", "--k-max", "2")
        assert code == 0
        assert out.splitlines()[3:] == [
            "k,card,card_sq,ratio",
            "1,7,29,4.142857142857143",
            "2,65,429,6.6",
        ]

    def test_doubling_json_mirror(self, capsys):
        code, out, _ = run(capsys, "doubling", "--n", "1", "--k-max", "2",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["result"][0] == {"k": 1, "card": 7, "card_sq": 29,
                                                "ratio": 29 / 7}

    def test_folner_csv_golden(self, capsys):
        from heisgeo.balls import symmetric_difference_cardinality

        code, out, _ = run(capsys, "folner", "--n", "1", "--k-max", "2", "--sigma", "e1")
        assert code == 0
        lines = out.splitlines()[3:]
        assert lines[0] == "k,sym_diff,card,ratio"
        sym1, card1 = symmetric_difference_cardinality(1, 1, generator(1, 0))
        assert lines[1] == f"1,{sym1},{card1},{float(Fraction(sym1, card1))!r}"

    def test_experiment_csv_deterministic(self, capsys):
        from heisgeo.ergodic import convergence_rows, make_quotient_action

        argv = ("ergodic", "--m", "3", "--target", "0", "--k-max", "5")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        lines = out.splitlines()[3:]
        assert lines[0] == "k,x_id,value,abs_err"
        assert len(lines) == 1 + 5 * 27
        act = make_quotient_action(1, 3)
        f = lambda y: Fraction(y == act.states[0])
        want = [f"{k},{x},{float(v)!r},{float(e)!r}"
                for k, x, v, e in convergence_rows(act, f, [3, 5])]
        assert [line for line in lines[1:] if line[0] in "35"] == want
        assert run(capsys, *argv)[1] == out


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heisgeo.cli", "ball", "--n", "1", "--k", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == "7\n"

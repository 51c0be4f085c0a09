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

    def test_cardinality_cap_is_3(self, capsys):
        # grid fits, predicted ball does not
        code, _, _ = run(capsys, "ball", "--n", "1", "--k", "40", "--cap", "7")
        assert code == 3

    def test_oversize_net_is_3(self, capsys):
        # a 321^5-cell grid is refused before any array is allocated
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

    def test_maximal_rows_hold(self, capsys):
        code, out, _ = run(capsys, "maximal", "--trials", "2", "--k-max", "4",
                           "--seed", "7")
        assert code == 0
        rows = out.splitlines()[4:]
        assert all(row.endswith("True") for row in rows)


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "heisgeo.cli", "ball", "--n", "1", "--k", "1"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout == "7\n"

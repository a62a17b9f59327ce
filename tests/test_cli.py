import json
import os
import resource
import subprocess
import sys

import pytest

from morphic.cli import main, parse_coding
from morphic.regularity import KERNEL_T_MAX
from morphic.witnesses import WITNESS_CAP
from morphic.words import WordDomainError, ternary_alphabet

TERN = ternary_alphabet()
PREFIX_32 = "01121220122020011220200120010112"
THUE_MORSE_16 = "0110100110010110"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_in_2gb(*argv):
    """The console script in a child process under a 2 GB address-space
    limit; one that runs past the timeout fails instead of hanging."""

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    return subprocess.run(
        [sys.executable, "-m", "morphic.cli", *argv],
        capture_output=True,
        text=True,
        preexec_fn=limit_memory,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"},
        timeout=120,
    )


class TestParseCoding:
    def test_positional(self):
        assert parse_coding("0,1,3", TERN).values == (0, 1, 3)

    def test_named(self, s3):
        assert parse_coding("c=3,a=0,b=1", s3.alphabet).values == (0, 1, 3)

    @pytest.mark.parametrize("text", ["", "0,1", "0,1,2,3", "a=0,1,2", "a=0,a=1,b=2", "x,y,z"])
    def test_rejects(self, text):
        with pytest.raises(WordDomainError):
            parse_coding(text, TERN)


class TestGenerate:
    def test_default_preset(self, capsys):
        code, out, _ = run(capsys, "generate", "--length", "32")
        assert code == 0 and out == PREFIX_32 + "\n"

    def test_sigma3(self, capsys):
        code, out, _ = run(capsys, "generate", "--preset", "sigma3", "--length", "9")
        assert code == 0 and out == "abcbcacab\n"

    def test_coded_output(self, capsys):
        code, out, _ = run(
            capsys, "generate", "--preset", "sigma3", "--length", "6", "--coding", "a=0,b=1,c=3"
        )
        assert code == 0 and out == "013130\n"

    def test_seed_override(self, capsys):
        code, out, _ = run(capsys, "generate", "--preset", "sigma3", "--length", "3", "--seed", "c")
        assert code == 0 and out == "cab\n"

    def test_morphism_file(self, capsys, tmp_path):
        f = tmp_path / "tm.txt"
        f.write_text("0 -> 01\n1 -> 10\n")
        code, out, _ = run(capsys, "generate", "--morphism", str(f), "--length", "16")
        assert code == 0 and out == THUE_MORSE_16 + "\n"

    def test_morphism_file_with_coding(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("a -> ab\nb -> ba\na = 0\nb = 12\n")
        code, out, _ = run(capsys, "generate", "--morphism", str(f), "--length", "4")
        assert code == 0 and out == "0,12,12,0\n"

    def test_negative_length_is_usage_error(self, capsys):
        code, out, err = run(capsys, "generate", "--length", "-5")
        assert code == 2 and out == ""
        assert err.startswith("morphic: ") and err.count("\n") == 1

    @pytest.mark.parametrize("ones", [3000, 2000, 2])
    def test_long_image_prefix_fits_in_2gb(self, tmp_path, ones):
        # 0 -> 0 1^2999, 1 -> 1^ones: one whole step past 9*10^6 symbols
        # would ask for more than 10^10, and padding every image to the
        # widest would ask for 1500 times the output at ones = 2
        f = tmp_path / "m.txt"
        f.write_text(f"0 -> 0{'1' * 2999}\n1 -> {'1' * ones}\n")
        out = tmp_path / "w.txt"
        proc = run_in_2gb("generate", "--morphism", str(f), "--length", "9000001", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == "0" + "1" * 9_000_000 + "\n"

    def test_slow_growth_is_linear_in_2gb(self, tmp_path):
        # each step adds one symbol; re-substituting the whole prefix per
        # step took quadratic time, past the timeout at this length
        f = tmp_path / "m.txt"
        f.write_text("a -> ab\nb -> b\n")
        out = tmp_path / "w.txt"
        proc = run_in_2gb("generate", "--morphism", str(f), "--length", "200000", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        assert out.read_text() == "a" + "b" * 199_999 + "\n"

    @pytest.mark.parametrize(
        "text, extra",
        [
            ("".join(f"{chr(97 + i)} -> {chr(97 + i)}a\n" for i in range(17)), []),
            ("a -> a\nb -> ab\n", []),
            ("a -> ba\nb -> ab\n", []),
            ("a -> ab\nb -> ba\n", ["--seed", "z"]),
        ],
        ids=["17-letters", "seed-image-of-length-1", "seed-image-not-led-by-seed", "unknown-seed"],
    )
    def test_hostile_morphism_file_is_usage_error(self, tmp_path, text, extra):
        f = tmp_path / "m.txt"
        f.write_text(text)
        proc = run_in_2gb("generate", "--morphism", str(f), "--length", "8", *extra)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("morphic: ") and proc.stderr.count("\n") == 1

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "generate", "--morphism", "/no/such/file", "--length", "4")
        assert code == 2 and "morphic:" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "w.txt"
        code, out, _ = run(capsys, "generate", "--length", "8", "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text() == "01121220\n"


class TestComplexity:
    def test_csv_deterministic(self, capsys):
        code, first, _ = run(capsys, "complexity", "--n-from", "1", "--n-to", "4")
        assert code == 0
        code, second, _ = run(capsys, "complexity", "--n-from", "1", "--n-to", "4")
        assert first == second
        assert first.splitlines()[0] == "n,rho,rho_ab,rho_plus,ds_min,ds_max,evenness"
        assert first.splitlines()[1] == "1,3,3,3,0,2,1"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "complexity", "--n-to", "2", "--format", "json")
        rows = json.loads(out)
        assert code == 0 and rows[1]["rho"] == 9

    def test_wide_coding_fits_in_2gb(self):
        proc = run_in_2gb("complexity", "--coding", "0,1,1000000000", "--n-to", "4")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1] == "1,3,3,3,0,1000000000,1"

    def test_window_over_cap_is_usage_error(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("a -> aaaaaaaaaaaaaaab\nb -> bb\n")
        code, _, err = run(capsys, "complexity", "--morphism", str(f), "--n-to", "100")
        assert code == 2
        assert "exceeds the cap" in err

    def test_late_factors_of_a_bounded_letter_morphism(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("a -> aaba\nb -> cb\nc -> c\n")
        code, out, _ = run(capsys, "complexity", "--morphism", str(f), "--n-to", "10")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert rows[7][:2] == ["8", "42"]
        assert rows[-1][:2] == ["10", "61"]

    def test_bounded_letter_window_over_cap_is_refused_in_2gb(self, tmp_path):
        f = tmp_path / "m.txt"
        f.write_text("a -> ad\nb -> b\nc -> cab\nd -> cbc\n")
        proc = run_in_2gb("complexity", "--morphism", str(f), "--n-to", "10")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("morphic: ") and proc.stderr.count("\n") == 1
        assert "exceeds the cap" in proc.stderr

    def test_bounded_letter_factors_over_cap_are_refused_in_2gb(self, tmp_path):
        # Chacon has 2n - 1 factors of each length n > 1: at n = 100000 the
        # walk would keep 20 GB of them
        f = tmp_path / "m.txt"
        f.write_text("0 -> 0010\n1 -> 1\n")
        proc = run_in_2gb("complexity", "--morphism", str(f), "--n-to", "100000")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("morphic: ") and proc.stderr.count("\n") == 1
        assert "exceed the cap" in proc.stderr

    def test_profile_over_cap_is_refused_in_2gb(self):
        proc = run_in_2gb("complexity", "--n-to", "400000")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("morphic: ") and proc.stderr.count("\n") == 1
        assert "profile cap" in proc.stderr

    def test_bad_range(self, capsys):
        code, _, err = run(capsys, "complexity", "--n-from", "5", "--n-to", "2")
        assert code == 2 and "morphic:" in err

    @pytest.mark.parametrize(
        "coding, n_from, n_to",
        [("0,1,1000000000000000000", "30", "31"), ("0,1,100000000000000000000", "1", "2")],
    )
    def test_digit_sums_past_int64_are_usage_errors(self, capsys, coding, n_from, n_to):
        code, out, err = run(capsys, "complexity", "--coding", coding, "--n-from", n_from, "--n-to", n_to)
        assert code == 2 and out == ""
        assert err.startswith("morphic: ") and "overflow int64" in err and err.count("\n") == 1


class TestVerify:
    def test_single_check(self, capsys):
        code, out, err = run(capsys, "verify", "dc-counts", "--n-max", "10")
        assert code == 0
        report = json.loads(out)
        assert report["check"] == "dc-counts" and report["failures"] == []
        assert "ok" in err

    def test_check_with_small_override(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem1", "--n-max", "64")
        assert code == 0 and json.loads(out)["tuples_checked"] == 64

    @pytest.mark.parametrize("n_max", ["0", "-3"])
    def test_nonpositive_n_max_is_usage_error(self, capsys, n_max):
        code, out, err = run(capsys, "verify", "theorem1", "--n-max", n_max)
        assert code == 2 and out == ""
        assert err.startswith("morphic: ")

    @pytest.mark.parametrize(
        "argv",
        [
            *(
                ["verify", name, "--n-max", "1000000000"]
                for name in (
                    "theorem1",
                    "ds-bounds",
                    "sigma-tau",
                    "mirror-closure",
                    "ivp-small",
                    "additive-recurrence",
                    "prop4",
                    "subword-recurrence",
                    "kernel",
                )
            ),
            ["ivp", "--n-to", "1000000000"],
            # windows under the window cap: these ran without bound
            # before their sweeps were capped
            *(["verify", name, "--n-max", "100000"] for name in ("sigma-tau", "mirror-closure", "ivp-small")),
        ],
        ids=lambda argv: argv[1] if argv[-1] == "1000000000" else "-".join(argv[1::2]),
    )
    def test_oversized_range_is_refused_before_sweeping(self, argv):
        # each sweep checks its cap or asks for its largest window first;
        # swept length by length, these ran for hours before a window
        # passed the cap
        proc = run_in_2gb(*argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("morphic: ") and proc.stderr.count("\n") == 1
        assert "exceeds the cap" in proc.stderr

    def test_unknown_check_is_usage_error(self, capsys):
        assert main(["verify", "nope"]) == 2

    def test_jobs_flag_is_gone(self, capsys):
        assert main(["verify", "tech-lemma", "--jobs", "2"]) == 2

    def test_all_rejects_n_max(self, capsys):
        code, _, err = run(capsys, "verify", "all", "--n-max", "5")
        assert code == 2 and "morphic:" in err

    def test_fixed_domain_check_rejects_n_max(self, capsys):
        code, out, err = run(capsys, "verify", "tech-lemma", "--n-max", "5")
        assert code == 2 and out == ""
        assert err.startswith("morphic: ") and "tech-lemma" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["verify", "dc-counts"], ["ivp", "--n-to", "4"]])
    def test_format_flag_is_gone(self, capsys, argv):
        assert main([*argv, "--format", "json"]) == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "rep.json"
        code, out, _ = run(
            capsys, "verify", "mirror-closure", "--n-max", "4", "--out", str(target)
        )
        assert code == 0
        assert json.loads(target.read_text())["check"] == "mirror-closure"
        assert "ok" in out


class TestIvp:
    def test_gap_free_coding(self, capsys):
        code, out, _ = run(
            capsys, "ivp", "--preset", "sigma3", "--coding", "0,1,2", "--n-from", "3", "--n-to", "30"
        )
        assert code == 0 and json.loads(out)["gaps"] == {}

    def test_gapped_coding(self, capsys):
        code, out, _ = run(
            capsys, "ivp", "--preset", "sigma3", "--coding", "0,1,3", "--n-from", "3", "--n-to", "30"
        )
        assert code == 1
        assert json.loads(out)["gaps"]["4"] == [3]

    def test_one_report_with_capped_failures(self, capsys):
        code, out, _ = run(capsys, "ivp", "--preset", "sigma3", "--coding", "0,1,3", "--n-to", "300")
        assert code == 1
        report = json.loads(out)
        assert report["check"] == "ivp" and report["range"] == "coding 0,1,3; 3<=n<=300"
        # lengths 3m+1 miss exactly 4m-1, lengths 3m+2 miss exactly 4m+5
        expected = {str(3 * m + 1): [4 * m - 1] for m in range(1, 100)}
        expected.update({str(3 * m + 2): [4 * m + 5] for m in range(1, 100)})
        assert report["gaps"] == expected and len(expected) == 198
        assert len(report["failures"]) == 33
        assert report["failures"][0] == "n=4: 1 missing, least 3"
        assert report["failures"][-1] == "... further failures suppressed"

    def test_wide_census_is_refused_in_2gb(self):
        proc = run_in_2gb("ivp", "--coding", "0,1,1000000000", "--n-from", "1", "--n-to", "4")
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("morphic: ") and proc.stderr.count("\n") == 1


class TestKernel:
    def test_closed(self, capsys):
        code, out, _ = run(capsys, "verify", "kernel", "--n-max", "16")
        assert code == 0
        report = json.loads(out)
        assert report["tuples_checked"] == 127 * 16
        assert report["notes"][-1] == "127 subsequences, 7 distinct as sequences (source: closed)"

    def test_subcommand_is_gone(self, capsys):
        assert main(["kernel", "--e-max", "6", "--len", "256"]) == 2


class TestWitness:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "witness", "--length", "8")
        assert code == 0 and out == "n=8 k=3 digit_sum=12 word=21220122\n"

    def test_json(self, capsys):
        code, out, _ = run(capsys, "witness", "--length", "4", "--format", "json")
        payload = json.loads(out)
        assert code == 0
        assert (payload["word"], payload["left"], payload["right"]) == ("2122", "2", "122")

    def test_over_cap_is_refused_in_2gb(self):
        proc = run_in_2gb("witness", "--length", str(WITNESS_CAP + 1), "--format", "json")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("morphic: ") and proc.stderr.count("\n") == 1
        assert "exceeds the cap" in proc.stderr


# one small run of each subcommand, which writes its output to --out
SUBCOMMANDS = {
    "generate": ["generate", "--length", "4"],
    "complexity": ["complexity", "--n-to", "4"],
    "verify": ["verify", "theorem1", "--n-max", "4"],
    "ivp": ["ivp", "--n-to", "4"],
    "witness": ["witness", "--length", "3"],
}


class TestUsageErrors:
    """Bad input exits 2 with one ``morphic: `` line and no stdout."""

    @staticmethod
    def assert_usage_error(code, out, err, message=""):
        assert code == 2 and out == ""
        assert err.startswith("morphic: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("target", ["missing-directory", "directory"])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_unwritable_out(self, capsys, tmp_path, command, target):
        path = tmp_path / "missing" / "out.txt" if target == "missing-directory" else tmp_path
        self.assert_usage_error(*run(capsys, *SUBCOMMANDS[command], "--out", str(path)))

    def test_morphism_file_not_utf8(self, capsys, tmp_path):
        f = tmp_path / "m.txt"
        f.write_bytes(b"a -> ab\xff\nb -> ba\n")
        code, out, err = run(capsys, "generate", "--morphism", str(f), "--length", "4")
        self.assert_usage_error(code, out, err, f"{f}: not UTF-8 text")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--coding", "a=1,a=2,b=0"], "coding repeats letter"),
            (["--coding", "a=1,b=x,c=0"], "bad coding value"),
            (["--coding", "a=1,b=2"], "coding must cover every letter"),
            (["--morphism", "FILE"], "bad letter token"),
            (["witness", "--length", str(WITNESS_CAP + 1)], "exceeds the cap"),
            (["verify", "kernel", "--n-max", str(KERNEL_T_MAX + 1)], "exceeds the cap"),
        ],
        ids=["repeated-letter", "bad-value", "uncovered-letter", "bad-letter-token", "witness-cap", "kernel-cap"],
    )
    def test_input_error(self, capsys, tmp_path, argv, message):
        f = tmp_path / "m.txt"
        f.write_text("a b -> ab\n")
        if argv[0].startswith("--"):
            argv = ["generate", "--preset", "sigma3", "--length", "4", *argv]
        argv = [str(f) if a == "FILE" else a for a in argv]
        self.assert_usage_error(*run(capsys, *argv), message)


def test_console_script_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "morphic.cli", "generate", "--length", "16"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == PREFIX_32[:16]

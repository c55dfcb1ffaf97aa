"""Command-line front end: parsing, exit codes, artifacts, fixtures."""

import json
import os
import pathlib
import subprocess
import sys
import types

import numpy as np
import pytest

from kakeya import cli, measure
from kakeya.cli import main
from kakeya.ring import (padic_ring, parse_element, power_series_ring,
                         truncate)

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPhiEval:
    def test_zero_input_zero_output(self, capsys):
        code, out, _ = run(capsys, "phi-eval", "--ring", "fq", "--ell", "2",
                           "--x", "fq:2:0:0", "--depth", "8")
        assert code == 0
        e = parse_element(out.strip())
        assert e.is_zero and e.depth == 8

    def test_depth_prefix_property(self, capsys):
        x = "fq:2:0:" + ",".join("1101001101101"[i] for i in range(13))
        code6, out6, _ = run(capsys, "phi-eval", "--x", x, "--depth", "6")
        code9, out9, _ = run(capsys, "phi-eval", "--x", x, "--depth", "9")
        assert code6 == code9 == 0
        e6, e9 = parse_element(out6.strip()), parse_element(out9.strip())
        assert truncate(e9, 6) == e6

    def test_malformed_input_exit1_no_output(self, capsys):
        code, out, err = run(capsys, "phi-eval", "--x", "bogus", "--depth", "4")
        assert code == 1 and out == "" and "malformed" in err

    def test_short_digit_string_is_exact(self, capsys):
        # a digit string lists all nonzero digits, so evaluation at any
        # depth succeeds and agrees with the zero-padded spelling, also
        # when every digit lies below degree 0
        for short, padded, depth in (
                ("fq:2:0:1,1", "fq:2:0:1,1,0,0,0,0,0,0,0,0", "8"),
                ("fq:2:-3:1", "fq:2:-3:1,0,0,0", "3")):
            code, out, _ = run(capsys, "phi-eval", "--x", short,
                               "--depth", depth)
            code2, out2, _ = run(capsys, "phi-eval", "--x", padded,
                                 "--depth", depth)
            assert code == code2 == 0 and out == out2

    def test_digits_below_degree0_reach_the_rule_errors(self, capsys):
        """An input that parses now fails where the evaluation is defined
        on R only, with that evaluation's own error."""
        code, out, err = run(capsys, "phi-dh-eval", "--x", "fq:2:-3:1",
                             "--depth", "3")
        assert code == 1 and out == "" and "defined on R only" in err
        code, out, err = run(capsys, "decompose", "--x", "fq:2:-3:1",
                             "--w", "fq:2:0:1,1", "--N", "3", "--depth", "12")
        assert code == 1 and out == "" and "taken over R^p" in err

    def test_ring_mismatch_against_flags(self, capsys):
        code, _, err = run(capsys, "phi-eval", "--ring", "zp", "--ell", "3",
                           "--x", "fq:2:0:1", "--depth", "2")
        assert code == 1 and "does not match" in err

    def test_large_ell_builds_no_ell_digit_integer(self):
        """At ell = 1000003 the member that phi reads has ell slots of
        ell^2 values each: decoding its small index builds neither
        |Omega_1| = (ell^2)^ell nor a power of half its slots, so the
        command answers well within the timeout."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-m", "kakeya", "phi-eval", "--ring", "fq",
             "--ell", "1000003", "--x", "fq:1000003:0:1000002,5",
             "--depth", "2"], capture_output=True, text=True, env=env,
            timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "fq:1000003:1:5\n"

    def test_multi_component(self, capsys):
        x1 = "fq:2:0:1,0,1,1,0,1,0,0,1,1"
        x2 = "fq:2:0:0,1,1,0,1,0,1,1,0,0"
        code, out, _ = run(capsys, "phi-eval", "--x", x1, "--x", x2,
                           "--depth", "4", "--q-dim", "2")
        assert code == 0
        assert len(out.strip().splitlines()) == 2


class TestPhiDhEval:
    def test_rule_applied(self, capsys):
        code, out, _ = run(capsys, "phi-dh-eval", "--x",
                           "fq:2:0:1,1,1,1,1,1,1,1,1", "--depth", "8")
        assert code == 0
        e = parse_element(out.strip())
        assert [e.digit(j) for j in range(8)] == [0, 1, 0, 1, 1, 1, 0, 1]

    def test_more_than_one_x_refused(self, capsys):
        """The rule is scalar-only: a second --x is an error, not dropped."""
        x = "fq:2:0:1,1,1,1,1,1,1,1,1"
        code, out, err = run(capsys, "phi-dh-eval", "--x", x, "--x", x,
                             "--depth", "8")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "one --x" in err

    def test_depth_below_one_same_error_as_phi_eval(self, capsys):
        """Both evaluators take their input depth from one rule, which
        refuses an output depth below 1 before any input is parsed."""
        x = "fq:2:0:1,1,1"
        for depth in ("0", "-2"):
            dh = run(capsys, "phi-dh-eval", "--x", x, "--depth", depth)
            sawyer = run(capsys, "phi-eval", "--x", x, "--depth", depth)
            assert dh == sawyer == (
                1, "", f"error: output depth must be >= 1, got {depth}\n")


class TestMeasure:
    def test_csv_row_count(self, capsys):
        code, out, _ = run(capsys, "measure", "--ring", "fq", "--ell", "2",
                           "--phi", "sawyer", "--family", "kakeya",
                           "--dmin", "2", "--dmax", "6")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6  # header + 5 rows
        assert lines[0].startswith("D,hit_cells")

    def test_fixture_match_exit0(self, capsys):
        code, _, _ = run(capsys, "measure", "--dmin", "2", "--dmax", "10",
                         "--fixture", str(FIXTURES / "decay_kakeya_sawyer_fq2.csv"))
        assert code == 0

    def test_fixture_mismatch_exit3(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        text = (FIXTURES / "decay_kakeya_sawyer_fq2.csv").read_text()
        for bad_text in (text.replace("5/8", "1/2"), ""):
            bad.write_text(bad_text)
            code, _, err = run(capsys, "measure", "--dmin", "2", "--dmax", "10",
                               "--fixture", str(bad))
            assert code == 3 and "mismatch" in err

    def test_budget_exit2_with_counts(self, capsys):
        code, out, err = run(capsys, "measure", "--ring", "fq", "--ell", "3",
                             "--dmin", "2", "--dmax", "30")
        assert code == 2 and out == ""
        assert "budget" in err and ">" in err

    def test_experimental_flag_for_carrying_dh(self, capsys):
        code, out, _ = run(capsys, "measure", "--ring", "zp", "--phi", "dh",
                           "--dmin", "2", "--dmax", "3", "--format", "json")
        assert code == 0
        assert json.loads(out)["experimental"] is True
        code, out, _ = run(capsys, "measure", "--ring", "fq", "--phi", "dh",
                           "--dmin", "2", "--dmax", "3", "--format", "json")
        assert json.loads(out)["experimental"] is False

    def test_atomic_write_leaves_no_temp(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code, out, _ = run(capsys, "measure", "--dmin", "2", "--dmax", "3",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.exists()
        assert list(tmp_path.iterdir()) == [target]

    def test_byte_identical_reruns_modulo_seconds(self, capsys):
        def normalized():
            _, out, _ = run(capsys, "measure", "--dmin", "2", "--dmax", "5")
            lines = out.strip().splitlines()
            return ["," .join(line.split(",")[:-1]) for line in lines]
        assert normalized() == normalized()

    def test_refinement_violation_exit4(self, capsys, monkeypatch):
        def rising(fam, phi_variant, D, **kw):
            # empty at depth 2, full at depth 3: the estimate rises
            bits = np.full(2 ** (2 * D), D > 2)
            return measure.CellSet(depth=D, ell=2, w_dim=1, z_dim=1,
                                   bits=bits)
        monkeypatch.setattr(measure, "build_set_cells", rising)
        code, out, err = run(capsys, "measure", "--dmin", "2", "--dmax", "3")
        assert code == 4 and out == ""
        assert err.startswith("error: refinement violated")

    def test_env_budget_override(self, capsys, monkeypatch):
        monkeypatch.setenv("KAKEYA_BUDGET_CELLS", "10")
        code, _, err = run(capsys, "measure", "--dmin", "2", "--dmax", "3")
        assert code == 2 and "cells" in err
        # explicit flag beats the environment
        code, _, _ = run(capsys, "measure", "--dmin", "2", "--dmax", "3",
                         "--budget-cells", str(2 ** 20))
        assert code == 0

    def test_out_of_memory_exit2(self, capsys, monkeypatch):
        """Raised budgets can admit a bitmap the machine cannot hold; the
        failure is one error line and exit 2, not a traceback."""
        def oom(*args, **kw):
            raise MemoryError
        monkeypatch.setattr(cli, "decay_report", oom)
        code, out, err = run(capsys, "measure", "--dmin", "2", "--dmax", "3")
        assert (code, out) == (2, "")
        assert err == "error: out of memory\n"

    def test_int64_headroom_exit1(self, capsys, monkeypatch):
        # raised budgets let ell^(2D) pass 2^63; the depth is refused
        monkeypatch.setenv("KAKEYA_BUDGET_CELLS", str(2 ** 80))
        code, out, err = run(capsys, "measure", "--ring", "zp", "--ell", "7",
                             "--dmin", "12", "--dmax", "12",
                             "--budget-pairs", str(2 ** 80))
        assert code == 1 and out == ""
        assert err.startswith("error: depth 12") and "2^63" in err

    @pytest.mark.parametrize("tag, make", (("zp", padic_ring),
                                           ("fq", power_series_ring)))
    def test_cli_rings_are_the_factory_specs(self, capsys, monkeypatch, tag,
                                             make):
        """The family a command builds, its configured ring and a parsed
        element are over the factory's one spec, so ring checks pass on
        identity."""
        seen = []

        def spy(fam, *args, **kwargs):
            seen.append(fam.ring)
            return measure.decay_report(fam, *args, **kwargs)
        monkeypatch.setattr(cli, "decay_report", spy)
        code, _, err = run(capsys, "measure", "--ring", tag, "--ell", "3",
                           "--dmin", "1", "--dmax", "2")
        assert code == 0, err
        assert seen and seen[0] is make(3)
        assert cli.RunConfig(ring=tag, ell=5).ring_spec() is make(5)
        assert parse_element(f"{tag}:3:0:1,2").ring is make(3)


class TestConfigFile:
    def test_precedence_flags_over_file_over_defaults(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dmin=3\ndmax=4\nring=fq\n")
        code, out, _ = run(capsys, "measure", "--config", str(cfg))
        assert code == 0
        assert [l.split(",")[0] for l in out.strip().splitlines()[1:]] == ["3", "4"]
        code, out, _ = run(capsys, "measure", "--config", str(cfg),
                           "--dmax", "5")
        assert [l.split(",")[0] for l in out.strip().splitlines()[1:]] == \
            ["3", "4", "5"]

    def test_file_budget_beats_env_budget(self, capsys, tmp_path,
                                          monkeypatch):
        """KAKEYA_BUDGET_CELLS replaces the default cell budget, so a
        config file's budget beats it (and a flag beats both, see
        test_env_budget_override)."""
        monkeypatch.setenv("KAKEYA_BUDGET_CELLS", "10")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"budget_cells={2 ** 20}\n")
        code, _, err = run(capsys, "measure", "--dmin", "2", "--dmax", "3",
                           "--config", str(cfg))
        assert code == 0, err

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dminn=3\n")
        code, _, err = run(capsys, "measure", "--config", str(cfg))
        assert code == 1 and "unknown config key" in err

    def test_invalid_combination_single_aggregated_error(self, capsys):
        code, _, err = run(capsys, "measure", "--ring", "zp", "--ell", "4",
                           "--dmin", "5", "--dmax", "2")
        assert code == 1
        assert err.count("error:") == 1
        assert "prime" in err and "dmin" in err


class TestCoverage:
    def test_missing_zero(self, capsys):
        code, out, _ = run(capsys, "coverage", "--depth", "5")
        assert code == 0
        assert "missing:0" in out
        assert "vertical:excluded-by-design" in out

    def test_nikodym_dh(self, capsys):
        code, out, _ = run(capsys, "coverage", "--depth", "4",
                           "--family", "nikodym", "--phi", "dh")
        assert code == 0 and "missing:0" in out

    def test_pairs_charged_once_not_per_w(self, capsys):
        """The audit reads its 2^15 dh pairs once and visits no w, so the
        default pair budget (2^28) admits D 14, whose 2^14 w cells would
        have charged 2^29; its 2^28 cells fit the cell budget."""
        code, out, err = run(capsys, "coverage", "--phi", "dh", "--ell", "2",
                             "--depth", "14")
        assert code == 0, err
        assert "missing:0" in out

    def test_depth_below_one_exit1(self, capsys):
        """Both phi variants refuse a depth below 1 with one error line and
        no traceback."""
        for phi in ("dh", "sawyer"):
            for depth in ("0", "-1"):
                code, out, err = run(capsys, "coverage", "--phi", phi,
                                     "--depth", depth)
                assert code == 1 and out == ""
                assert err == f"error: depth {depth} must be >= 1\n"


class TestCertify:
    def test_minimal_table(self, capsys):
        code, out, _ = run(capsys, "certify", "--A", "1", "--B", "0",
                           "--nmax", "1000000", "--ell", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lemma,A,B,N,holds,inequality"
        got = {l.split(",")[0]: int(l.split(",")[3]) for l in lines[1:]}
        assert got == {"I": 1, "II": 3, "III": 3, "IV": 2, "V": 1}

    def test_composite_ell_from_2_64_exit1(self, capsys):
        """399165290221 * 798330580441 is the first composite that passes
        all twelve Miller-Rabin bases, which are proved exact for 64-bit
        inputs: it is refused by size, as 4 is as a composite."""
        for ell, why in (("318665857834031151167461", "below 2^64"),
                         ("4", "must be prime")):
            code, out, err = run(capsys, "certify", "--A", "0", "--B", "0",
                                 "--nmax", "10", "--ell", ell)
            assert (code, out) == (1, "")
            assert why in err and err.count("error:") == 1

    def test_nmax_below_one_exit1(self, capsys):
        """An empty scan is refused, not reported as five failed rows."""
        for nmax in ("0", "-5"):
            code, out, err = run(capsys, "certify", "--A", "0", "--B", "0",
                                 "--nmax", nmax)
            assert (code, out) == (1, "")
            assert err == f"error: n_max must be >= 1, got {nmax}\n"


class TestDiffExample:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "diff-example", "--p", "2", "--kmax", "100",
                           "--alpha", "1/10")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,strict_margin,very_strong_margin"
        assert len(lines) == 101
        assert lines[8].split(",")[1] == "4"  # g(8)

    @pytest.mark.parametrize("argv", (("--p", "1", "--alpha", "1/10"),
                                      ("--p", "0", "--alpha", "1/10"),
                                      ("--p", "2", "--alpha", "1/0")),
                             ids=("p1", "p0", "alpha-zero-denominator"))
    def test_bad_arguments_exit1(self, capsys, argv):
        code, out, err = run(capsys, "diff-example", "--kmax", "10", *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestDecompose:
    def test_identity_reported(self, capsys):
        x = "fq:2:0:" + ",".join(["1", "0"] * 11)
        w = "fq:2:0:" + ",".join(["1"] * 14)
        code, out, _ = run(capsys, "decompose", "--x", x, "--w", w,
                           "--N", "3", "--depth", "12")
        assert code == 0
        assert "sum_identity:ok" in out
        assert out.count("\n") == 8  # six terms + f + identity line

    def test_identity_violation_exit4(self, capsys, monkeypatch):
        real = cli.term_decomposition

        def broken(*args):
            td = real(*args)
            return types.SimpleNamespace(terms=td.terms, f_value=td.f_value,
                                         identity_holds=lambda: False)
        monkeypatch.setattr(cli, "term_decomposition", broken)
        x = "fq:2:0:" + ",".join(["1", "0"] * 11)
        w = "fq:2:0:" + ",".join(["1"] * 14)
        code, out, _ = run(capsys, "decompose", "--x", x, "--w", w,
                           "--N", "3", "--depth", "12")
        assert code == 4 and "sum_identity:VIOLATED" in out

    def test_landmark_below_one_exit1(self, capsys):
        code, out, err = run(capsys, "decompose", "--x", "fq:2:0:1",
                             "--w", "fq:2:0:1", "--N", "-3", "--depth", "3")
        assert (code, out) == (1, "")
        assert err == "error: need N >= 1, got -3\n"

    def test_w_with_more_than_d_entries_exit1(self, capsys):
        """A second --w is refused, not silently dropped."""
        code, out, err = run(capsys, "decompose", "--x", "fq:2:0:1",
                             "--w", "fq:2:0:1", "--w", "fq:2:0:1",
                             "--N", "1", "--depth", "3")
        assert (code, out) == (1, "")
        assert err == "error: w has 2 entries, need d = 1\n"


class TestParserReuse:
    """One parser serves every ``main`` call of a process; no parsed value
    of one call reaches the next."""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_appended_flags_do_not_accumulate(self, capsys):
        x1 = "fq:2:0:1,0,1,1,0,1,0,0,1,1"
        x2 = "fq:2:0:0,1,1,0,1,0,1,1,0,0"
        code, out, _ = run(capsys, "phi-eval", "--x", x1, "--x", x2,
                           "--depth", "4", "--q-dim", "2")
        assert code == 0 and len(out.strip().splitlines()) == 2
        code, out, _ = run(capsys, "phi-eval", "--x", x1, "--depth", "4")
        assert code == 0 and len(out.strip().splitlines()) == 1

    def test_format_falls_back_to_csv(self, capsys):
        argv = ("measure", "--dmin", "2", "--dmax", "3")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0 and json.loads(out)["rows"][0]["D"] == 2
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("D,hit_cells")

    def test_budget_falls_back_to_default(self, capsys, monkeypatch):
        monkeypatch.delenv("KAKEYA_BUDGET_CELLS", raising=False)
        argv = ("measure", "--dmin", "2", "--dmax", "3")
        code, out, err = run(capsys, *argv, "--budget-cells", "10")
        assert code == 2 and out == "" and "cells" in err
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.startswith("D,hit_cells")


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_flag(self, capsys):
        assert run(capsys, "measure", "--bogus")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

"""Command-line behavior: parsing, output formats, exit statuses."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from xft import cli
from xft.cli import build_parser, load_signal, main
from xft.errors import InputParseError
from xft.hermite import asymptotic_grid
from xft.metrics import leakage_mean
from xft.signals import CORPUS_NAMES, SignalSpec, sample
from xft.transform import frft_forward, xft_forward


def run_to_file(tmp_path, args, name="out.txt"):
    path = tmp_path / name
    status = main(args + ["--out", str(path)])
    return status, path.read_text()


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if ln]
    assert lines[-1].startswith("# summary ")
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:-1]]
    summary = {}
    for token in lines[-1][len("# summary "):].split():
        k, _, v = token.partition("=")
        summary[k] = v
    return header, rows, summary


def ref_column(rows):
    return np.array([complex(float(r[5]), float(r[6])) for r in rows])


class TestParsing:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_missing_n(self):
        with pytest.raises(SystemExit) as exc:
            main(["fft", "--signal", "rect"])
        assert exc.value.code == 2

    def test_signal_and_input_are_exclusive(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["fft", "--n", "2", "--signal", "rect", "--input", str(path)])
        assert exc.value.code == 2

    def test_neither_signal_nor_input(self):
        with pytest.raises(SystemExit) as exc:
            main(["fft", "--n", "8"])
        assert exc.value.code == 2

    def test_compare_requires_corpus_signal(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1.0\n2.0\n")
        with pytest.raises(SystemExit) as exc:
            main(["fft", "--n", "2", "--input", str(path), "--compare"])
        assert exc.value.code == 2

    def test_bad_param_syntax(self):
        with pytest.raises(SystemExit) as exc:
            main(["fft", "--n", "8", "--signal", "gauss_beta", "--param", "beta:2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flags", [
        ["--n", "8", "--signal", "gauss_beta", "--param", "beta=abc"],
        ["--n", "0", "--signal", "rect"],
    ], ids=["param-not-a-number", "n-zero"])
    def test_bad_value_is_a_usage_error(self, flags):
        with pytest.raises(SystemExit) as exc:
            main(["fft"] + flags)
        assert exc.value.code == 2

    def test_z_mod_range(self):
        with pytest.raises(SystemExit) as exc:
            main(["frft", "--n", "8", "--signal", "rect", "--z-mod", "1.5", "--z-arg", "1.0"])
        assert exc.value.code == 2

    def test_frft_requires_z_arg(self):
        with pytest.raises(SystemExit) as exc:
            main(["frft", "--n", "8", "--signal", "rect"])
        assert exc.value.code == 2

    def test_bench_exponent_order(self):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--min-exp", "8", "--max-exp", "7"])
        assert exc.value.code == 2

    def test_parser_prog_name(self):
        assert build_parser().prog == "xft"


class TestLoadSignal:
    def test_one_column(self, tmp_path):
        path = tmp_path / "a.csv"
        path.write_text("1.0\n-2.5\n")
        out = load_signal(str(path))
        assert np.array_equal(out, np.array([1.0, -2.5], dtype=np.complex128))

    def test_two_columns_and_blank_lines(self, tmp_path):
        path = tmp_path / "b.csv"
        path.write_text("1.0, 2.0\n\n0.5,-1.0\n")
        out = load_signal(str(path))
        assert np.array_equal(out, np.array([1 + 2j, 0.5 - 1j]))

    def test_three_columns_reports_line(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("1.0\n1,2,3\n")
        with pytest.raises(InputParseError, match="line 2"):
            load_signal(str(path))

    def test_malformed_number_reports_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1.0\n2.0\nx\n")
        with pytest.raises(InputParseError, match="line 3"):
            load_signal(str(path))

    def test_missing_file(self):
        with pytest.raises(InputParseError):
            load_signal("/nonexistent/file.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("\n\n")
        with pytest.raises(InputParseError):
            load_signal(str(path))


class TestTransformRuns:
    def test_harmonic_csv_summary(self, tmp_path):
        status, text = run_to_file(
            tmp_path, ["fft", "--n", "9", "--signal", "harmonic", "--param", "m=2"])
        assert status == 0
        header, rows, summary = parse_csv(text)
        assert header == ["j", "omega_re", "omega_im", "G_re", "G_im"]
        assert len(rows) == 9
        assert summary["convention"] == "paper"
        height = math.pi * 9 / (2.0 * math.sqrt(18.0))
        assert abs(float(summary["peak_frequency"]) - 8.0 / math.sqrt(18.0)) < 1e-12
        assert float(summary["leakage_mean"]) < 1e-9 * height
        mags = sorted(math.hypot(float(r[3]), float(r[4])) for r in rows)
        assert abs(mags[-1] - height) < 1e-9

    def test_compare_adds_reference_columns(self, tmp_path):
        status, text = run_to_file(
            tmp_path, ["fft", "--n", "512", "--signal", "chirp_cos", "--compare"])
        assert status == 0
        header, rows, summary = parse_csv(text)
        assert header[-3:] == ["ref_re", "ref_im", "abs_err"]
        assert abs(float(summary["max_norm"]) - 2.1169) < 0.01
        errs = [float(r[-1]) for r in rows]
        assert abs(max(errs) - float(summary["max_norm"])) < 1e-12

    def test_frft_compare_gauss(self, tmp_path):
        # the gauss_beta closed form holds on the whole disk, not only |z| = 1
        for z_mod in ("1", "0.9"):
            status, text = run_to_file(
                tmp_path,
                ["frft", "--n", "256", "--signal", "gauss_beta", "--param", "beta=2",
                 "--z-arg", "1.0", "--z-mod", z_mod, "--compare"])
            assert status == 0
            _, _, summary = parse_csv(text)
            assert float(summary["max_norm"]) < 1e-10

    @pytest.mark.parametrize("args", [
        ["fft", "--n", "64", "--signal", "rect", "--compare"],
        ["frft", "--n", "64", "--z-mod", "0.9", "--z-arg", "1.2", "--signal", "gauss_beta",
         "--param", "beta=1", "--convention", "namias"]], ids=["compare", "damped_namias"])
    def test_json_matches_csv_exactly(self, tmp_path, args):
        s1, csv_text = run_to_file(tmp_path, args, "a.csv")
        s2, json_text = run_to_file(tmp_path, args + ["--format", "json"], "a.json")
        assert s1 == s2 == 0
        header, rows, summary = parse_csv(csv_text)
        payload = json.loads(json_text)
        # abs_err is the one CSV-only column, present exactly with --compare
        columns = header[1:-1] if "--compare" in args else header[1:]
        assert (header[-1] == "abs_err") == ("--compare" in args)
        assert list(payload) == ["convention", *(name.lower() for name in columns), "summary"]
        assert [int(r[0]) for r in rows] == list(range(64))
        # 17 significant digits round-trip float64 exactly
        for i, name in enumerate(columns, start=1):
            assert [float(r[i]) for r in rows] == payload[name.lower()]
        assert payload["convention"] == payload["summary"]["convention"] == summary["convention"]
        assert list(summary) == list(payload["summary"])
        for key, value in payload["summary"].items():
            assert summary[key] == value if key == "convention" else float(summary[key]) == value

    def test_input_file_roundtrip(self, tmp_path):
        n = 16
        sig = tmp_path / "g.csv"
        sig.write_text("\n".join("1.0,0.0" for _ in range(n)) + "\n")
        status, text = run_to_file(tmp_path, ["fft", "--n", str(n), "--input", str(sig)])
        assert status == 0
        _, rows, _ = parse_csv(text)
        assert len(rows) == n

    def test_input_row_count_mismatch(self, tmp_path, capsys):
        sig = tmp_path / "g.csv"
        sig.write_text("1.0\n2.0\n3.0\n")
        status = main(["fft", "--n", "4", "--input", str(sig)])
        assert status == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("arg", ["nan", "inf", "-inf"])
    def test_non_finite_z_is_out_of_domain(self, arg, capsys):
        status = main(["frft", "--n", "8", "--signal", "rect", f"--z-arg={arg}"])
        assert status == 1
        assert "error: z = (nan+nanj) is not a finite number" in capsys.readouterr().err

    def test_damped_overflow_is_an_error(self, tmp_path, capsys):
        status = main(["frft", "--n", "1024", "--z-mod", "0.5", "--z-arg", "0.1", "--signal", "rect",
                       "--out", str(tmp_path / "out.csv")])
        assert status == 1
        assert "error: chirp at N = 1024" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    def test_namias_convention_rescales(self, tmp_path):
        base = ["fft", "--n", "32", "--signal", "gauss_beta", "--param", "beta=0"]
        _, paper_text = run_to_file(tmp_path, base + ["--convention", "paper"], "p.csv")
        _, namias_text = run_to_file(tmp_path, base + ["--convention", "namias"], "n.csv")
        _, p_rows, _ = parse_csv(paper_text)
        _, n_rows, _ = parse_csv(namias_text)
        scale = math.sqrt(2.0 * math.pi)
        for j in (0, 16, 31):
            assert abs(float(p_rows[j][3]) - scale * float(n_rows[j][3])) < 1e-12
        # with --compare the references and the error summary take the same scale
        base = ["fft", "--n", "64", "--signal", "chirp_cos", "--compare"]
        _, paper_text = run_to_file(tmp_path, base, "pc.csv")
        _, namias_text = run_to_file(tmp_path, base + ["--convention", "namias"], "nc.csv")
        _, p_rows, p_summary = parse_csv(paper_text)
        _, n_rows, n_summary = parse_csv(namias_text)
        # namias divides the complex paper references by sqrt(2 pi), bit for bit
        assert np.array_equal(ref_column(n_rows), ref_column(p_rows) / scale)
        assert n_summary["convention"] == "namias"
        for key in ("max_norm", "max_norm_real", "max_norm_imag"):
            assert float(n_summary[key]) * scale == pytest.approx(float(p_summary[key]), rel=1e-14)

    @pytest.mark.parametrize("name,param", [(name, "c=2") for name in CORPUS_NAMES]
                             + [("rect", "beta=2")])
    def test_parameter_the_signal_does_not_take(self, name, param, capsys):
        status = main(["fft", "--n", "64", "--signal", name, "--param", param, "--compare"])
        assert status == 1
        key = param.partition("=")[0]
        assert f"error: signal '{name}' does not take {key}; accepted:" in capsys.readouterr().err

    # id -> (argv with {dir} for the test's directory, exit status, stderr fragment)
    REFUSALS = {
        "damped_overflow": (["frft", "--n", "1024", "--z-mod", "0.5", "--z-arg", "0.1",
                             "--signal", "rect"], 1, "chirp at N = 1024"),
        "negative_b": (["fft", "--n", "64", "--signal", "cauchy_exp", "--param", "b=-1"], 1,
                       "cauchy_exp requires b > 0"),
        "missing_beta": (["fft", "--n", "64", "--signal", "gauss_beta"], 1,
                         "requires parameter 'beta'"),
        "m_and_omega0": (["fft", "--n", "64", "--signal", "harmonic", "--param", "m=2",
                          "--param", "omega0=1"], 1, "exactly one of parameters 'm', 'omega0'"),
        "nan_input_row": (["fft", "--n", "3", "--input", "{dir}/nan.csv"], 1,
                          "signal contains NaN or Inf samples"),
        "input_with_param": (["fft", "--n", "3", "--input", "{dir}/ok.csv", "--param", "b=2"], 2,
                             "--param and --compare need a corpus --signal"),
        "non_utf8_input": (["fft", "--n", "1", "--input", "{dir}/latin1.csv"], 1,
                           "latin1.csv: 'utf-8' codec"),
        "out_in_missing_dir": (["fft", "--n", "8", "--signal", "rect", "--out",
                                "{dir}/missing/out.csv"], 1, "No such file or directory"),
        "out_is_a_dir": (["fft", "--n", "8", "--signal", "rect", "--out", "{dir}"], 1,
                         "Is a directory"),
        "reference_overflow": (["fft", "--n", "64", "--signal", "gauss_beta", "--param", "beta=38",
                                "--compare"], 1,
                               "closed form of 'gauss_beta' overflows float64 at these abscissae"),
        "nan_param": (["fft", "--n", "8", "--signal", "cauchy_exp", "--param", "b=nan"], 1,
                      "parameter 'b' of 'cauchy_exp' must be a finite real number"),
        "inf_param_compare": (["fft", "--n", "8", "--signal", "cauchy_exp", "--param", "b=inf",
                               "--compare"], 1,
                              "parameter 'b' of 'cauchy_exp' must be a finite real number"),
        # past any address space, so numpy refuses before it allocates, yet below its 2^60
        # "array is too big" limit
        "huge_n": (["fft", "--n", str(10 ** 15), "--signal", "rect"], 1, "error: Unable to allocate"),
        "huge_bench": (["bench", "--min-exp", "45", "--max-exp", "45"], 1,
                       "error: Unable to allocate"),
    }

    @pytest.mark.parametrize("argv,status,fragment", REFUSALS.values(), ids=REFUSALS)
    def test_refusal_is_one_error_line(self, tmp_path, capsys, argv, status, fragment):
        (tmp_path / "nan.csv").write_text("1.0\nnan\n2.0\n")
        (tmp_path / "ok.csv").write_text("1.0\n0.5\n2.0\n")
        (tmp_path / "latin1.csv").write_bytes("\u00e9\n".encode("latin-1"))
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        if status == 2:  # usage errors leave through argparse
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
        else:
            assert main(argv) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        errors = [ln for ln in lines if "error:" in ln]
        assert len(errors) == 1 and errors[0] == lines[-1]
        assert fragment in errors[0]
        assert "Traceback" not in captured.err and captured.out == ""
        if status == 1:
            assert lines == errors and errors[0].startswith("error: ")

    def test_stdout_when_no_out_path(self, capsys):
        status = main(["fft", "--n", "8", "--signal", "constant_one"])
        assert status == 0
        text = capsys.readouterr().out
        assert text.splitlines()[0].startswith("j,omega_re")

    def test_harmonic_damped_z_omits_peak_frequency(self, tmp_path):
        # below |z| = 1 the abscissae leave the real axis, so there is no peak to report
        status, text = run_to_file(
            tmp_path, ["frft", "--n", "64", "--z-arg", "1.5", "--z-mod", "0.9",
                       "--signal", "harmonic", "--param", "m=3"])
        assert status == 0
        _, rows, summary = parse_csv(text)
        assert len(rows) == 64
        assert "peak_frequency" not in summary
        g = sample(SignalSpec("harmonic", {"m": 3.0}), asymptotic_grid(64))
        values = frft_forward(g, 0.9 * np.exp(1.5j)).values
        assert float(summary["leakage_mean"]) == leakage_mean(values)

    @pytest.mark.parametrize("n", [1, 2])
    def test_harmonic_below_three_bins_omits_leakage(self, tmp_path, n):
        status, text = run_to_file(
            tmp_path, ["fft", "--n", str(n), "--signal", "harmonic", "--param", "m=1"])
        assert status == 0
        _, rows, summary = parse_csv(text)
        assert len(rows) == n
        assert "leakage_mean" not in summary
        # one node has no positive abscissa; two have +-1, a = 4/pi times t = +-pi/4
        if n == 1:
            assert "peak_frequency" not in summary
        else:
            assert abs(float(summary["peak_frequency"]) - 1.0) < 1e-15


class TestCorpusAndBench:
    def test_corpus_check_passes(self, tmp_path):
        status, text = run_to_file(tmp_path, ["corpus-check"])
        assert status == 0
        lines = text.splitlines()
        assert lines[-1] == "all checks passed"
        assert all(ln.startswith("ok  ") for ln in lines[:-1])

    def test_negated_two_pulse_spectrum_fails(self, tmp_path, monkeypatch):
        # equal magnitudes, opposite sign: only a comparison of the values sees it
        monkeypatch.setattr(cli, "xft_forward",
                            lambda g: SimpleNamespace(values=-xft_forward(g).values))
        status, text = run_to_file(tmp_path, ["corpus-check"])
        assert status == 1
        lines = text.splitlines()
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL two-pulse identity: n=9 m=1.0: err=2.0e+00")
        assert lines[-1] == "1 check(s) failed"

    def test_missed_target_prints_negative_margin(self, tmp_path, monkeypatch):
        checks = list(cli.CORPUS_CHECKS)
        assert checks[2][:5] == ("cauchy_exp", {"b": 2.0}, 1j, 512, "max_norm")
        checks[2] = checks[2][:5] + (0.5, None)
        monkeypatch.setattr(cli, "CORPUS_CHECKS", tuple(checks))
        status, text = run_to_file(tmp_path, ["corpus-check"])
        assert status == 1
        lines = text.splitlines()
        failed = [ln for ln in lines if ln.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("FAIL cauchy_exp b=2 z=0+1j n=512 max_norm:")
        assert float(failed[0].rpartition("margin=")[2]) < 0
        assert lines[-1] == "1 check(s) failed"

    def test_bench_rows(self, tmp_path):
        status, text = run_to_file(
            tmp_path, ["bench", "--min-exp", "6", "--max-exp", "7", "--repeats", "1"])
        assert status == 0
        lines = text.splitlines()
        assert lines[0] == "n,seconds,frft_seconds,roundtrip_seconds,plan_seconds"
        ns = [int(ln.split(",")[0]) for ln in lines[1:]]
        secs = [float(cell) for ln in lines[1:] for cell in ln.split(",")[1:]]
        assert ns == [64, 128]
        assert len(secs) == 8 and all(s > 0 for s in secs)

    def test_bench_json(self, tmp_path):
        status, text = run_to_file(
            tmp_path, ["bench", "--min-exp", "6", "--max-exp", "6", "--repeats", "1",
                       "--format", "json"])
        assert status == 0
        payload = json.loads(text)
        assert payload["n"] == [64]
        for key in ("seconds", "frft_seconds", "roundtrip_seconds", "plan_seconds"):
            assert len(payload[key]) == 1 and payload[key][0] > 0
        assert payload["numpy"] == np.__version__
        assert payload["nproc"] >= 1

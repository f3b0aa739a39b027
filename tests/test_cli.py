"""Command-line behavior: parsing, output formats, exit statuses."""

import functools
import json
import math
import os
import select
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
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


def whole_table(argv):
    """The reference output, built whole: json.dumps of the payload, or every CSV row
    formatted with "{:.17g}" and all rows joined."""
    args = build_parser().parse_args(argv)
    spec = SignalSpec(args.signal, dict(args.param))
    z = 1j if args.command == "fft" else args.z_mod * np.exp(1j * args.z_arg)
    result = frft_forward(sample(spec, asymptotic_grid(args.n)), z)
    values, refs, summary = cli._measure(spec, result, args.convention, args.compare,
                                         args.z_mod == 1.0)
    om = result.abscissae
    cols = {"omega_re": om.real, "omega_im": om.imag, "G_re": values.real, "G_im": values.imag}
    if refs is not None:
        cols.update(ref_re=refs.real, ref_im=refs.imag)
    if args.output_format == "json":
        payload = {"convention": args.convention,
                   **{name.lower(): col.tolist() for name, col in cols.items()}, "summary": summary}
        return json.dumps(payload) + "\n"
    if refs is not None:
        cols["abs_err"] = np.abs(values - refs)
    table = np.column_stack(tuple(cols.values())).tolist()
    lines = [",".join(["j", *cols])]
    lines += [",".join([str(j)] + ["{:.17g}".format(x) for x in row]) for j, row in enumerate(table)]
    tail = " ".join(f"{k}={v if isinstance(v, str) else '{:.17g}'.format(v)}"
                    for k, v in summary.items())
    return "\n".join(lines + [f"# summary {tail}"]) + "\n"


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

    def test_leading_byte_order_mark(self, tmp_path):
        # as spreadsheet programs export UTF-8 CSV
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1.0\n2.0,0.5\n")
        out = load_signal(str(path))
        assert np.array_equal(out, np.array([1.0, 2 + 0.5j]))

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
        # the run refuses before --out is opened: an existing file keeps its bytes, a new
        # path is not created, and stdout stays empty
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"earlier output\n")
        for out in (kept, tmp_path / "out.csv"):
            status = main(["frft", "--n", "1024", "--z-mod", "0.5", "--z-arg", "0.1",
                           "--signal", "rect", "--out", str(out)])
            assert status == 1
            captured = capsys.readouterr()
            assert "error: chirp at N = 1024" in captured.err and captured.out == ""
        assert kept.read_bytes() == b"earlier output\n"
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
        "too_big_n": (["fft", "--n", str(2 ** 60), "--signal", "rect"], 1,
                      "exceed the largest possible array"),
        "too_big_bench": (["bench", "--min-exp", "60", "--max-exp", "60"], 1,
                          "exceed the largest possible array"),
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


B = cli._BLOCK


class TestStreamedOutput:
    VARIANTS = {
        "plain": ["fft", "--signal", "rect"],
        "compare": ["fft", "--signal", "chirp_cos", "--compare"],
        "namias": ["fft", "--signal", "harmonic", "--param", "omega0=5.156",
                   "--convention", "namias"],
        "damped": ["frft", "--signal", "gauss_beta", "--param", "beta=1", "--z-mod", "0.95",
                   "--z-arg", "1.2", "--compare"],
    }

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("variant", VARIANTS.values(), ids=VARIANTS)
    @pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 3, 3 * B + 1, 4 * B])
    def test_bytes_match_whole_table_across_block_edges(self, tmp_path, n, variant, fmt):
        argv = variant + ["--n", str(n), "--format", fmt]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_bytes() == whole_table(argv).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_traced_memory(self, tmp_path, fmt):
        # the output text of 65536 rows is about 7 MB; the whole table once peaked near 30 MiB
        argv = ["fft", "--n", "65536", "--signal", "chirp_cos", "--compare", "--format", fmt,
                "--out", str(tmp_path / "out")]
        assert main(argv) == 0  # warm-up: imports and the chirp cache
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

    def test_reader_closing_stdout_early_is_not_an_error(self):
        # as `xft fft --n 65536 --signal rect | head -c 100`: far more output than a pipe holds
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        with subprocess.Popen([sys.executable, "-m", "xft.cli", "fft", "--n", "65536",
                               "--signal", "rect"], env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert len(proc.stdout.read(100)) == 100
            proc.stdout.close()
            assert proc.wait(timeout=60) == 0
            # a process the run left behind would still hold the stderr pipe open
            assert select.select([proc.stderr], [], [], 0)[0]
            err = proc.stderr.read()
        assert err == b""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_one_block_never_forks(self, tmp_path, monkeypatch, fmt):
        def fork():
            raise AssertionError("a one-block run forked")

        monkeypatch.setattr(os, "fork", fork)
        argv = self.VARIANTS["compare"] + ["--n", str(B), "--format", fmt]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_bytes() == whole_table(argv).encode()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_same_bytes_in_one_process(self, tmp_path, monkeypatch, fmt):
        monkeypatch.delattr(os, "memfd_create")  # as on a platform without it: no spool, no fork
        argv = self.VARIANTS["damped"] + ["--n", str(2 * B + 3), "--format", fmt]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_bytes() == whole_table(argv).encode()

    def test_no_child_process_remains(self, tmp_path, monkeypatch, capsys):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

        def assert_no_child():
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)

        assert main(["fft", "--n", str(2 * B), "--signal", "rect", "--out", str(tmp_path / "out")]) == 0
        assert_no_child()
        # the damped overflow refuses before any output, so before any fork
        assert main(["frft", "--n", str(2 * B), "--z-mod", "0.5", "--z-arg", "0.1",
                     "--signal", "rect", "--out", str(tmp_path / "refused")]) == 1
        assert_no_child()
        # an --out FIFO whose reader, another process, leaves after 100 bytes: the write fails
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        with subprocess.Popen(["head", "-c", "100", str(fifo)], stdout=subprocess.DEVNULL) as reader:
            status = main(["fft", "--n", str(4 * B), "--signal", "rect", "--out", str(fifo)])
            assert reader.wait(timeout=60) == 0
        assert status == 1 and "Broken pipe" in capsys.readouterr().err
        assert_no_child()
        assert len(forks) == 2

    def test_reader_of_out_in_the_same_process_may_leave(self, tmp_path):
        # the forked child inherits the read end that the thread here leaves, but holds it only
        # while it spools its half: the write then fails, and the run ends
        code = (
            "import sys, threading\n"
            "from xft.cli import main\n"
            "def read_once():\n"
            "    with open(sys.argv[1], 'rb') as fh:\n"
            "        fh.read(100)\n"
            "threading.Thread(target=read_once).start()\n"
            "sys.exit(main(['fft', '--n', '16384', '--signal', 'rect', '--out', sys.argv[1]]))\n"
        )
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code, str(fifo)], env=env,
                              capture_output=True, timeout=60)
        assert proc.returncode == 1 and b"Broken pipe" in proc.stderr

    def test_child_is_stopped_where_the_two_processes_meet(self, monkeypatch):
        # the child formats its half at once; this process takes 20 ms a part, so it meets the
        # child's parts at part 4 and must stop the child there, not after the last part
        parent = os.getpid()

        def part(i):
            if os.getpid() == parent:
                time.sleep(0.02)
            return f"part {i}\n"

        yielded, kills = [], []
        kill = os.kill
        monkeypatch.setattr(os, "kill", lambda pid, sig: kills.append(len(yielded)) or kill(pid, sig))
        for text in cli._formatted([functools.partial(part, i) for i in range(8)], True):
            yielded.append(text)
        assert yielded == [f"part {i}\n" for i in range(8)]
        assert kills[0] < 8

    def test_fork_warning_of_a_threaded_process_is_ignored(self, tmp_path, monkeypatch):
        # from Python 3.12 os.fork warns like this when another thread runs, as numpy's BLAS does
        fork = os.fork

        def warning_fork():
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of fork() "
                          "may lead to deadlocks in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        argv = self.VARIANTS["plain"] + ["--n", str(2 * B)]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out").read_bytes() == whole_table(argv).encode()

    def test_closed_stdout_is_one_error_line(self):
        # `>&-` starts the interpreter with fd 1 closed, so sys.stdout is None
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(["sh", "-c", '"$0" -m xft.cli fft --n 4 --signal rect >&-',
                               sys.executable], env=env, stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == 1
        assert proc.stderr == b"error: stdout is closed\n"


def test_import_leaves_thread_pool_unimported():
    # every CLI process imports xft.cli; the split pass's thread pool module costs ~8 ms
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    code = "import sys, xft.cli; assert 'concurrent.futures' not in sys.modules, 'imported'"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr


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
        assert lines[-1].startswith("# summary ")
        ns = [int(ln.split(",")[0]) for ln in lines[1:-1]]
        secs = [float(cell) for ln in lines[1:-1] for cell in ln.split(",")[1:]]
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

    def test_bench_output_bytes(self, tmp_path, monkeypatch):
        # fixed timings pin the table bytes; each time is the best of --repeats
        # single calls, timed with the garbage collector on
        times = iter([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8] * 2)

        def fake_repeat(op, setup, number, repeat):
            assert setup is cli.gc.enable and number == 1 and repeat == 3
            best = next(times)
            return [best + 1.0, best, best + 2.0]

        monkeypatch.setattr(cli.timeit, "repeat", fake_repeat)
        argv = ["bench", "--min-exp", "6", "--max-exp", "7"]
        status, text = run_to_file(tmp_path, argv, "bench.csv")
        assert status == 0
        assert text == (
            "n,seconds,frft_seconds,roundtrip_seconds,plan_seconds\n"
            "64,0.10000000000000001,0.20000000000000001,0.29999999999999999,0.40000000000000002\n"
            "128,0.5,0.59999999999999998,0.69999999999999996,0.80000000000000004\n"
            f"# summary numpy={np.__version__} nproc={os.cpu_count()}\n")
        status, text = run_to_file(tmp_path, argv + ["--format", "json"], "bench.json")
        assert status == 0
        assert text == (
            '{"n": [64, 128], "seconds": [0.1, 0.5], "frft_seconds": [0.2, 0.6], '
            '"roundtrip_seconds": [0.3, 0.7], "plan_seconds": [0.4, 0.8], '
            f'"numpy": "{np.__version__}", "nproc": {os.cpu_count()}}}\n')

"""Command-line frontend: transform signals, compare to references, emit data.

Subcommands: fft (z = i), frft (general z), corpus-check (regression over the
built-in corpus), bench (timing rows for the fast path).  Output is CSV or
JSON with at least 15 significant digits per value.
"""

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .dft_engine import as_complex_signal
from .errors import InputParseError, XftError
from .hermite import asymptotic_grid
from .kernel_dense import SQRT_2PI
from .metrics import leakage_mean, max_norm_error, peak_frequency
from .signals import CONVENTIONS, CORPUS_NAMES, SignalSpec, reference_transform, sample
from .transform import frft_forward, xft_forward

_FMT = "{:.17g}"


@dataclass(frozen=True)
class RunConfig:
    """Parsed invocation; signal is a SignalSpec or an input-file path."""

    command: str
    n: Optional[int] = None
    z_mod: float = 1.0
    z_arg: float = np.pi / 2
    signal: Union[SignalSpec, str, None] = None
    output_format: str = "csv"
    compare: bool = False
    convention: Optional[str] = None
    out: Optional[str] = None
    min_exp: int = 10
    max_exp: int = 19
    repeats: int = 3


def load_signal(path: str) -> np.ndarray:
    """Read a 1-column (real) or 2-column (re, im) CSV of samples."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputParseError(f"cannot read {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) not in (1, 2):
            raise InputParseError(f"line {lineno}: expected 1 or 2 columns, got {len(cells)}")
        try:
            re = float(cells[0])
            im = float(cells[1]) if len(cells) == 2 else 0.0
        except ValueError:
            raise InputParseError(f"line {lineno}: malformed number")
        rows.append(complex(re, im))
    if not rows:
        raise InputParseError(f"{path} contains no samples")
    return np.asarray(rows, dtype=np.complex128)


def _thread_cap() -> int:
    """Validate XFT_THREADS; the engine is vectorized single-threaded, so any
    positive cap behaves identically."""
    raw = os.environ.get("XFT_THREADS")
    if raw is None:
        return 1
    try:
        cap = int(raw)
    except ValueError:
        raise InputParseError(f"XFT_THREADS must be a positive integer, got {raw!r}")
    if cap < 1:
        raise InputParseError(f"XFT_THREADS must be a positive integer, got {raw!r}")
    return cap


def _parse_param(text: str):
    key, sep, value = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    try:
        return key.strip(), float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"parameter value in {text!r} is not a number")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _unit_mod(text: str) -> float:
    value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError("z modulus must lie in (0, 1]")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xft", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io_flags(p, with_compare=True):
        p.add_argument("--n", type=_positive_int, required=True, help="number of samples")
        p.add_argument("--signal", choices=CORPUS_NAMES, help="built-in corpus signal")
        p.add_argument("--param", type=_parse_param, action="append", default=[],
                       metavar="KEY=VALUE", help="signal parameter, repeatable")
        p.add_argument("--input", help="CSV file of samples instead of --signal")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format")
        p.add_argument("--out", help="write to this path instead of stdout")
        p.add_argument("--convention", choices=CONVENTIONS,
                       help="output normalization (default: paper)")
        if with_compare:
            p.add_argument("--compare", action="store_true",
                           help="add closed-form reference and error columns")

    p_fft = sub.add_parser("fft", help="scaled Fourier transform (z = i)")
    add_io_flags(p_fft)

    p_frft = sub.add_parser("frft", help="fractional transform at z = mod * e^{i arg}")
    add_io_flags(p_frft)
    p_frft.add_argument("--z-mod", type=_unit_mod, default=1.0, help="|z|, default 1")
    p_frft.add_argument("--z-arg", type=float, required=True, help="arg(z) in radians")

    p_check = sub.add_parser("corpus-check", help="run the built-in corpus regressions")
    p_check.add_argument("--out", help="write the report to this path")

    p_bench = sub.add_parser("bench", help="time the fast path over N = 2^k")
    p_bench.add_argument("--min-exp", type=_positive_int, default=10)
    p_bench.add_argument("--max-exp", type=_positive_int, default=19)
    p_bench.add_argument("--repeats", type=_positive_int, default=3)
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format")
    p_bench.add_argument("--out", help="write to this path instead of stdout")

    return parser


def _config_from_args(args: argparse.Namespace, parser: argparse.ArgumentParser) -> RunConfig:
    if args.command in ("fft", "frft"):
        if bool(args.signal) == bool(args.input):
            parser.error("exactly one of --signal / --input is required")
        if args.input and args.compare:
            parser.error("--compare needs a corpus --signal with a closed form")
        signal = SignalSpec(args.signal, dict(args.param)) if args.signal else args.input
        return RunConfig(
            command=args.command,
            n=args.n,
            z_mod=getattr(args, "z_mod", 1.0),
            z_arg=getattr(args, "z_arg", np.pi / 2),
            signal=signal,
            output_format=args.output_format,
            compare=args.compare,
            convention=args.convention,
            out=args.out,
        )
    if args.command == "bench":
        if args.min_exp > args.max_exp:
            parser.error("--min-exp must not exceed --max-exp")
        return RunConfig(command="bench", min_exp=args.min_exp, max_exp=args.max_exp,
                         repeats=args.repeats, output_format=args.output_format, out=args.out)
    return RunConfig(command="corpus-check", out=args.out)


def _emit(text: str, out: Optional[str]):
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _transform_run(config: RunConfig) -> str:
    convention = config.convention or "paper"
    scale = 1.0 if convention == "paper" else 1.0 / SQRT_2PI

    if isinstance(config.signal, SignalSpec):
        g = sample(config.signal, asymptotic_grid(config.n))
    else:
        g = as_complex_signal(load_signal(config.signal))
        if g.size != config.n:
            raise InputParseError(f"--n {config.n} but {config.signal} has {g.size} rows")

    if config.command == "fft":
        result = xft_forward(g)
    else:
        z = config.z_mod * np.exp(1j * config.z_arg)
        result = frft_forward(g, z)
    values = result.values * scale

    refs = None
    summary = {"convention": convention}
    if config.compare:
        refs = np.asarray(
            reference_transform(config.signal, complex(result.params.z),
                                result.abscissae, convention))
        report = max_norm_error(values, refs)
        summary["max_norm"] = report.max_norm
        summary["max_norm_real"] = report.max_norm_real
        summary["max_norm_imag"] = report.max_norm_imag
    if isinstance(config.signal, SignalSpec) and config.signal.name == "harmonic":
        summary["leakage_mean"] = leakage_mean(values)
        summary["peak_frequency"] = peak_frequency(result)

    om = result.abscissae
    if config.output_format == "json":
        payload = {
            "convention": convention,
            "omega_re": list(om.real),
            "omega_im": list(om.imag),
            "g_re": list(values.real),
            "g_im": list(values.imag),
        }
        if refs is not None:
            payload["ref_re"] = list(refs.real)
            payload["ref_im"] = list(refs.imag)
        payload["summary"] = summary
        return json.dumps(payload) + "\n"

    header = ["j", "omega_re", "omega_im", "G_re", "G_im"]
    columns = [np.arange(om.size), om.real, om.imag, values.real, values.imag]
    if refs is not None:
        header += ["ref_re", "ref_im", "abs_err"]
        columns += [refs.real, refs.imag, np.abs(values - refs)]
    lines = [",".join(header)]
    for j in range(om.size):
        cells = [str(int(columns[0][j]))] + [_FMT.format(col[j]) for col in columns[1:]]
        lines.append(",".join(cells))
    tail = " ".join(f"{k}={v if isinstance(v, str) else _FMT.format(v)}" for k, v in summary.items())
    lines.append(f"# summary {tail}")
    return "\n".join(lines) + "\n"


def _bench_run(config: RunConfig) -> str:
    rng = np.random.default_rng(0)
    rows = []
    for p in range(config.min_exp, config.max_exp + 1):
        n = 2 ** p
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        xft_forward(g)  # warm caches before timing
        best = min(_time_once(g) for _ in range(config.repeats))
        rows.append((n, best))
    if config.output_format == "json":
        return json.dumps({"n": [r[0] for r in rows], "seconds": [r[1] for r in rows]}) + "\n"
    lines = ["n,seconds"] + [f"{n},{_FMT.format(sec)}" for n, sec in rows]
    return "\n".join(lines) + "\n"


def _time_once(g) -> float:
    start = time.perf_counter()
    xft_forward(g)
    return time.perf_counter() - start


def _within(value: float, target: float, frac: float = 0.05) -> bool:
    return abs(value - target) <= frac * abs(target)


def _corpus_checks():
    """Yield (name, ok, detail) for every built-in regression."""
    for n, target in ((512, 2.11), (1024, 2.08)):
        g = sample(SignalSpec("chirp_cos"), asymptotic_grid(n))
        r = xft_forward(g)
        err = max_norm_error(r.values, reference_transform(SignalSpec("chirp_cos"), 1j, r.abscissae)).max_norm
        yield (f"chirp_cos n={n}", _within(err, target), f"max_norm={err:.4f} expected~{target}")

    for n, target in ((512, 0.4262), (1024, 0.105)):
        spec = SignalSpec("cauchy_exp", {"b": 2.0})
        g = sample(spec, asymptotic_grid(n))
        r = xft_forward(g)
        err = max_norm_error(r.values, reference_transform(spec, 1j, r.abscissae)).max_norm
        yield (f"cauchy_exp b=2 n={n}", _within(err, target), f"max_norm={err:.4f} expected~{target}")

    for n, leak, peak in ((1024, 0.14105, 5.17072), (2048, 0.00276, 5.15625)):
        g = sample(SignalSpec("harmonic", {"omega0": 5.156}), asymptotic_grid(n))
        r = xft_forward(g)
        mu = leakage_mean(r.values)
        pk = peak_frequency(r)
        half_bin = 2.0 / np.sqrt(2 * n)
        ok = _within(mu, leak) and abs(pk - peak) <= half_bin
        yield (f"harmonic 5.156 n={n}", ok, f"leakage={mu:.5f}~{leak} peak={pk:.5f}~{peak}")

    spec = SignalSpec("gauss_beta", {"beta": 2.0})
    g = sample(spec, asymptotic_grid(512))
    r = frft_forward(g, np.exp(1j))
    err = max_norm_error(r.values, reference_transform(spec, complex(np.exp(1j)), r.abscissae)).max_norm
    yield ("gauss_beta beta=2 phi=1 n=512", err < 1e-10, f"max_norm={err:.2e} bound 1e-10")

    z = np.exp(0.6774j)
    r = frft_forward(np.ones(512), z)
    ref = reference_transform(SignalSpec("constant_one"), complex(z), r.abscissae)
    rep = max_norm_error(r.values, ref)
    ok = _within(rep.max_norm_real, 1.3282) and _within(rep.max_norm_imag, 1.42694)
    yield ("constant_one phi=0.6774 n=512", ok,
           f"re={rep.max_norm_real:.4f}~1.3282 im={rep.max_norm_imag:.4f}~1.42694")

    peaks = []
    g = sample(SignalSpec("rect"), asymptotic_grid(512))
    for phi in (np.pi / 2, 1.0, 0.5, 0.25):
        peaks.append(np.abs(frft_forward(g, np.exp(1j * phi)).values).max())
    ok = all(a < b for a, b in zip(peaks, peaks[1:]))
    yield ("rect peak growth as phi drops", ok, "peaks " + ", ".join(f"{p:.3f}" for p in peaks))

    height_ok = True
    details = []
    for n, ms in ((9, (1.0, 3.0)), (257, (1.0, 3.0)), (8, (1.5, 3.5)), (256, (1.5, 3.5))):
        for m in ms:
            g = sample(SignalSpec("harmonic", {"m": m}), asymptotic_grid(n))
            values = xft_forward(g).values
            height = np.pi * n / (2 * np.sqrt(2 * n))
            mags = np.sort(np.abs(values))
            pulse_err = np.abs(mags[-2:] / height - 1).max()
            off = mags[:-2].max() / height if n > 2 else 0.0
            if pulse_err > 1e-9 or off > 1e-9:
                height_ok = False
                details.append(f"n={n} m={m}: pulse_err={pulse_err:.1e} off={off:.1e}")
    yield ("two-pulse identity", height_ok, "; ".join(details) or "all exact")


def _corpus_run(config: RunConfig) -> tuple[str, int]:
    lines = []
    failures = 0
    for name, ok, detail in _corpus_checks():
        lines.append(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")
        failures += 0 if ok else 1
    lines.append(f"{'all checks passed' if not failures else f'{failures} check(s) failed'}")
    return "\n".join(lines) + "\n", (1 if failures else 0)


def run(config: RunConfig) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    _thread_cap()
    if config.command in ("fft", "frft"):
        _emit(_transform_run(config), config.out)
        return 0
    if config.command == "bench":
        _emit(_bench_run(config), config.out)
        return 0
    text, status = _corpus_run(config)
    _emit(text, config.out)
    return status


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from_args(args, parser)
    try:
        return run(config)
    except XftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

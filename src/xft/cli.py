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

import numpy as np

from .errors import InputParseError, XftError
from .hermite import asymptotic_grid
from .kernel_dense import SQRT_2PI
from .metrics import leakage_mean, max_norm_error, peak_frequency
from .signals import CORPUS_NAMES, SignalSpec, reference_transform, sample
from .transform import _plan, frft_forward, xft_forward, xft_inverse

_FMT = "{:.17g}"

# Output scales: paper is the transforms' own, namias divides by sqrt(2pi).
CONVENTIONS = ("paper", "namias")


def load_signal(path: str) -> np.ndarray:
    """Read a 1-column (real) or 2-column (re, im) CSV of samples."""
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
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

    def add_io_flags(p):
        p.add_argument("--n", type=_positive_int, required=True, help="number of samples")
        source = p.add_mutually_exclusive_group(required=True)
        source.add_argument("--signal", choices=CORPUS_NAMES, help="built-in corpus signal")
        source.add_argument("--input", help="CSV file of samples instead of --signal")
        p.add_argument("--param", type=_parse_param, action="append", default=[],
                       metavar="KEY=VALUE", help="signal parameter, repeatable")
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format")
        p.add_argument("--out", help="write to this path instead of stdout")
        p.add_argument("--convention", choices=CONVENTIONS, default="paper",
                       help="output normalization (default: paper)")
        p.add_argument("--compare", action="store_true",
                       help="add closed-form reference and error columns")

    p_fft = sub.add_parser("fft", help="scaled Fourier transform (z = i)")
    add_io_flags(p_fft)
    p_fft.set_defaults(z_mod=1.0)

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


def _measure(spec, result, convention: str, compare: bool, unit: bool):
    """(values, refs, summary) of a run in the output convention: the error norms
    if compare, and each harmonic measure where it is defined: leakage needs 3
    bins, the peak a positive abscissa on the real axis (N >= 2, unit z)."""
    # multiplied even by 1.0: the complex multiply turns some -0.0 parts of the printed values into +0.0
    values = result.values * (1.0 if convention == "paper" else 1.0 / SQRT_2PI)
    refs, summary = None, {"convention": convention}
    if compare:
        refs = reference_transform(spec, complex(result.params.z), result.abscissae)
        if convention == "namias":
            refs = refs / SQRT_2PI
        summary.update(max_norm_error(values, refs))
    if spec is not None and spec.name == "harmonic":
        if values.size >= 3:
            summary["leakage_mean"] = leakage_mean(values)
        if values.size >= 2 and unit:
            summary["peak_frequency"] = peak_frequency(result)
    return values, refs, summary


def _transform_run(args: argparse.Namespace) -> str:
    spec = SignalSpec(args.signal, dict(args.param)) if args.signal else None
    if spec is not None:
        g = sample(spec, asymptotic_grid(args.n))
    else:
        g = load_signal(args.input)
        if g.size != args.n:
            raise InputParseError(f"--n {args.n} but {args.input} has {g.size} rows")

    with np.errstate(invalid="ignore"):  # non-finite --z-arg: OutOfDomainError, unwarned
        z = 1j if args.command == "fft" else args.z_mod * np.exp(1j * args.z_arg)
    result = frft_forward(g, z)
    values, refs, summary = _measure(spec, result, args.convention, args.compare,
                                     args.z_mod == 1.0)

    om = result.abscissae
    cols = {"omega_re": om.real, "omega_im": om.imag, "G_re": values.real, "G_im": values.imag}
    if refs is not None:
        cols.update(ref_re=refs.real, ref_im=refs.imag)
    if args.output_format == "json":
        payload = {"convention": args.convention,
                   **{name.lower(): col.tolist() for name, col in cols.items()}, "summary": summary}
        return json.dumps(payload) + "\n"
    if refs is not None:  # CSV only
        cols["abs_err"] = np.abs(values - refs)
    row = ",".join(["{}"] + [_FMT] * len(cols))
    lines = [",".join(["j", *cols])]
    # one row at a time: tolist() on the whole table holds every cell as a float object
    lines += [row.format(j, *r.tolist()) for j, r in enumerate(np.column_stack(tuple(cols.values())))]
    tail = " ".join(f"{k}={v if isinstance(v, str) else _FMT.format(v)}" for k, v in summary.items())
    lines.append(f"# summary {tail}")
    return "\n".join(lines) + "\n"


def _best_seconds(op, repeats: int) -> float:
    """Best wall time of op() over repeats calls, after one call that warms caches."""
    op()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        op()
        times.append(time.perf_counter() - start)
    return min(times)


_BENCH_COLUMNS = ("n", "seconds", "frft_seconds", "roundtrip_seconds", "plan_seconds")


def _bench_run(args: argparse.Namespace) -> str:
    """Per N = 2^k: xft_forward, frft_forward at z = e^{0.7i}, the xft round trip,
    and the chirp build of a cache miss at that z (_plan's __wrapped__ skips the cache)."""
    rng = np.random.default_rng(0)
    z = np.exp(0.7j)
    z_key = (z.real.hex(), z.imag.hex())
    rows = []
    for p in range(args.min_exp, args.max_exp + 1):
        n = 2 ** p
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ops = (lambda: xft_forward(g), lambda: frft_forward(g, z),
               lambda: xft_inverse(xft_forward(g).values), lambda: _plan.__wrapped__(n, *z_key))
        rows.append((n, *(_best_seconds(op, args.repeats) for op in ops)))
    if args.output_format == "json":
        payload = {key: [r[i] for r in rows] for i, key in enumerate(_BENCH_COLUMNS)}
        payload.update(numpy=np.__version__, nproc=os.cpu_count())
        return json.dumps(payload) + "\n"
    lines = [",".join(_BENCH_COLUMNS)]
    lines += [",".join([str(n)] + [_FMT.format(sec) for sec in secs]) for n, *secs in rows]
    return "\n".join(lines) + "\n"


# The corpus regressions: (signal, params, z, n, measure, target, tol).  A
# check holds when |value - target| <= tol; tol None means 5% of |target|,
# and the peak rows allow half an output bin, 2/sqrt(2n).
CORPUS_CHECKS = (
    ("chirp_cos", {}, 1j, 512, "max_norm", 2.11, None),
    ("chirp_cos", {}, 1j, 1024, "max_norm", 2.08, None),
    ("cauchy_exp", {"b": 2.0}, 1j, 512, "max_norm", 0.4262, None),
    ("cauchy_exp", {"b": 2.0}, 1j, 1024, "max_norm", 0.105, None),
    ("harmonic", {"omega0": 5.156}, 1j, 1024, "leakage_mean", 0.14105, None),
    ("harmonic", {"omega0": 5.156}, 1j, 1024, "peak_frequency", 5.17072, 2 / np.sqrt(2 * 1024)),
    ("harmonic", {"omega0": 5.156}, 1j, 2048, "leakage_mean", 0.00276, None),
    ("harmonic", {"omega0": 5.156}, 1j, 2048, "peak_frequency", 5.15625, 2 / np.sqrt(2 * 2048)),
    ("gauss_beta", {"beta": 2.0}, np.exp(1j), 512, "max_norm", 0.0, 1e-10),
    ("constant_one", {}, np.exp(0.6774j), 512, "max_norm_real", 1.3282, None),
    ("constant_one", {}, np.exp(0.6774j), 512, "max_norm_imag", 1.42694, None),
)


def corpus_margin(signal, params, z, n, measure, target, tol):
    """(value, tol, margin) of one CORPUS_CHECKS row: sample the signal on n points,
    transform at z and measure the output; the row holds when margin >= 0."""
    spec = SignalSpec(signal, params)
    result = frft_forward(sample(spec, asymptotic_grid(n)), z)
    value = _measure(spec, result, "paper", measure.startswith("max_norm"), abs(z) == 1)[2][measure]
    tol = 0.05 * abs(target) if tol is None else tol
    return value, tol, tol - abs(value - target)


def rect_peaks() -> list:
    """max|G| of the 512-point unit rectangle at phi = pi/2, 1, 0.5, 0.25; it grows as phi drops."""
    g = sample(SignalSpec("rect"), asymptotic_grid(512))
    return [float(np.abs(frft_forward(g, np.exp(1j * phi)).values).max())
            for phi in (np.pi / 2, 1.0, 0.5, 0.25)]


def _corpus_run() -> tuple[str, int]:
    """The corpus-check report: one (ok, name, detail) row per regression, then the verdict."""
    rows = []
    for signal, params, z, n, measure, target, tol in CORPUS_CHECKS:
        value, tol, margin = corpus_margin(signal, params, z, n, measure, target, tol)
        given = "".join(f" {k}={v:g}" for k, v in params.items())
        rows.append((margin >= 0, f"{signal}{given} z={complex(z):.4g} n={n} {measure}",
                     f"value={value:.6g} target={target:g} tol={tol:.3g} margin={margin:.3g}"))

    peaks = rect_peaks()
    rows.append((all(a < b for a, b in zip(peaks, peaks[1:])), "rect peak growth as phi drops",
                 "peaks " + ", ".join(f"{p:.3f}" for p in peaks)))

    # exact two-pulse spectrum: height (pi/2) sqrt(n/2) in the bins |k - (n-1)/2| = m, 0 elsewhere
    details = []
    for n, ms in ((9, (1.0, 3.0)), (257, (1.0, 3.0)), (8, (1.5, 3.5)), (256, (1.5, 3.5))):
        height = np.pi / 2 * np.sqrt(n / 2)
        for m in ms:
            exact = np.where(np.abs(np.arange(n) - (n - 1) / 2) == m, height, 0.0)
            values = xft_forward(sample(SignalSpec("harmonic", {"m": m}), asymptotic_grid(n))).values
            err = np.abs(values - exact).max() / height
            if err > 1e-9:
                details.append(f"n={n} m={m}: err={err:.1e}")
    rows.append((not details, "two-pulse identity", "; ".join(details) or "all exact"))

    failures = sum(not ok for ok, _, _ in rows)
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}: {detail}" for ok, name, detail in rows]
    lines.append("all checks passed" if not failures else f"{failures} check(s) failed")
    return "\n".join(lines) + "\n", (1 if failures else 0)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("fft", "frft") and args.input and (args.param or args.compare):
        parser.error("--param and --compare need a corpus --signal")
    if args.command == "bench" and args.min_exp > args.max_exp:
        parser.error("--min-exp must not exceed --max-exp")
    try:
        if args.command == "corpus-check":
            text, status = _corpus_run()
        elif args.command == "bench":
            text, status = _bench_run(args), 0
        else:
            text, status = _transform_run(args), 0
        if args.out is None:
            sys.stdout.write(text)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        return status
    except (XftError, OSError, MemoryError) as exc:  # unwritable --out or stdout; an impossible size
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

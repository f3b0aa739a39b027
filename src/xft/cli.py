"""Command-line frontend: transform signals, compare to references, emit data.

Subcommands: fft (z = i), frft (general z), corpus-check (regression over the
built-in corpus), bench (timing rows for the fast path).  Output is CSV or
JSON whose float64 values all round-trip exactly.
"""

import argparse
import functools
import gc
import json
import os
import signal
import sys
import timeit
import warnings

import numpy as np

from .errors import InputParseError, InvalidSizeError, XftError
from .hermite import asymptotic_grid
from .kernel_dense import SQRT_2PI, UNIT_TOL
from .metrics import leakage_mean, max_norm_error, peak_frequency
from .signals import CORPUS_NAMES, SignalSpec, reference_transform, sample
from .transform import _plan, frft_forward, xft_forward, xft_inverse

_FMT = "%.17g"
_BLOCK = 4096  # rows per text block: a run computes everything, then formats a block at a time

# Output scales: paper is the transforms' own, namias divides by sqrt(2pi).
CONVENTIONS = ("paper", "namias")


def load_signal(path: str) -> np.ndarray:
    """Read a 1-column (real) or 2-column (re, im) CSV of samples."""
    rows = []
    try:
        with open(path, encoding="utf-8-sig") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputParseError(f"cannot read {path}: {exc}")
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) not in (1, 2):
            raise InputParseError(f"line {lineno}: expected 1 or 2 columns, got {len(cells)}")
        try:  # float() strips the whitespace around each cell
            rows.append(complex(*map(float, cells)))
        except ValueError:
            raise InputParseError(f"line {lineno}: malformed number")
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
        p.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format",
                       help="CSV rows with a closing '# summary' line, or one JSON object (default: csv)")
        p.add_argument("--out", help="write to this path instead of stdout")
        p.add_argument("--convention", choices=CONVENTIONS, default="paper",
                       help="output normalization (default: paper)")
        p.add_argument("--compare", action="store_true",
                       help="add closed-form reference and error columns")
        p.set_defaults(run=_transform_run)

    p_fft = sub.add_parser("fft", help="scaled Fourier transform (z = i)")
    add_io_flags(p_fft)

    p_frft = sub.add_parser("frft", help="fractional transform at z = mod * e^{i arg}")
    add_io_flags(p_frft)
    p_frft.add_argument("--z-mod", type=_unit_mod, default=1.0, help="|z|, default 1")
    p_frft.add_argument("--z-arg", type=float, required=True, help="arg(z) in radians")

    p_check = sub.add_parser("corpus-check", help="run the built-in corpus regressions")
    p_check.add_argument("--out", help="write the report to this path")
    p_check.set_defaults(run=_corpus_run)

    p_bench = sub.add_parser("bench", help="time the fast path over N = 2^k")
    p_bench.add_argument("--min-exp", type=_positive_int, default=10, help="smallest N = 2^MIN_EXP (default: 10)")
    p_bench.add_argument("--max-exp", type=_positive_int, default=19, help="largest N = 2^MAX_EXP (default: 19)")
    p_bench.add_argument("--repeats", type=_positive_int, default=3,
                         help="timed calls of each op, the best kept (default: 3)")
    p_bench.add_argument("--format", choices=("csv", "json"), default="csv", dest="output_format",
                         help="columns n, seconds (xft_forward), frft_seconds (z = e^{0.7i}), roundtrip_seconds "
                              "(xft_forward + xft_inverse), plan_seconds (a chirp plan built as on a cache miss) "
                              "and damped_seconds (z = 0.5e^{0.1i}, two passes), then numpy and nproc; "
                              "as CSV or JSON (default: csv)")
    p_bench.add_argument("--out", help="write to this path instead of stdout")
    p_bench.set_defaults(run=_bench_run)

    return parser


def _measure(spec, result, convention: str, compare: bool):
    """(values, refs, summary) of a run in the output convention: the error norms
    if compare, and each harmonic measure where it is defined: leakage needs 3
    bins, the peak a positive abscissa on the real axis (N >= 2, ||z| - 1| <= UNIT_TOL)."""
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
        if values.size >= 2 and abs(result.params.z) >= 1 - UNIT_TOL:  # make_params refuses past 1 + UNIT_TOL
            summary["peak_frequency"] = peak_frequency(result)
    return values, refs, summary


def _transform_run(args: argparse.Namespace):  # not a generator: refusals come before --out opens
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
    values, refs, summary = _measure(spec, result, args.convention, args.compare)

    om = result.abscissae
    cols = {"omega_re": om.real, "omega_im": om.imag, "G_re": values.real, "G_im": values.imag}
    if refs is not None:
        cols.update(ref_re=refs.real, ref_im=refs.imag)
    if args.output_format == "json":
        return _json_blocks(cols, summary), 0
    if refs is not None:  # CSV only
        cols["abs_err"] = np.abs(values - refs)
    return _csv_blocks({"j": np.arange(om.size), **cols}, summary), 0


def _csv_blocks(cols: dict, summary: dict):
    """The CSV header, each block of _BLOCK rows as one %-formatted string, the summary line."""
    yield ",".join(cols) + "\n"
    row = ",".join(["%d"] + [_FMT] * (len(cols) - 1)) + "\n"

    def block(i):
        rows = np.column_stack([col[i:i + _BLOCK] for col in cols.values()])
        return row * len(rows) % tuple(rows.ravel().tolist())

    n = len(next(iter(cols.values())))
    yield from _formatted([functools.partial(block, i) for i in range(0, n, _BLOCK)], n > _BLOCK)
    tail = " ".join(f"{k}={v if isinstance(v, str) else _FMT % v}" for k, v in summary.items())
    yield f"# summary {tail}\n"


def _json_blocks(cols: dict, summary: dict):
    """json.dumps of the whole payload, each array dumped _BLOCK values at a time."""
    def piece(name, col, i):
        head = f", {json.dumps(name.lower())}: [" if i == 0 else ", "
        return head + json.dumps(col[i:i + _BLOCK].tolist())[1:-1] + ("]" if i + _BLOCK >= col.size else "")

    yield json.dumps({"convention": summary["convention"]})[:-1]
    yield from _formatted([functools.partial(piece, name, col, i) for name, col in cols.items()
                           for i in range(0, col.size, _BLOCK)], cols["omega_re"].size > _BLOCK)
    yield f', "summary": {json.dumps(summary)}}}\n'


def _formatted(parts: list, fork: bool):
    """part() for each part, in order.  When fork, a forked child spools the back half, the last part
    first, while this process formats from the first part up to the first one the child has finished."""
    if not (fork and hasattr(os, "memfd_create")):
        yield from (part() for part in parts)
        return
    with open(fd := os.memfd_create("xft-spool"), "wb") as spool:
        # from Python 3.12 fork warns in a process with threads, and numpy's BLAS starts one: the
        # child calls no BLAS, only formats text, and ends in os._exit
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", r"This process .* is multi-threaded, use of fork\(\)",
                                    DeprecationWarning)
            pid = os.fork()
        if pid == 0:
            try:  # ends in os._exit, so the --out and stdout buffers it inherited are never flushed
                gc.disable()  # nor may a collection run a finalizer of the parent's garbage here
                for k in range(len(parts) - 1, (len(parts) - 1) // 2, -1):
                    data = parts[k]().encode()
                    spool.write(len(data).to_bytes(8, "little") + data)
                    spool.flush()
            finally:
                os._exit(0)
        try:
            spooled, end = [], 0  # (size, offset) of each whole record, the last part's first
            for k, part in enumerate(parts):
                while len(head := os.pread(fd, 8, end)) == 8:  # never waits on the child
                    if os.fstat(fd).st_size < end + 8 + (size := int.from_bytes(head, "little")):
                        break
                    spooled.append((size, end + 8))
                    end += 8 + size
                if (rec := len(parts) - 1 - k) < len(spooled):  # the child spools part k as record rec
                    os.kill(pid, signal.SIGKILL)  # they met: all it has left was yielded here
                    break
                yield part()
            yield from (os.pread(fd, *record).decode() for record in spooled[rec::-1])
        finally:
            os.kill(pid, signal.SIGKILL)  # if they never met, as after an early `| head`, it may still run
            os.waitpid(pid, 0)


def _bench_run(args: argparse.Namespace):
    """Per N = 2^k: xft_forward, frft_forward at z = e^{0.7i}, the xft round trip, the chirp
    build of a cache miss at that z (_plan's __wrapped__ skips the cache), and frft_forward at
    the damped z = 0.5e^{0.1i}, which it rotates: two passes, each with its DFT.
    All five run twice to warm caches before any is timed (a plan is stored on its second
    request), so each is timed in the same memory state; each time is the best of --repeats, GC on."""
    rng = np.random.default_rng(0)
    z, damped = np.exp(0.7j), 0.5 * np.exp(0.1j)
    z_key = (z.real.hex(), z.imag.hex())
    cols = {key: [] for key in ("n", "seconds", "frft_seconds", "roundtrip_seconds", "plan_seconds",
                                "damped_seconds")}
    for p in range(args.min_exp, args.max_exp + 1):
        n = 2 ** p
        g = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        ops = (lambda: xft_forward(g), lambda: frft_forward(g, z),
               lambda: xft_inverse(xft_forward(g).values), lambda: _plan.__wrapped__(n, *z_key),
               lambda: frft_forward(g, damped))
        cols["n"].append(n)
        for op in 2 * ops:
            op()
        for key, op in zip(list(cols)[1:], ops):
            cols[key].append(min(timeit.repeat(op, setup=gc.enable, number=1, repeat=args.repeats)))
    env = {"numpy": np.__version__, "nproc": os.cpu_count()}
    if args.output_format == "json":
        return [json.dumps(cols | env) + "\n"], 0
    return _csv_blocks(cols, env), 0


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
    value = _measure(spec, result, "paper", measure.startswith("max_norm"))[2][measure]
    tol = 0.05 * abs(target) if tol is None else tol
    return value, tol, tol - abs(value - target)


def rect_peaks() -> list:
    """max|G| of the 512-point unit rectangle at phi = pi/2, 1, 0.5, 0.25; it grows as phi drops."""
    g = sample(SignalSpec("rect"), asymptotic_grid(512))
    return [float(np.abs(frft_forward(g, np.exp(1j * phi)).values).max())
            for phi in (np.pi / 2, 1.0, 0.5, 0.25)]


def _corpus_run(args: argparse.Namespace) -> tuple[list[str], int]:
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
    return ["\n".join(lines) + "\n"], (1 if failures else 0)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("fft", "frft") and args.input and (args.param or args.compare):
        parser.error("--param and --compare need a corpus --signal")
    if args.command == "bench" and args.min_exp > args.max_exp:
        parser.error("--min-exp must not exceed --max-exp")
    try:
        if args.out is None and sys.stdout is None:  # started with fd 1 closed, as by `>&-`
            raise OSError("stdout is closed")
        # numpy raises ValueError, not MemoryError, past this size, so refuse it before any array
        n = 2 ** args.max_exp if args.command == "bench" else getattr(args, "n", 1)
        if n * 16 > np.iinfo(np.intp).max:
            raise InvalidSizeError(f"N = {n} complex samples exceed the largest possible array")
        blocks, status = args.run(args)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.writelines(blocks)
            return status
        try:
            sys.stdout.writelines(blocks)
            sys.stdout.flush()
        except BrokenPipeError:  # the reader left early, as `| head` does: not an error
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # silent final flush
        return status
    except (XftError, OSError, MemoryError) as exc:  # unwritable --out or stdout; an impossible size
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

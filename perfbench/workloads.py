"""The benchmark's three workloads: seeded inputs, timed operations and their checks.

Every workload yields its operations in cycles of fixed composition: the same
op kinds at the same sizes in every cycle and for every seed.  The seed picks
the rest (z, signals, CLI parameters) and the order inside a cycle.  A run
executes a fixed number of whole cycles, so for one seed the ops, and the
failures, repeat exactly, and for any seed each latency percentile lands on
the same kind of op.
"""

import cmath
import json
import math
import os
import subprocess
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

import xft

# Seed defects the workloads keep.  An operation exposed to one carries its
# id; if it fails by wrong or non-finite output, or by a typed XftError, the
# failure counts in fail_ratio but does not make the run incorrect.
KNOWN_DEFECTS = {
    "damped_overflow": "frft_forward at |z| < 1 returns NaN/Inf after a RuntimeWarning once its chirps "
                       "overflow (arg z outside (pi/4, 3pi/4), e.g. |z| = 0.5 at N = 1024)",
}

# Damped z inside this sector of arg z keeps both chirp exponents decaying, so
# the transform is finite at every N; outside it the damped_overflow defect
# shows.  Workloads that are not about that defect draw damped z from here.
SAFE_DAMPED_ARG = (math.pi / 4 + 0.15, 3 * math.pi / 4 - 0.15)

NON_FINITE = "non_finite"


@dataclass
class Op:
    """One timed call: run() inside the timed window, check(result) after it.

    check returns None when the result is right, else the failure kind.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    defect: Optional[str] = None

    def __post_init__(self):
        if self.defect is not None and self.defect not in KNOWN_DEFECTS:
            raise ValueError(f"unknown defect id {self.defect!r}")


class Walk:
    """Additive-recurrence (R_d) low-discrepancy points in [0, 1)^dims.

    Step i is phi^-(i+1), with phi the positive root of x^(dims+1) = x + 1
    (the golden ratio for one dimension), so every coordinate and every
    pair of coordinates is spread evenly, unlike independent 1-D walks.
    The walk starts at a point drawn from rng, or at 0 without one, which
    gives the same points for every seed.
    """

    def __init__(self, rng=None, dims=1):
        phi = 2.0
        for _ in range(64):
            phi = (1.0 + phi) ** (1.0 / (dims + 1))
        self.step = np.array([phi ** -(i + 1) for i in range(dims)])
        self.x = rng.random(dims) if rng is not None else np.zeros(dims)

    def next(self):
        self.x = (self.x + self.step) % 1.0
        return self.x


def scale(u, lo, hi):
    return lo + (hi - lo) * float(u)


def random_signal(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))


def finite(values):
    return bool(np.isfinite(np.asarray(values).view(np.float64)).all())


def frft_op(g, z, defect=None):
    """frft_forward(g, z); on |z| = 1 the output norm is |prefactor| pi/sqrt(2) ||g||."""
    unit = abs(abs(z) - 1.0) < 1e-12

    def check(res):
        if not finite(res.values):
            return NON_FINITE
        if unit:
            want = abs(res.params.prefactor) * math.pi / math.sqrt(2.0) * np.linalg.norm(g)
            if abs(np.linalg.norm(res.values) - want) > 1e-9 * want:
                return "check:norm_identity"
        return None

    kind = "unit" if unit else "damped"
    return Op(f"frft {kind} n={g.size}", lambda: xft.frft_forward(g, z), check, defect)


def roundtrip_op(g):
    """xft_forward then xft_inverse; relative error <= 1e-10 (the C02 bound)."""

    def check(back):
        if not finite(back):
            return NON_FINITE
        if np.linalg.norm(back - g) > 1e-10 * np.linalg.norm(g):
            return "check:roundtrip"
        return None

    return Op(f"roundtrip n={g.size}", lambda: xft.xft_inverse(xft.xft_forward(g).values), check)


class FastFixedZ:
    """frft_forward at four fixed z plus xft round trips, N = 2^16..2^19.

    The chirp cache always hits, so the DFT dominates.  2^18 carries two
    inputs per cycle, so the median falls inside the 2^18 band and the 90th
    percentile inside the 2^19 band rather than on a boundary between sizes.
    """

    cycle_seconds = 2.25

    def __init__(self, rng, tiny=False):
        reps = {2**6: 1, 2**7: 1, 2**8: 2, 2**9: 1} if tiny else {2**16: 1, 2**17: 1, 2**18: 2, 2**19: 1}
        self.rng = rng
        self.inputs = [random_signal(rng, n) for n, k in reps.items() for _ in range(k)]
        self.roundtrip_inputs = [random_signal(rng, n) for n in reps]
        phi1, phi2 = rng.uniform(0.3, math.pi - 0.3, 2)
        self.zs = [1j, cmath.exp(1j * phi1), cmath.exp(1j * phi2),
                   0.99 * cmath.exp(1j * rng.uniform(*SAFE_DAMPED_ARG))]

    def warm_up(self):
        for op in self.cycle():
            op.run()

    def cycle(self):
        ops = [frft_op(g, z) for g in self.inputs for z in self.zs]
        ops += [roundtrip_op(g) for g in self.roundtrip_inputs]
        self.rng.shuffle(ops)
        return ops


class FreshZMixedN:
    """Every op a never-seen z: half on |z| = 1, half damped with |z| in [0.5, 1).

    A cycle is fifteen ops: N = 2^14, 2^15 and 2^16, and twelve sizes in
    1000..3000 (every other one prime), which take the O(N^2) DFT path.
    With an odd count of ops whose costs spread evenly, the median falls in
    the middle of one size's ops (N = 1832) and the 90th percentile among
    the three largest sizes, which cost within 12% of each other, not on a
    jump between two sizes.
    Every op builds its chirps and the chirp cache grows.  The sizes, and
    which of them take a damped z, are the same in every cycle; pairs of
    slots alternate between unit and damped, so both meet prime and
    composite sizes.  The damped ops are the same for every seed: their z
    walk a fixed sequence and their signals come from a fixed stream.
    Whether such an op overflows can hang on its signal, so this keeps the
    count of damped_overflow failures the same for every seed.  The z on
    |z| = 1, their signals and the order come from the seed.  All z of a
    run differ.
    """

    cycle_seconds = 2.6

    def __init__(self, rng, tiny=False):
        self.rng = rng
        pow2 = (2**6, 2**7, 2**8) if tiny else (2**14, 2**15, 2**16)
        other = (100, 300) if tiny else (1000, 3000)
        size_walk = Walk()
        self.sizes = list(pow2) + [self._other_size(slot, size_walk.next()[0], other)
                                   for slot in range(len(pow2), len(pow2) + 12)]
        self.pow2 = pow2
        self.unit_walk = Walk(rng)  # arg z
        self.damped_walk = Walk(dims=2)  # |z|, arg z
        self.damped_rng = np.random.default_rng(0)

    def warm_up(self):
        # the per-size state a long-lived process keeps (base chirp, bit
        # reversal, twiddles); per-z chirps stay cold by design
        for n in self.pow2:
            xft.xft_forward(np.ones(n))

    @staticmethod
    def _other_size(slot, u, span):
        n = int(scale(u, *span))
        if slot % 2:
            while not is_prime(n):
                n += 1
        return n + 1 if n & (n - 1) == 0 else n

    def cycle(self):
        ops = []
        for slot, n in enumerate(self.sizes):
            if (slot // 2) % 2:
                r, arg = self.damped_walk.next()
                z = scale(r, 0.5, 1.0) * cmath.exp(1j * scale(arg, 0.1, math.pi - 0.1))
                ops.append(frft_op(random_signal(self.damped_rng, n), z, "damped_overflow"))
            else:
                (arg,) = self.unit_walk.next()
                z = cmath.exp(1j * scale(arg, 0.1, math.pi - 0.1))
                ops.append(frft_op(random_signal(self.rng, n), z))
        self.rng.shuffle(ops)
        return ops


def _summary(path):
    """The summary of a CLI output file: CSV '# summary k=v ...' line or JSON 'summary'."""
    with open(path, "rb") as fh:
        fh.seek(0, os.SEEK_END)
        fh.seek(max(0, fh.tell() - 4096))
        tail = fh.read().decode("utf-8", "replace")
    if path.endswith(".json"):
        return json.loads(tail[tail.rindex('"summary": ') + len('"summary": '):-2])
    line = tail.rstrip("\n").rsplit("\n", 1)[-1]
    if not line.startswith("# summary "):
        return None
    return {k: (float(v) if k != "convention" else v)
            for k, _, v in (tok.partition("=") for tok in line[len("# summary "):].split())}


def _has_non_finite(path):
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 22):
            low = chunk.lower()
            if b"nan" in low or b"inf" in low:
                return True
    return False


def _near(value, target, rel=1e-3):
    return abs(value - target) <= rel * abs(target)


# The README reproduction commands with the numbers the README quotes.
README_RUNS = [
    (["fft", "--n", "512", "--signal", "chirp_cos", "--compare"], {"max_norm": 2.1169}),
    (["fft", "--n", "1024", "--signal", "chirp_cos", "--compare"], {"max_norm": 2.0810}),
    (["fft", "--n", "512", "--signal", "cauchy_exp", "--param", "b=2", "--compare"], {"max_norm": 0.4262}),
    (["fft", "--n", "1024", "--signal", "cauchy_exp", "--param", "b=2", "--compare"], {"max_norm": 0.1060}),
    (["fft", "--n", "1024", "--signal", "harmonic", "--param", "omega0=5.156"],
     {"leakage_mean": 0.14106, "peak_frequency": 5.17072}),
    (["frft", "--n", "512", "--z-arg", "1", "--signal", "gauss_beta", "--param", "beta=2", "--compare"],
     {"max_norm": None}),
    (["frft", "--n", "512", "--z-arg", "0.6774", "--signal", "constant_one", "--compare"],
     {"max_norm_real": 1.3324, "max_norm_imag": 1.4034}),
]
RECT_PEAKS = (("1.5707963267948966", 0.9816), ("1", 1.0698), ("0.5", 1.4147), ("0.25", 1.9550))
# max_norm of the BIG_N-point runs, recorded from the seed: the quadrature
# error of each signal, set by the method, not by rounding.
BIG_N = 65536
BIG_RUNS = (("chirp_cos", "csv", 2.07039), ("rect", "csv", 0.00833556), ("chirp_cos", "json", 2.07039))


class CliRuns:
    """Fresh `python -m xft.cli` processes, one at a time, each writing through --out.

    A cycle is the eight README commands (the eighth is a loop of four
    processes), corpus-check, `fft --n 65536 --compare` as CSV on chirp_cos
    and on rect and as JSON on chirp_cos, and one damped frft at n = 65536:
    twelve small ops and four large ones.  The large runs are 65536 points,
    not 262144, so that a run holds several cycles; the CSV runs still take
    about 1.6 times the JSON one.  The median falls inside the small ops.
    The two CSV runs are the top eighth of a cycle's ops, so the 90th
    percentile falls at the low end of their times, next to the damped
    frft (about 0.8 times their cost), not on the wider jump down to the
    JSON run.  Only the damped
    frft's z and beta, drawn once per run, and the order come from the seed.
    launch(args, out) runs one process and returns its exit status.
    """

    cycle_seconds = 9.0

    def __init__(self, rng, tmpdir, launch, tiny=False):
        self.rng = rng
        self.tmpdir = tmpdir
        self.launch = launch
        self.tiny = tiny
        self.count = 0
        self.damped_arg = rng.uniform(*SAFE_DAMPED_ARG)
        self.damped_beta = rng.uniform(0.5, 2.0)

    def warm_up(self):
        self._op(["fft", "--n", "64", "--signal", "rect"], ".csv", lambda path: None).run()

    def _op(self, args, ext, check_file):
        self.count += 1
        path = os.path.join(self.tmpdir, f"op{self.count}{ext}")

        def check(status):
            try:
                if status != 0:
                    return f"check:exit_status_{status}"
                if _has_non_finite(path):
                    return NON_FINITE
                return check_file(path)
            finally:
                if os.path.exists(path):
                    os.remove(path)

        return Op("xft " + " ".join(args), lambda: self.launch(args, path), check)

    @staticmethod
    def _summary_check(targets):
        def check_file(path):
            summary = _summary(path)
            if summary is None:
                return "check:summary_missing"
            for key, target in targets.items():
                value = summary.get(key)
                if value is None:
                    return f"check:summary_{key}_missing"
                ok = value < 1e-10 if target is None else _near(value, target)
                if not ok:
                    return f"check:summary_{key}"
            return None

        return check_file

    @staticmethod
    def _rect_check(target):
        def check_file(path):
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            peak = max(math.hypot(x, y) for x, y in zip(data["g_re"], data["g_im"]))
            return None if _near(peak, target) else "check:rect_peak"

        return check_file

    @staticmethod
    def _corpus_check(path):
        with open(path, encoding="utf-8") as fh:
            return None if fh.read().rstrip().endswith("all checks passed") else "check:corpus"

    def cycle(self):
        readme = README_RUNS[5:6] if self.tiny else README_RUNS
        rect = RECT_PEAKS[:1] if self.tiny else RECT_PEAKS
        ops = [self._op(args, ".csv", self._summary_check(targets)) for args, targets in readme]
        ops += [self._op(["frft", "--n", "512", "--z-arg", arg, "--signal", "rect", "--format", "json"],
                         ".json", self._rect_check(peak)) for arg, peak in rect]
        if not self.tiny:
            ops.append(self._op(["corpus-check"], ".txt", self._corpus_check))
            ops += [self._op(["fft", "--n", str(BIG_N), "--signal", signal, "--compare", "--format", fmt],
                             f".{fmt}", self._summary_check({"max_norm": max_norm}))
                    for signal, fmt, max_norm in BIG_RUNS]
            ops.append(self._op(["frft", "--n", "65536", "--z-mod", "0.95", "--z-arg", f"{self.damped_arg:.6f}",
                                 "--signal", "gauss_beta", "--param", f"beta={self.damped_beta:.4f}"],
                                ".csv", self._summary_check({})))
        self.rng.shuffle(ops)
        return ops


def cli_launcher(prefix):
    """launch(args, out) for CliRuns: runs prefix(out) + args + --out and returns the exit status.

    The exit status and the output file are what the checks read, so the
    process's own standard streams are discarded.  The wait has no timeout:
    Popen.wait(timeout) polls in steps of up to 50 ms, which would quantize
    the latency.  run.py's deadline ends the whole process group instead.
    """

    def launch(args, out):
        return subprocess.run(prefix(out) + args + ["--out", out], stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL).returncode

    return launch


WORKLOADS = {
    "fast_fixed_z": FastFixedZ,
    "fresh_z_mixed_n": FreshZMixedN,
    "cli_runs": CliRuns,
}

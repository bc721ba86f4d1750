r"""Locate, certify, cache, and serve the positive ordinates of the
nontrivial zeta zeros on the critical line.

Strategy: uniform sign-change scan of Z(t) (step 0.05) by ``z_grid``, whose
blocked-phase factorization makes the Dirichlet head of each run of grid
points one complex matrix product, certified by Rosser blocks (``find_zeros``).
A block the scan leaves short is rescanned at 16x (then 256x) finer
resolution; this is what recovers pathologically close pairs (the tightest
gap below t = 1e4 is ~0.0377, near t ~ 7005).  Each bracket, with the Z
values the scan computed at its ends, is refined by Illinois regula falsi
(``z_values`` at scattered points) to a record [gamma - h, gamma + h],
h <= 1e-9, across which Z changes sign in memory and after a reload; t_max
is capped at 1e5.

Every located zero lies on the critical line: the cache's fourth column, the
real part beta, is always written as 0.5, and ``load_cache`` rejects any other
value.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .accuracy import CacheChecksumError, CacheParseError, DomainError, MissedZeroError
from .specfun import riemann_siegel_theta, z_grid, z_values

__all__ = [
    "ZeroRecord",
    "ZeroList",
    "counting_estimate",
    "gamma_ceiling",
    "find_zeros",
    "save_cache",
    "load_cache",
    "ensure_cache",
]

_SCAN_START = 10.0  # N(10) ~ 0.02: no zeros below
_SCAN_STEP = 0.05  # coarse scan step; a short Rosser block is rescanned at 1/16, then 1/256 of it
_HALFWIDTH = 1e-9  # largest record halfwidth
_STEP_MIN = 0.5 * _HALFWIDTH  # least distance of a refinement point from the bracket ends
# bisect after this many passes in a row that did not halve a bracket; fewer cut
# into Illinois cycles (at 2, refinement below t = 10020 takes 7.1 Z values per zero, at 3, 5.1)
_STALL_PASSES = 3
# least distance from a root to the ends of its record bracket: |Z| there
# stays far above the ~1e-12 noise of its evaluation
_NOISE_FLOOR = 1e-10
# the scan holds t_max/0.05 grid points, and from 1e5 on the 15-digit cache
# quantum (5e-10) leaves no room under _HALFWIDTH for the noise floor
_T_MAX_LIMIT = 1e5


@dataclass(frozen=True)
class ZeroRecord:
    """One zero ordinate; Z changes sign across [gamma - h, gamma + h], h = bracket_halfwidth."""

    index: int
    gamma: float
    bracket_halfwidth: float

    def __post_init__(self):
        if self.index < 1 or self.gamma <= 0.0 or self.bracket_halfwidth <= 0.0:
            raise ValueError("invalid zero record")


@dataclass(frozen=True)
class ZeroList:
    """Ordered zero ordinates up to a scan ceiling t_max."""

    records: tuple[ZeroRecord, ...]
    t_max: float

    def __post_init__(self):
        g = [r.gamma for r in self.records]
        if any(b >= a for a, b in zip(g[1:], g[:-1])):
            raise ValueError("zero ordinates must be strictly increasing")

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def gammas(self) -> np.ndarray:
        return np.array([r.gamma for r in self.records])

    @cached_property
    def inv_square_suffix(self) -> np.ndarray:
        """S[k] = sum_{j >= k} 1/gamma_j^2 over 0-based j, with S[len] = 0, each to ~1 ulp.

        A reversed running sum plus the exact rounding error of each of its
        additions (TwoSum, as in Ogita, Rump & Oishi's Sum2).
        """
        g = self.gammas[::-1]
        x = 1.0 / (g * g)
        s = np.cumsum(x)
        prev = np.concatenate([[0.0], s[:-1]])
        x_part = s - prev
        err = (prev - (s - x_part)) + (x - x_part)
        return np.concatenate([(s + np.cumsum(err))[::-1], [0.0]])

    def count_below(self, t: float) -> int:
        return int(np.searchsorted(self.gammas, t, side="right"))


def counting_estimate(t):
    """Smooth zero-counting estimate theta(t)/pi + 1 (the S(T) term omitted), elementwise."""
    t = np.asarray(t, dtype=float)
    out = np.where(t < 2.0, 0.0, riemann_siegel_theta(t) / math.pi + 1.0)
    return float(out) if out.ndim == 0 else out


def gamma_ceiling(n_zeros: int) -> int:
    """Tight ordinate below which the counting estimate promises n_zeros zeros (n_zeros >= 1).

    The estimate theta(T)/pi + 1 reaches n_zeros + 2 at the Gram point g_{n_zeros + 1}.
    """
    if n_zeros < 1:
        raise DomainError(f"need at least one zero, got {n_zeros}")
    return math.ceil(_gram_points([n_zeros + 1])[0])


def _scan(lo: float, hi: float, step: float) -> np.ndarray:
    """Sign-change brackets of Z on a uniform grid, as rows (lo, hi, Z(lo), Z(hi)).

    The grid is that of np.arange(lo, hi + step, step), which steps by
    (lo + step) - lo, the step as rounded at lo.
    """
    count = math.ceil((hi + step - lo) / step)
    step = (lo + step) - lo
    grid = lo + step * np.arange(count)
    z = z_grid(lo, step, count)
    # a grid point landing exactly on a zero joins the interval to its right
    pos = z >= 0.0
    idx = np.flatnonzero(pos[:-1] != pos[1:])
    return np.stack([grid[idx], grid[idx + 1], z[idx], z[idx + 1]])


def _decimal_quantum(t: np.ndarray) -> np.ndarray:
    """Largest error of writing t with 15 significant digits and reading it back."""
    return 0.5 * 10.0 ** (np.floor(np.log10(t)) - 14.0) + np.spacing(t)


def _refine(brackets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Root estimates and record halfwidths <= ``_HALFWIDTH`` for every bracket at once.

    Regula falsi with the Illinois rule (Dowell & Jarratt, BIT 11, 1971): an
    end kept twice in a row enters the next secant at half its Z value.  A
    pass evaluates Z only at the brackets still too wide.  The new point
    keeps ``_STEP_MIN`` from both ends, so once the secant has the root to
    that accuracy the next step lands past it and closes the bracket; it is
    the midpoint after ``_STALL_PASSES`` passes in a row that did not halve
    the bracket.  Every step keeps the sign change.  The estimate is the
    secant through the final bracket's true Z values: Illinois leaves the
    root near one end, far from the midpoint.
    """
    lo, hi, z_lo, z_hi = brackets.copy()
    gamma = np.empty(lo.size)
    halfw = np.empty(lo.size)
    idx = np.arange(lo.size)
    w_lo, w_hi = z_lo.copy(), z_hi.copy()  # Illinois-weighted values that drive the secant
    last = np.zeros(lo.size, dtype=np.int8)  # end the previous pass replaced: 1 lo, -1 hi, 0 none
    stall = np.zeros(lo.size, dtype=np.int64)  # passes in a row that did not halve the bracket
    while True:
        g = lo - z_lo * (hi - lo) / (z_hi - z_lo)
        # covers [lo, hi], the noise floor and the 15-digit rounding of g, with a quantum to spare
        h = np.maximum(np.maximum(g - lo, hi - g), _NOISE_FLOOR) + 2.0 * _decimal_quantum(g)
        done = h <= _HALFWIDTH
        gamma[idx[done]] = g[done]
        halfw[idx[done]] = h[done]
        if done.all():
            return gamma, halfw
        live = ~done
        idx, lo, hi, z_lo, z_hi, w_lo, w_hi, last, stall = (
            v[live] for v in (idx, lo, hi, z_lo, z_hi, w_lo, w_hi, last, stall)
        )
        width = hi - lo
        margin = np.minimum(_STEP_MIN, 0.5 * width)
        c = np.clip(hi - w_hi * width / (w_hi - w_lo), lo + margin, hi - margin)
        c = np.where(stall >= _STALL_PASSES, 0.5 * (lo + hi), c)
        z_c = z_values(c)
        to_lo = (z_c >= 0.0) == (z_lo >= 0.0)
        w_hi = np.where(to_lo, np.where(last == 1, 0.5 * w_hi, w_hi), z_c)
        w_lo = np.where(to_lo, z_c, np.where(last == -1, 0.5 * w_lo, w_lo))
        lo, z_lo = np.where(to_lo, c, lo), np.where(to_lo, z_c, z_lo)
        hi, z_hi = np.where(to_lo, hi, c), np.where(to_lo, z_hi, z_c)
        last = np.where(to_lo, 1, -1).astype(np.int8)
        stall = np.where(hi - lo > 0.5 * width, stall + 1, 0)


def find_zeros(t_max: float) -> ZeroList:
    """All zeros with gamma <= t_max, each with a record halfwidth h <= 1e-9.

    The Gram point g_n solves theta(g_n) = n pi and is good when
    (-1)^n Z(g_n) > 0.  The scan runs to the first good Gram point past t_max,
    and every Rosser block [g_a, g_b) between consecutive good points must hold
    exactly b - a zeros: a block short of its count is rescanned at 1/16, then
    1/256 of the step, and one still off its count after refinement raises
    MissedZeroError.  Premise: below t = 1e5 every block holds exactly its
    count (Rosser's rule; Rosser, Yohe & Schoenfeld 1969; Brent 1979); Turing's
    upper bound (Lehman 1970; Trudgian 2011) would make this unconditional.

    gamma and h are recorded as the 15-significant-digit values the cache
    stores, so a list equals its own save/load round trip.  Raises DomainError
    for t_max outside [15, 1e5].
    """
    _check_t_max(t_max)
    t_max = _round15(t_max)
    # the good Gram points from g_{-1} ~ 9.67, below every zero, to the first
    # past t_max; below 1e5 no Rosser block spans 64 Gram intervals
    n = np.arange(-1, math.ceil(riemann_siegel_theta(t_max) / math.pi) + 64)
    good = _gram_points(n)
    z_good = z_values(good)
    keep = np.where(n % 2 == 0, z_good, -z_good) > 0.0
    keep[np.flatnonzero(keep & (good > t_max))[0] + 1 :] = False
    n, good, z_good = n[keep], good[keep], z_good[keep]
    want = np.diff(n)
    brackets = _scan(_SCAN_START, good[-1], _SCAN_STEP)
    for step in (_SCAN_STEP / 16.0, _SCAN_STEP / 256.0):
        block = _block_of(brackets, good, z_good)
        short = np.flatnonzero(np.bincount(block, minlength=good.size)[: want.size] < want)
        if not short.size:
            break
        # the finer brackets of a short block supersede its coarse ones
        fine = [_scan(good[j], good[j + 1], step) for j in short]
        fine = [f[:, _block_of(f, good, z_good) == j] for j, f in zip(short, fine)]
        brackets = np.concatenate([brackets[:, ~np.isin(block, short)], *fine], axis=1)
    gammas, halfw = _refine(brackets[:, _block_of(brackets, good, z_good) < want.size])
    order = np.argsort(gammas)
    gammas, halfw = gammas[order], halfw[order]
    have = np.diff(np.searchsorted(gammas, good))
    off = np.flatnonzero(have != want)
    if off.size:
        j = off[0]
        raise MissedZeroError(
            f"{have[j]} zeros in the Rosser block [g({n[j]}), g({n[j + 1]})) = "
            f"[{good[j]:.6f}, {good[j + 1]:.6f}), which has {want[j]} Gram intervals"
        )
    sel = gammas <= t_max
    records = tuple(
        ZeroRecord(index=i + 1, gamma=_round15(g), bracket_halfwidth=_round15(h))
        for i, (g, h) in enumerate(zip(gammas[sel], halfw[sel]))
    )
    return ZeroList(records=records, t_max=t_max)


def _gram_points(n) -> np.ndarray:
    """Gram points g_n, theta(g_n) = n pi, for integers n >= -1: Newton's method
    from an interpolation of theta, increasing from t ~ 6.29 on, on a log grid."""
    target = math.pi * np.asarray(n, dtype=float)
    top = 20.0
    while riemann_siegel_theta(top) < target.max():
        top *= 2.0
    grid = np.geomspace(8.0, top, 512)
    t = np.interp(target, riemann_siegel_theta(grid), grid)
    for _ in range(4):
        t = t - (riemann_siegel_theta(t) - target) / (0.5 * np.log(t / (2.0 * math.pi)))
    return t


def _block_of(brackets: np.ndarray, good: np.ndarray, z_good: np.ndarray) -> np.ndarray:
    """Block index j, good[j] <= zero < good[j+1], of each bracket's zero (good.size - 1 past the
    last point); a bracket across a good point g holds its zero past g when Z(lo) and Z(g) share a sign."""
    lo, hi, z_lo = brackets[0], brackets[1], brackets[2]
    j = np.searchsorted(good, lo, side="right") - 1
    nxt = np.minimum(j + 1, good.size - 1)
    across = (lo < good[nxt]) & (hi > good[nxt]) & ((z_lo >= 0.0) == (z_good[nxt] >= 0.0))
    return j + across


def _check_t_max(t_max: float) -> None:
    if not 15.0 <= t_max <= _T_MAX_LIMIT:
        raise DomainError(
            f"find_zeros needs 15 <= t_max <= {_T_MAX_LIMIT:g} (the first zero is near 14.13), got {t_max:g}"
        )


def _round15(x: float) -> float:
    """x as the cache writes it: 15 significant digits."""
    return float(f"{x:.15g}")


# ------------------------------------------------------------------- caching

_CACHE_MAGIC = "xi-dist-zeros v1"


def save_cache(zl: ZeroList, path) -> None:
    """Plain-text cache; integrity-sealed with a trailing sha256 line.

    The file is written under a temporary name in the target's directory and
    renamed onto ``path``, so a reader never sees a partial or interleaved cache.
    """
    lines = [f"{_CACHE_MAGIC} t_max={zl.t_max:.15g}\n"]
    for r in zl.records:
        lines.append(f"{r.index} {r.gamma:.15g} {r.bracket_halfwidth:.15g} 0.5\n")
    body = "".join(lines).encode("ascii")
    digest = hashlib.sha256(body).hexdigest()
    tmp = f"{path}.{os.urandom(8).hex()}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(body)
            fh.write(f"sha256={digest}\n".encode("ascii"))
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_cache(path) -> ZeroList:
    with open(path, "rb") as fh:
        raw = fh.read()
    text = raw.decode("ascii", errors="strict")
    lines = text.split("\n")
    if not lines or not lines[0].startswith(_CACHE_MAGIC + " t_max="):
        raise CacheParseError("missing header", line=1)
    try:
        t_max = float(lines[0].split("t_max=")[1])
    except (IndexError, ValueError):
        raise CacheParseError("unreadable t_max in header", line=1) from None
    if len(lines) < 2 or not lines[-2].startswith("sha256="):
        raise CacheParseError("missing checksum line", line=len(lines))
    stated = lines[-2].split("=", 1)[1].strip()
    body = "\n".join(lines[:-2]) + "\n"
    digest = hashlib.sha256(body.encode("ascii")).hexdigest()
    if digest != stated:
        raise CacheChecksumError(f"checksum mismatch: file {stated[:12]}.. vs computed {digest[:12]}..")
    records = []
    for i, line in enumerate(lines[1:-2], start=2):
        parts = line.split()
        if len(parts) != 4:
            raise CacheParseError(f"expected 4 fields, got {len(parts)}", line=i)
        try:
            rec = ZeroRecord(index=int(parts[0]), gamma=float(parts[1]), bracket_halfwidth=float(parts[2]))
            beta = float(parts[3])
        except ValueError as exc:
            raise CacheParseError(str(exc), line=i) from None
        if beta != 0.5:
            raise CacheParseError(f"beta {parts[3]} is off the critical line", line=i)
        records.append(rec)
    return ZeroList(records=tuple(records), t_max=t_max)


def ensure_cache(t_max: float, path=None, progress=None) -> ZeroList:
    """Load a cache covering t_max, building (and saving) it if needed.

    A t_max that find_zeros refuses is refused before the build starts.
    """
    if path is None:
        path = os.environ.get("XIDIST_ZERO_CACHE", "xidist_zeros.txt")
    if os.path.exists(path):
        zl = load_cache(path)
        if zl.t_max >= t_max:
            return zl
    _check_t_max(t_max)
    if progress is not None:
        print(f"building zero cache to t_max={t_max:g} ...", file=progress)
        progress.flush()
    zl = find_zeros(t_max)
    save_cache(zl, path)
    if progress is not None:
        print(f"cached {len(zl)} zeros at {path}", file=progress)
    return zl

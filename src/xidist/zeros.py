r"""Locate, certify, cache, and serve the positive ordinates of the
nontrivial zeta zeros on the critical line.

Strategy: uniform sign-change scan of Z(t) (step 0.05) by ``z_grid``, whose
blocked-phase factorization makes the Dirichlet head of each run of grid
points one complex matrix product, then a completeness certificate against
the counting estimate N(T) ~ theta(T)/pi + 1.  Windows where the running
count drifts from the estimate are rescanned, again by ``z_grid``, at 16x
(then 256x) finer resolution; this is what recovers pathologically close
pairs (the tightest gap below t = 1e4 is ~0.0377, near t ~ 7005).  A list
that still fails the certificate raises MissedZeroError rather than being
returned.  Each bracket, with the Z values the scan computed at its ends, is
refined by Illinois regula falsi (``z_values`` at scattered points); gamma is
the secant root of the final bracket, and the recorded halfwidth h <= 1e-9
covers that bracket, a noise floor and the cache's 15-digit rounding, so Z
changes sign across [gamma - h, gamma + h] in memory and after a reload.
t_max is capped at 1e5.

Every located zero is recorded with real part 1/2.  The data model carries a
separate sequence for hypothetical off-line zeros so that downstream code can
treat them generically, but no computation ever populates it.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
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
# coarse scan step; the rescan steps (1/16, 1/256 of it) and the checkpoint
# thresholds of ``_suspect_windows`` are tuned to this value
_SCAN_STEP = 0.05
_CHECKPOINT_SPACING = 25.0
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
    beta: float = 0.5

    def __post_init__(self):
        if self.index < 1 or self.gamma <= 0.0 or self.bracket_halfwidth <= 0.0:
            raise ValueError("invalid zero record")
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must lie in the critical strip")


@dataclass(frozen=True)
class ZeroList:
    """Ordered zero ordinates up to a scan ceiling t_max."""

    records: tuple[ZeroRecord, ...]
    t_max: float
    off_line: tuple[ZeroRecord, ...] = field(default=())

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


def gamma_ceiling(n_zeros: int) -> float:
    """Tight ordinate below which the counting estimate promises n_zeros zeros (n_zeros >= 1)."""
    if n_zeros < 1:
        raise DomainError(f"need at least one zero, got {n_zeros}")
    hi = 100.0
    while counting_estimate(hi) < n_zeros + 2:
        hi *= 1.25
    lo = hi / 1.25
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if counting_estimate(mid) < n_zeros + 2:
            lo = mid
        else:
            hi = mid
    return math.ceil(hi)


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

    Brackets from the scan are refined by Illinois regula falsi; gamma is the
    secant root of the final bracket, and [gamma - h, gamma + h] covers that
    bracket plus a noise floor, so Z changes sign across it.  gamma and h are
    recorded as the 15-significant-digit values the cache stores, so a list
    equals its own save/load round trip.

    Raises DomainError for t_max outside [15, 1e5] and MissedZeroError when
    the final count disagrees with the counting estimate by more than 1 even
    after two rounds of windowed rescans.
    """
    _check_t_max(t_max)
    t_max = _round15(t_max)
    brackets = _scan(_SCAN_START, t_max + _SCAN_STEP, _SCAN_STEP)

    for round_step in (_SCAN_STEP / 16.0, _SCAN_STEP / 256.0):
        bad = _suspect_windows(brackets[0], t_max)
        if not bad:
            break
        for w_lo, w_hi in bad:
            # finer brackets supersede the coarse ones inside the window
            inside = (brackets[0] >= w_lo) & (brackets[0] <= w_hi)
            brackets = np.concatenate([brackets[:, ~inside], _scan(w_lo, w_hi, round_step)], axis=1)
        brackets = brackets[:, np.argsort(brackets[0])]

    gammas, halfw = _refine(brackets)
    order = np.argsort(gammas)
    gammas, halfw = gammas[order], halfw[order]
    # window-edge brackets can re-find a zero; zeros are never this close
    distinct = np.concatenate([[True], np.diff(gammas) > 1e-6])
    gammas, halfw = gammas[distinct], halfw[distinct]
    sel = gammas <= t_max
    gammas, halfw = gammas[sel], halfw[sel]

    for t_check in (100.0, 1000.0, t_max):
        if t_check > t_max:
            continue
        have = int(np.searchsorted(gammas, t_check, side="right"))
        want = counting_estimate(t_check)
        if abs(have - want) > 1.0:
            raise MissedZeroError(
                f"count {have} below t={t_check:g} vs estimate {want:.2f} after the windowed rescans"
            )
    records = tuple(
        ZeroRecord(index=i + 1, gamma=_round15(g), bracket_halfwidth=_round15(h))
        for i, (g, h) in enumerate(zip(gammas, halfw))
    )
    return ZeroList(records=records, t_max=t_max)


def _check_t_max(t_max: float) -> None:
    if not 15.0 <= t_max <= _T_MAX_LIMIT:
        raise DomainError(
            f"find_zeros needs 15 <= t_max <= {_T_MAX_LIMIT:g} (the first zero is near 14.13), got {t_max:g}"
        )


def _round15(x: float) -> float:
    """x as the cache writes it: 15 significant digits."""
    return float(f"{x:.15g}")


def _suspect_windows(bracket_lo: np.ndarray, t_max: float):
    """Checkpoint sweep: windows whose running count drifts from the estimate.

    The fluctuation term S(T) stays well below 1.4 at desk scale, so a
    deviation >= 1.4 at a checkpoint (or a per-window jump >= 1.7) means a
    missed pair rather than noise.  Each flagged checkpoint marks the window
    since the previous one, widened by 1 on both sides; overlaps are merged.
    """
    checks = np.arange(_CHECKPOINT_SPACING, t_max + _CHECKPOINT_SPACING, _CHECKPOINT_SPACING)
    checks[-1] = min(checks[-1], t_max)
    counts = np.searchsorted(bracket_lo, checks, side="right")
    nhat = counting_estimate(checks)
    window_jump = np.abs(np.diff(counts, prepend=0) - np.diff(nhat, prepend=counting_estimate(_SCAN_START)))
    drift = np.abs(counts - nhat)
    bad = np.flatnonzero((window_jump >= 1.7) | (drift >= 1.4))
    prev_t = np.concatenate([[_SCAN_START], checks[:-1]])
    merged = []
    for w_lo, w_hi in zip(np.maximum(_SCAN_START, prev_t[bad] - 1.0), np.minimum(t_max, checks[bad] + 1.0)):
        if merged and w_lo <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], float(w_hi)))
        else:
            merged.append((float(w_lo), float(w_hi)))
    return merged


# ------------------------------------------------------------------- caching

_CACHE_MAGIC = "xi-dist-zeros v1"


def save_cache(zl: ZeroList, path) -> None:
    """Plain-text cache; integrity-sealed with a trailing sha256 line.

    The file is written under a temporary name in the target's directory and
    renamed onto ``path``, so a reader never sees a partial or interleaved cache.
    """
    lines = [f"{_CACHE_MAGIC} t_max={zl.t_max:.15g}\n"]
    for r in list(zl.records) + list(zl.off_line):
        lines.append(f"{r.index} {r.gamma:.15g} {r.bracket_halfwidth:.15g} {r.beta:.15g}\n")
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
    on_line, off_line = [], []
    for i, line in enumerate(lines[1:-2], start=2):
        parts = line.split()
        if len(parts) != 4:
            raise CacheParseError(f"expected 4 fields, got {len(parts)}", line=i)
        try:
            rec = ZeroRecord(
                index=int(parts[0]),
                gamma=float(parts[1]),
                bracket_halfwidth=float(parts[2]),
                beta=float(parts[3]),
            )
        except ValueError as exc:
            raise CacheParseError(str(exc), line=i) from None
        (on_line if rec.beta == 0.5 else off_line).append(rec)
    return ZeroList(records=tuple(on_line), t_max=t_max, off_line=tuple(off_line))


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

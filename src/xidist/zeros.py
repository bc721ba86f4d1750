r"""Locate, certify, cache, and serve the positive ordinates of the
nontrivial zeta zeros on the critical line.

Strategy: uniform sign-change scan of Z(t) (step 0.05), bisection of every
bracket to halfwidth <= 1e-9, then a completeness certificate against the
counting estimate N(T) ~ theta(T)/pi + 1.  Windows where the running count
drifts from the estimate are rescanned at 16x (then 256x) finer resolution;
this is what recovers pathologically close pairs (the tightest gap below
t = 1e4 is ~0.0377, near t ~ 7005).  A list that still fails the certificate
raises MissedZeroError rather than being returned.

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
from .specfun import riemann_siegel_theta, z_values

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


@dataclass(frozen=True)
class ZeroRecord:
    """One bracketed zero ordinate; Z changes sign across the bracket."""

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

    def count_below(self, t: float) -> int:
        return int(np.searchsorted(self.gammas, t, side="right"))


def counting_estimate(t: float) -> float:
    """Smooth zero-counting estimate theta(t)/pi + 1 (the S(T) term omitted)."""
    if t < 2.0:
        return 0.0
    return riemann_siegel_theta(t) / math.pi + 1.0


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


def _brackets_from_grid(grid: np.ndarray, z: np.ndarray):
    s = np.sign(z)
    # a grid point landing exactly on a zero joins the interval to its right
    s[s == 0.0] = 1.0
    idx = np.flatnonzero(s[:-1] * s[1:] < 0.0)
    return grid[idx], grid[idx + 1]


def _bisect_brackets(lo: np.ndarray, hi: np.ndarray, halfwidth: float) -> tuple[np.ndarray, np.ndarray]:
    z_lo = z_values(lo)
    steps = int(math.ceil(math.log2(float(np.max(hi - lo)) / halfwidth))) + 1
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        z_mid = z_values(mid)
        same = np.sign(z_mid) == np.sign(z_lo)
        lo = np.where(same, mid, lo)
        z_lo = np.where(same, z_mid, z_lo)
        hi = np.where(same, hi, mid)
        if float(np.max(hi - lo)) <= 2.0 * halfwidth * 0.999:
            break
    return lo, hi


def _scan(lo: float, hi: float, step: float):
    grid = np.arange(lo, hi + step, step)
    return _brackets_from_grid(grid, z_values(grid))


def find_zeros(t_max: float) -> ZeroList:
    """All zeros with gamma <= t_max, bisected to bracket halfwidth <= 1e-9.

    Raises MissedZeroError when the final count disagrees with the counting
    estimate by more than 1 even after two rounds of windowed rescans.
    """
    if t_max < 15.0:
        raise DomainError("find_zeros needs t_max >= 15 (first zero is near 14.13)")
    # 1e-9 dominates the 15-digit decimal quantization of the cache format,
    # so reloaded brackets still straddle their sign change
    halfwidth = 1e-9
    lo, hi = _scan(_SCAN_START, t_max + _SCAN_STEP, _SCAN_STEP)

    for round_step in (_SCAN_STEP / 16.0, _SCAN_STEP / 256.0):
        bad = _suspect_windows(lo, t_max)
        if not bad:
            break
        for w_lo, w_hi in bad:
            # finer brackets supersede the coarse ones inside the window
            inside = (lo >= w_lo) & (lo <= w_hi)
            add_lo, add_hi = _scan(w_lo, w_hi, round_step)
            lo = np.concatenate([lo[~inside], add_lo])
            hi = np.concatenate([hi[~inside], add_hi])
        order = np.argsort(lo)
        lo, hi = lo[order], hi[order]

    lo, hi = _bisect_brackets(lo, hi, halfwidth)
    gammas = 0.5 * (lo + hi)
    halfw = np.maximum(0.5 * (hi - lo), 1e-12)
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
        ZeroRecord(index=i + 1, gamma=float(g), bracket_halfwidth=float(h))
        for i, (g, h) in enumerate(zip(gammas, halfw))
    )
    return ZeroList(records=records, t_max=float(t_max))


def _suspect_windows(bracket_lo: np.ndarray, t_max: float):
    """Checkpoint sweep: windows whose running count drifts from the estimate.

    The fluctuation term S(T) stays well below 1.4 at desk scale, so a
    persistent deviation >= 1.4 (or a per-window jump >= 1.7) means a missed
    pair rather than noise.
    """
    checks = np.arange(_CHECKPOINT_SPACING, t_max + _CHECKPOINT_SPACING, _CHECKPOINT_SPACING)
    checks[-1] = min(checks[-1], t_max)
    windows = []
    prev_t = _SCAN_START
    prev_nhat = counting_estimate(prev_t)
    prev_count = 0
    flagged_from = None
    for t_chk in checks:
        count = int(np.searchsorted(bracket_lo, t_chk, side="right"))
        nhat = counting_estimate(t_chk)
        window_jump = abs((count - prev_count) - (nhat - prev_nhat))
        drift = abs(count - nhat)
        if window_jump >= 1.7 or (drift >= 1.4 and flagged_from is None):
            flagged_from = prev_t if flagged_from is None else flagged_from
        if flagged_from is not None and (window_jump >= 1.7 or drift >= 1.4):
            windows.append((max(_SCAN_START, flagged_from - 1.0), min(t_max, t_chk + 1.0)))
            flagged_from = None
        prev_t, prev_nhat, prev_count = t_chk, nhat, count
    # merge overlaps
    merged = []
    for w in sorted(windows):
        if merged and w[0] <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], w[1]))
        else:
            merged.append(w)
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
    """Load a cache covering t_max, building (and saving) it if needed."""
    if path is None:
        path = os.environ.get("XIDIST_ZERO_CACHE", "xidist_zeros.txt")
    if os.path.exists(path):
        zl = load_cache(path)
        if zl.t_max >= t_max:
            return zl
    if progress is not None:
        print(f"building zero cache to t_max={t_max:g} ...", file=progress)
        progress.flush()
    zl = find_zeros(t_max)
    save_cache(zl, path)
    if progress is not None:
        print(f"cached {len(zl)} zeros at {path}", file=progress)
    return zl

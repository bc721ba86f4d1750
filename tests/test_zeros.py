import hashlib
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xidist import cli, zeros
from xidist.accuracy import CacheChecksumError, CacheParseError, DomainError, MissedZeroError
from xidist.specfun import riemann_siegel_theta, z_values
from xidist.zeros import (
    ZeroList,
    ZeroRecord,
    counting_estimate,
    find_zeros,
    gamma_ceiling,
    load_cache,
    save_cache,
)

GAMMAS_FROZEN = [14.134725141734694, 21.022039638771555, 25.010857580145689]


def test_first_zero_alone():
    zl = find_zeros(15.0)
    assert len(zl) == 1
    assert abs(zl.records[0].gamma - GAMMAS_FROZEN[0]) < 1e-6


def test_first_three_zeros():
    zl = find_zeros(26.0)
    assert len(zl) == 3
    for rec, want in zip(zl.records, GAMMAS_FROZEN):
        assert abs(rec.gamma - want) < 1e-6


def test_exactly_29_below_100(small_zeros):
    assert small_zeros.count_below(100.0) == 29


def test_counting_estimate_at_100():
    assert abs(counting_estimate(100.0) - 29.0) < 1.0


def test_bracketing_invariant(small_zeros):
    g = small_zeros.gammas
    h = np.array([r.bracket_halfwidth for r in small_zeros.records])
    assert np.all(h <= 1e-9)
    assert np.all(z_values(g - h) * z_values(g + h) < 0.0)


@pytest.mark.parametrize("which", ["big_zeros_found", "big_zeros"])
def test_bracketing_invariant_10k(which, request):
    # in memory and after a cache round trip: the 15-digit quantum and the
    # evaluation noise of Z must both fit inside the recorded halfwidth
    zl = request.getfixturevalue(which)
    g = zl.gammas
    h = np.array([r.bracket_halfwidth for r in zl.records])
    assert len(zl) == 10166
    assert np.all(h <= 1e-9)
    assert np.all(z_values(g - h) * z_values(g + h) < 0.0)


def test_find_zeros_equals_its_cache_round_trip(tmp_path):
    zl = find_zeros(1500.0)
    p = tmp_path / "zc.txt"
    save_cache(zl, p)
    # record for record, and t_max
    assert load_cache(p) == zl


def test_big_list_equals_its_reload(big_zeros_found, big_zeros):
    assert big_zeros == big_zeros_found


def test_near_pair_at_7005(big_zeros):
    g = big_zeros.gammas
    assert np.count_nonzero((g > 7005.0) & (g < 7005.2)) == 2


def test_refinement_evaluates_few_points(monkeypatch):
    from xidist import zeros

    brackets = zeros._scan(10.0, 2000.0, 0.05)
    points = []

    def counting_z(ts):
        points.append(np.size(ts))
        return z_values(ts)

    monkeypatch.setattr(zeros, "z_values", counting_z)
    gamma, halfw = zeros._refine(brackets)
    # the bisection this replaced spent 26 evaluations per zero
    assert sum(points) <= 8 * brackets.shape[1]
    assert np.all(halfw <= 1e-9)
    assert np.all((gamma >= brackets[0]) & (gamma <= brackets[1]))


def _reference_scan(lo, hi, step):
    """The sign-change scan with z_values at every point of np.arange's grid."""
    grid = np.arange(lo, hi + step, step)
    z = z_values(grid)
    pos = z >= 0.0
    idx = np.flatnonzero(pos[:-1] != pos[1:])
    return np.stack([grid[idx], grid[idx + 1], z[idx], z[idx + 1]])


@pytest.fixture(scope="module")
def coarse_scan():
    return zeros._scan(10.0, 10020.05, 0.05)


def test_scan_equals_z_values_reference(coarse_scan):
    ref = _reference_scan(10.0, 10020.05, 0.05)
    assert np.array_equal(coarse_scan[:2], ref[:2])
    assert np.max(np.abs(coarse_scan[2:] - ref[2:])) <= 1e-10


def _good_gram_points(t_top):
    """Indices and ordinates of the good Gram points g_{-1} <= g_n <= t_top."""
    n = np.arange(-1, int(riemann_siegel_theta(t_top) / np.pi) + 1)
    g = zeros._gram_points(n)
    good = (-1.0) ** n * z_values(g) > 0.0
    return n[good], g[good]


def test_gram_points_match_mpmath():
    ns = [-1, 0, 1, 50, 5000, 10100]
    for n, g in zip(ns, zeros._gram_points(ns)):
        with mp.workdps(30):
            want = float(mp.grampoint(n))
        assert abs(g - want) <= 1e-14 * want, n


def test_every_rosser_block_holds_its_count(big_zeros_found):
    n, g = _good_gram_points(10020.0)
    have = np.diff(np.searchsorted(big_zeros_found.gammas, g))
    assert n[0] == -1 and g[-1] > 10000.0
    assert np.array_equal(have, np.diff(n))


def _patch_scan(monkeypatch, lost=(), every_step=False):
    """Make zeros._scan lose the brackets of the zeros in ``lost`` on the coarse scan (or on
    every scan); returns the list of rescan windows it is asked for."""
    scan = zeros._scan
    rescans = []

    def patched(lo, hi, step):
        b = scan(lo, hi, step)
        if step != zeros._SCAN_STEP:
            rescans.append((lo, hi))
            if not every_step:
                return b
        keep = np.ones(b.shape[1], dtype=bool)
        for gamma in lost:
            keep &= ~((b[0] < gamma) & (gamma <= b[1]))
        return b[:, keep]

    monkeypatch.setattr(zeros, "_scan", patched)
    return rescans


def test_rescan_recovers_a_dropped_pair(monkeypatch, small_zeros):
    # two adjacent zeros missing from the coarse scan, as a close pair would be;
    # the rescan's brackets give the same ordinates (their halfwidths may differ)
    pair = small_zeros.gammas[20:22]
    rescans = _patch_scan(monkeypatch, lost=pair)
    got = find_zeros(small_zeros.t_max)
    assert rescans and all(lo < pair[1] and pair[0] < hi for lo, hi in rescans)
    assert len(got) == len(small_zeros)
    assert np.max(np.abs(got.gammas - small_zeros.gammas)) <= 1e-12


def test_pair_dropped_by_every_scan_names_its_block(monkeypatch, small_zeros):
    pair = small_zeros.gammas[20:22]
    _patch_scan(monkeypatch, lost=pair, every_step=True)
    n, g = _good_gram_points(130.0)
    j = np.searchsorted(g, pair[0], side="right") - 1
    with pytest.raises(MissedZeroError, match=rf"Rosser block \[g\({n[j]}\), g\({n[j + 1]}\)\)"):
        find_zeros(120.0)


def test_counts_where_the_smooth_estimate_is_off(big_zeros_found):
    # |S(T)| exceeds 1 at both: the old certificate against theta(T)/pi + 1 raised on these complete lists
    assert len(find_zeros(415.4619125)) == 213
    assert len(find_zeros(gamma_ceiling(7055))) == 7057
    rng = np.random.default_rng(9)
    for t_max in rng.uniform(15.0, 10020.0, 8):
        zl = find_zeros(t_max)
        assert len(zl) == big_zeros_found.count_below(zl.t_max), t_max
        assert np.all(np.abs(zl.gammas - big_zeros_found.gammas[: len(zl)]) <= 1e-9)


def test_find_zeros_10k_rescans_no_drift_window(monkeypatch):
    # [3599, 3626] is where the count drifts from theta(T)/pi + 1 with no zero missed
    rescans = _patch_scan(monkeypatch)
    assert len(find_zeros(10020.0)) == 10166
    assert not [w for w in rescans if w[0] <= 3626.0 and w[1] >= 3599.0]


def test_counting_estimate_is_elementwise():
    ts = np.array([0.0, 1.5, 2.0, 14.0, 100.0, 3600.0, 10020.0])
    assert np.array_equal(counting_estimate(ts), [counting_estimate(t) for t in ts])
    assert counting_estimate(1.0) == 0.0 and isinstance(counting_estimate(100.0), float)


def test_inv_square_suffix_matches_sum(big_zeros):
    g = big_zeros.gammas
    suffix = big_zeros.inv_square_suffix
    assert suffix.shape == (len(g) + 1,) and suffix[-1] == 0.0
    for k in (0, 1, 20, 999, 1000, 5003, 10000, len(g) - 1):
        want = np.sum(1.0 / (g[k:] * g[k:]))
        assert abs(suffix[k] - want) <= 1e-15 * want


def test_ordering_and_simplicity(small_zeros):
    g = small_zeros.gammas
    assert np.all(np.diff(g) > 1e-3)


def test_completeness_checkpoints(small_zeros):
    for t in (50.0, 100.0, 120.0):
        assert abs(small_zeros.count_below(t) - counting_estimate(t)) <= 1.0


def test_tmax_too_small():
    with pytest.raises(DomainError):
        find_zeros(10.0)


@pytest.mark.parametrize("t_max", [1.0001e5, 1e12, float("inf"), float("nan")])
def test_tmax_above_ceiling(t_max):
    with pytest.raises(DomainError):
        find_zeros(t_max)


@pytest.mark.parametrize("k", [0, -5])
def test_gamma_ceiling_needs_one_zero(k):
    with pytest.raises(DomainError):
        gamma_ceiling(k)


def test_gamma_ceiling_small_counts_are_tight():
    # ceil(g_{n+1}): g_2 = 27.67, g_6 = 42.36
    assert gamma_ceiling(1) == 28
    assert gamma_ceiling(5) == 43


@pytest.mark.parametrize("n", [19, 20, 100, 1000, 7055, 10000])
def test_gamma_ceiling_matches_counting_estimate_search(n):
    # reference: the least T at which the counting estimate reaches n + 2, by bisection
    hi = 100.0
    while counting_estimate(hi) < n + 2:
        hi *= 1.25
    lo = hi / 1.25
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if counting_estimate(mid) < n + 2:
            lo = mid
        else:
            hi = mid
    assert gamma_ceiling(n) == math.ceil(hi)


def test_indices_are_one_based(small_zeros):
    assert [r.index for r in small_zeros.records[:4]] == [1, 2, 3, 4]


# ----------------------------------------------------------------- caching

def test_cache_round_trip(tmp_path, small_zeros):
    p = tmp_path / "zc.txt"
    save_cache(small_zeros, p)
    back = load_cache(p)
    assert len(back) == len(small_zeros)
    assert back.t_max == small_zeros.t_max
    # decimal text is the contract: resaving must be byte-identical
    p2 = tmp_path / "zc2.txt"
    save_cache(back, p2)
    assert p.read_bytes() == p2.read_bytes()


def test_cache_of_100_has_29_records(tmp_path):
    zl = find_zeros(100.0)
    p = tmp_path / "zc100.txt"
    save_cache(zl, p)
    assert len(load_cache(p)) == 29


def test_cache_header_line(tmp_path, small_zeros):
    p = tmp_path / "zc.txt"
    save_cache(small_zeros, p)
    first = p.read_text().splitlines()[0]
    assert first == f"xi-dist-zeros v1 t_max={small_zeros.t_max:.15g}"


def test_failed_save_keeps_previous_cache(tmp_path, small_zeros, monkeypatch):
    import os

    p = tmp_path / "zc.txt"
    save_cache(small_zeros, p)
    before = p.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        save_cache(ZeroList(records=small_zeros.records[:3], t_max=30.0), p)
    assert p.read_bytes() == before
    assert [f.name for f in tmp_path.iterdir()] == ["zc.txt"]


def test_truncated_cache_raises_parse_error(tmp_path, small_zeros):
    p = tmp_path / "zc.txt"
    save_cache(small_zeros, p)
    lines = p.read_text().splitlines(keepends=True)
    (tmp_path / "trunc.txt").write_text("".join(lines[:-5]))
    with pytest.raises(CacheParseError):
        load_cache(tmp_path / "trunc.txt")


def test_tampered_cache_raises_checksum_error(tmp_path, small_zeros):
    p = tmp_path / "zc.txt"
    save_cache(small_zeros, p)
    text = p.read_text().replace("14.134725", "14.134726", 1)
    (tmp_path / "bad.txt").write_text(text)
    with pytest.raises(CacheChecksumError):
        load_cache(tmp_path / "bad.txt")


def test_malformed_record_line_number(tmp_path, small_zeros):
    p = tmp_path / "zc.txt"
    save_cache(small_zeros, p)
    lines = p.read_text().splitlines(keepends=True)
    lines[3] = "not a record\n"
    body = "".join(lines[:-1])
    import hashlib

    digest = hashlib.sha256(body.encode()).hexdigest()
    (tmp_path / "bad.txt").write_text(body + f"sha256={digest}\n")
    with pytest.raises(CacheParseError) as err:
        load_cache(tmp_path / "bad.txt")
    assert err.value.line == 4


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=14.0, max_value=9999.0, allow_nan=False),
        min_size=1,
        max_size=12,
        unique=True,
    )
)
def test_cache_round_trip_synthetic(tmp_path_factory, gammas):
    gammas = sorted(gammas)
    if min(np.diff(gammas), default=1.0) <= 1e-6:
        return
    records = tuple(
        ZeroRecord(index=i + 1, gamma=g, bracket_halfwidth=1e-9) for i, g in enumerate(gammas)
    )
    zl = ZeroList(records=records, t_max=10000.0)
    p = tmp_path_factory.mktemp("zc") / "zc.txt"
    save_cache(zl, p)
    back = load_cache(p)
    assert len(back) == len(zl)
    for a, b in zip(back.records, zl.records):
        assert abs(a.gamma - b.gamma) <= 1e-10 * max(1.0, abs(b.gamma))


def test_cache_bytes_are_pinned(tmp_path):
    # the file format is a contract with existing caches: beta is written as 0.5
    zl = ZeroList(
        records=(ZeroRecord(1, 14.134725141734694, 1e-9), ZeroRecord(2, 21.022039638771555, 4e-10)),
        t_max=25.0,
    )
    p = tmp_path / "zc.txt"
    save_cache(zl, p)
    assert hashlib.sha256(p.read_bytes()).hexdigest() == (
        "e63024c1a8cb216fcd7c59eb65dc2e6b697a9f435e44d7a8243d8bb717ab243c"
    )


@pytest.fixture
def off_line_cache(tmp_path, small_zeros):
    """A cache with a valid checksum whose third record (line 4) has beta 0.75."""
    p = tmp_path / "zc.txt"
    save_cache(small_zeros, p)
    lines = p.read_text().splitlines(keepends=True)
    lines[3] = lines[3].replace(" 0.5\n", " 0.75\n")
    body = "".join(lines[:-1])
    p.write_text(body + f"sha256={hashlib.sha256(body.encode()).hexdigest()}\n")
    return p


def test_cache_rejects_off_line_beta(off_line_cache):
    with pytest.raises(CacheParseError, match="beta 0.75") as err:
        load_cache(off_line_cache)
    assert err.value.line == 4


def test_cli_exits_3_on_off_line_beta(off_line_cache):
    argv = ["eval", "--sigma", "2", "--t", "3", "--backend", "zeros", "--K", "1", "--cache", str(off_line_cache)]
    assert cli.main(argv) == 3


def test_zero_record_validation():
    with pytest.raises(ValueError):
        ZeroRecord(index=0, gamma=14.0, bracket_halfwidth=1e-9)
    with pytest.raises(ValueError):
        ZeroList(records=(ZeroRecord(1, 20.0, 1e-9), ZeroRecord(2, 15.0, 1e-9)), t_max=25.0)

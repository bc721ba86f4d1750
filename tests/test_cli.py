import pytest

from xidist.cli import main
from xidist.distribution import XiDistribution


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_trivial(capsys):
    code, out, _ = run_cli(["eval", "--sigma", "2", "--t", "0"], capsys)
    assert code == 0
    assert out.strip() == "1.0 0.0"


def test_eval_matches_library(capsys):
    code, out, _ = run_cli(["eval", "--sigma", "2", "--t", "3"], capsys)
    re_s, im_s = out.split()
    want = XiDistribution(2.0).cf_direct(3.0)
    assert abs(float(re_s) - want.real) < 1e-14
    assert abs(float(im_s) - want.imag) < 1e-14


@pytest.mark.parametrize("backend,tol", [("primes", 1e-5), ("density", 1e-6), ("xi_star", 1e-12)])
def test_eval_alternate_backends(backend, tol, capsys):
    code, out, _ = run_cli(
        ["eval", "--sigma", "2", "--t", "3", "--backend", backend], capsys
    )
    assert code == 0
    re_s, im_s = out.split()
    got = complex(float(re_s), float(im_s))
    direct = XiDistribution(2.0).cf_direct(3.0)
    if backend == "xi_star":
        direct *= 1.0 / complex(1.0, -3.0)  # the smoothed law divides by (sigma-1-it)/(sigma-1)
    assert abs(got - direct) < tol


def test_eval_zeros_backend(tmp_path, capsys):
    cache = str(tmp_path / "zc.txt")
    code, out, err = run_cli(
        ["eval", "--sigma", "2", "--t", "1", "--backend", "zeros", "--K", "20", "--cache", cache],
        capsys,
    )
    assert code == 0
    assert "building zero cache" in err
    # second call must reuse the cache silently
    code, out2, err2 = run_cli(
        ["eval", "--sigma", "2", "--t", "1", "--backend", "zeros", "--K", "20", "--cache", cache],
        capsys,
    )
    assert out == out2
    assert "building" not in err2


def test_density_csv(capsys):
    code, out, _ = run_cli(["density", "--sigma", "2", "--range", "-1:1:9"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "y,pdf,cdf"
    rows = [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    assert len(rows) == 9
    pdf = [r[1] for r in rows]
    cdf = [r[2] for r in rows]
    assert all(p >= 0 for p in pdf)
    assert all(b >= a for a, b in zip(cdf, cdf[1:]))


def test_density_cdf_column_on_coarse_rows(capsys):
    # rows 1.5 apart straddle the density's kink at 0; the column must still be the certified cdf
    code, out, _ = run_cli(["density", "--sigma", "2", "--range=-3:3:5"], capsys)
    assert code == 0
    dist = XiDistribution(2.0)
    rows = [[float(v) for v in ln.split(",")] for ln in out.strip().splitlines()[1:]]
    assert len(rows) == 5
    for y, _, c in rows:
        assert abs(c - dist.cdf(y)) <= 1e-12


def test_density_bad_range(capsys):
    code, _, err = run_cli(["density", "--sigma", "2", "--range", "5:1:9"], capsys)
    assert code == 2
    assert "error" in err


def test_sample_deterministic(capsys):
    args = ["sample", "--sigma", "2", "--n", "5", "--seed", "11"]
    code1, out1, _ = run_cli(args, capsys)
    code2, out2, _ = run_cli(args, capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.strip().splitlines()) == 5


def test_zeros_count(tmp_path, capsys):
    cache = str(tmp_path / "zc.txt")
    code, out, _ = run_cli(["zeros", "--tmax", "100", "--cache", cache], capsys)
    assert code == 0
    assert out.strip() == "29 zeros"


def test_zeros_env_cache(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("XIDIST_ZERO_CACHE", str(tmp_path / "env_cache.txt"))
    code, out, _ = run_cli(["zeros", "--tmax", "30"], capsys)
    assert code == 0
    assert out.strip() == "3 zeros"
    assert (tmp_path / "env_cache.txt").exists()


def test_verify_inequality(capsys):
    code, out, _ = run_cli(["verify", "--sigma", "2", "--suite", "inequality"], capsys)
    assert code == 0
    assert out.startswith("sigma,t,cf_modulus")
    assert "# violations = 0" in out


def test_verify_cross(tmp_path, capsys):
    cache = str(tmp_path / "zc.txt")
    code, out, _ = run_cli(
        ["verify", "--sigma", "0.75", "--suite", "cross", "--K", "25", "--cache", cache],
        capsys,
    )
    # zeros backend at K=25 is far from converged; expect a clean report
    # regardless of pass/fail status
    assert out.startswith("sigma,t,backend_a,backend_b,abs_residual")
    assert code in (0, 1)


def test_verify_cross_full_depth(big_zeros_path, capsys):
    code, out, _ = run_cli(
        ["verify", "--sigma", "2", "--suite", "cross", "--cache", str(big_zeros_path)],
        capsys,
    )
    assert code == 0
    assert "# param k_zeros = 10000" in out


def test_verify_convergence(tmp_path, capsys):
    cache = str(tmp_path / "zc.txt")
    code, out, _ = run_cli(
        ["verify", "--sigma", "2", "--suite", "convergence", "--K", "30", "--t", "3",
         "--cache", cache],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "K,abs_residual"


def _assert_failure_exit(code, err):
    # a progress line may precede the one-line error; no traceback follows it
    assert code == 3
    assert err.splitlines()[-1].startswith("error: ")
    assert "Traceback" not in err


def test_accuracy_error_exit_code(capsys):
    code, _, err = run_cli(["eval", "--sigma", "2", "--t", "1e6"], capsys)
    _assert_failure_exit(code, err)
    assert "Euler-Maclaurin" in err


def test_missed_zero_error_exit_code(monkeypatch, capsys):
    from xidist import cli
    from xidist.accuracy import MissedZeroError

    def incomplete(*args, **kwargs):
        raise MissedZeroError("count 3 below t=30 vs estimate 5.00")

    monkeypatch.setattr(cli, "ensure_cache", incomplete)
    code, _, err = run_cli(["zeros", "--tmax", "30"], capsys)
    _assert_failure_exit(code, err)


def test_cache_parse_error_exit_code(tmp_path, capsys):
    cache = tmp_path / "zc.txt"
    cache.write_text("not a zero cache\n")
    code, _, err = run_cli(["zeros", "--tmax", "30", "--cache", str(cache)], capsys)
    _assert_failure_exit(code, err)
    assert "missing header" in err


def test_cache_checksum_error_exit_code(tmp_path, capsys):
    cache = tmp_path / "zc.txt"
    assert run_cli(["zeros", "--tmax", "30", "--cache", str(cache)], capsys)[0] == 0
    cache.write_text(cache.read_text().replace("14.134725", "14.134726", 1))
    code, _, err = run_cli(["zeros", "--tmax", "30", "--cache", str(cache)], capsys)
    _assert_failure_exit(code, err)
    assert "checksum mismatch" in err


def test_os_error_exit_code(tmp_path, capsys):
    cache = tmp_path / "missing" / "zc.txt"
    code, _, err = run_cli(["zeros", "--tmax", "30", "--cache", str(cache)], capsys)
    _assert_failure_exit(code, err)
    assert not cache.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--sigma", "2", "--t", "3", "--backend", "zeros", "--K", "-5"],
        ["verify", "--sigma", "2", "--suite", "convergence", "--K", "-3"],
    ],
    ids=["eval", "verify"],
)
def test_zero_count_below_one_exit_code(tmp_path, argv, capsys):
    cache = tmp_path / "zc.txt"
    code, out, err = run_cli(argv + ["--cache", str(cache)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert not cache.exists()


def test_usage_error_exit_code(capsys):
    assert main(["eval", "--sigma", "2"]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2

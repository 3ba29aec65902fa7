import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import tailtwist
from tailtwist.normal_tail import log_upper_tail, upper_tail_quantile_from_log


# values frozen from a 40-digit arbitrary-precision evaluation of
# log(erfc(z/sqrt(2))/2)
FROZEN = [
    (-10.0, -7.6198530241605261e-24),
    (25.0 / 6.0, -11.077623477928462),
    (5.0, -15.064998393988726),
    (40.0, -804.6084420137538),
]


@pytest.mark.parametrize("z,expected", FROZEN)
def test_log_upper_tail_frozen_values(z, expected):
    assert log_upper_tail(z) == pytest.approx(expected, rel=1e-13)


def test_log_upper_tail_limits():
    assert log_upper_tail(-np.inf) == 0.0
    assert log_upper_tail(np.inf) == -np.inf


def test_round_trip_from_z():
    z = np.linspace(-37.0, 300.0, 1500)
    y = -log_upper_tail(z)
    back = upper_tail_quantile_from_log(y)
    assert np.allclose(back, z, rtol=1e-10, atol=1e-10)


def test_round_trip_from_y():
    y = np.geomspace(1e-280, 1e6, 2000)
    z = upper_tail_quantile_from_log(y)
    back = -log_upper_tail(z)
    assert np.allclose(back, y, rtol=1e-10)


def test_quantile_edge_cases():
    assert upper_tail_quantile_from_log(0.0) == -np.inf
    assert upper_tail_quantile_from_log(np.inf) == np.inf
    with pytest.raises(ValueError):
        upper_tail_quantile_from_log(-1e-12)


def test_quantile_monotone():
    y = np.geomspace(1e-12, 1e5, 400)
    z = upper_tail_quantile_from_log(y)
    assert np.all(np.diff(z) > 0)


def test_scalar_in_scalar_out():
    assert isinstance(log_upper_tail(1.0), float)
    assert isinstance(upper_tail_quantile_from_log(1.0), float)
    assert isinstance(log_upper_tail(np.ones(3)), np.ndarray)


def test_quantile_writes_into_out():
    y = np.geomspace(1e-12, 1e5, 400)
    before = y.copy()
    out = np.empty_like(y)
    assert upper_tail_quantile_from_log(y, out=out) is out
    assert np.array_equal(out, upper_tail_quantile_from_log(y))
    assert np.array_equal(y, before)
    expected = out.copy()
    assert upper_tail_quantile_from_log(y, out=y) is y
    assert np.array_equal(y, expected)


@pytest.mark.parametrize("bad", [-1e-12, np.nan])
def test_quantile_with_out_still_rejects_bad_input(bad):
    y = np.array([1.0, bad, 2.0])
    with pytest.raises(ValueError):
        upper_tail_quantile_from_log(y, out=np.empty(3))


# -- the scipy boundary, in fresh interpreters --------------------------------------

SRC = str(Path(tailtwist.__file__).resolve().parent.parent)
CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _fresh_python(code: str) -> str:
    """Standard output of code run in a new interpreter on this package."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_weibull_subcommands_never_import_scipy(tmp_path):
    config = str(CONFIGS / "weibull4_thresholds.cfg")
    out = _fresh_python(f"""
        import sys
        import tailtwist, tailtwist.cli
        for command in ("estimate", "threshold-sweep", "efficiency", "diagnose"):
            out = {str(tmp_path)!r} + "/" + command
            args = [command, "--config", {config!r}, "--runs", "2000", "--out", out]
            assert tailtwist.cli.main(args) == 0
        print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
    """)
    assert out.strip() == "[]"
    assert len((tmp_path / "efficiency").read_text().splitlines()) == 14


def test_a_weibull_threshold_sweep_imports_neither_numpy_ma_nor_scipy_special(tmp_path):
    # the share levels' solve keeps to a few small numpy calls; numpy.ma,
    # which some numpy functions import on first use, would add about a
    # megabyte to every run
    config = str(CONFIGS / "weibull4_thresholds.cfg")
    out = _fresh_python(f"""
        import sys
        import tailtwist.cli
        args = ["threshold-sweep", "--config", {config!r}, "--runs", "65537", "--out", {str(tmp_path / "sweep")!r}]
        assert tailtwist.cli.main(args) == 0
        print(sorted(name for name in ("numpy.ma", "scipy.special") if name in sys.modules))
    """)
    assert out.strip() == "[]"
    assert len((tmp_path / "sweep").read_text().splitlines()) == 27


def test_scipy_is_imported_once_on_the_calling_thread_before_any_chunk():
    # one theta, two chunks per row (both rows draw two or more rows whole,
    # so their chunks are 2**16 wide): at workers=2 only pool threads run the
    # chunks, yet each estimate computes its critical uniforms, and so first
    # evaluates a log-normal hazard, on the calling thread before they start
    text = (CONFIGS / "lognormal4_theta_sweep.cfg").read_text().replace("0.2:0.05:0.95", "0.85:0.05:0.85")
    code = """
        import json, sys, threading
        events = []

        def on_main():
            return threading.current_thread() is threading.main_thread()

        def hook(event, args):
            if event == "import" and args[0] == "scipy.special":
                events.append(["import", on_main()])

        sys.addaudithook(hook)
        import tailtwist
        from tailtwist import estimators
        chunk = estimators._simulate_chunk

        def recorded(*args):
            events.append(["chunk", on_main()])
            return chunk(*args)

        estimators._simulate_chunk = recorded
        config = tailtwist.parse_config({text!r}).override(runs=tailtwist.CHUNK_SIZE + 1)
        assert "scipy.special" not in sys.modules
        csv = tailtwist.sweep_rows_to_csv(tailtwist.run_theta_sweep(config, {workers}))
        print(json.dumps([events, csv]))
    """
    (serial_events, serial_csv), (pool_events, pool_csv) = (
        json.loads(_fresh_python(code.format(text=text, workers=workers))) for workers in (1, 2)
    )
    for events in (serial_events, pool_events):
        assert events[0] == ["import", True]
        assert events.count(["import", True]) == 1
        assert len(events) == 5  # the import, then two chunks for each of two rows
    assert all(on_main for _, on_main in serial_events[1:])
    assert not any(on_main for _, on_main in pool_events[1:])
    assert pool_csv == serial_csv
    assert len(pool_csv.splitlines()) == 3


# -- page faults, in a fresh interpreter ---------------------------------------------


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux's minor page faults")
def test_chunks_fault_in_few_pages_once_warm():
    # a chunk's arrays must stay on malloc's heap from chunk to chunk.  A
    # layout that gives them back to the system faults them in again, up to
    # 256 pages per 2**17 doubles: a block of only the whole rows took 90 to
    # 107 faults a chunk in this test, until some larger allocation raised
    # glibc's thresholds.  So a fresh interpreter, where no earlier test has
    # raised them, and each kind of chunk in turn: two warm-up chunks, then
    # 40.  The one block of (n + 2) * count doubles took 15 faults or fewer
    # in 40 chunks.  Wide improved chunks that draw a twisted row at about
    # 40% of their replications (weibull4, and weibull16, whose block is
    # 19 MB) and narrow conventional ones that draw four at about 85%
    # (lognormal4)
    code = f"""
        import json, resource
        from pathlib import Path
        import tailtwist
        from tailtwist import estimators
        from tailtwist.estimators import Method

        def scenario(name, gamma_db):
            text = (Path({str(CONFIGS)!r}) / name).read_text()
            return tailtwist.parse_config(text).scenario.with_threshold_db(gamma_db)

        def improved(name, gamma_db):
            sc = scenario(name, gamma_db)
            plan = tailtwist.select_dominant(sc).with_theta(0.9, tailtwist.ThetaSource.MANUAL)
            return estimators._estimate(sc, Method.IMPROVED_IS, 42 << 17, 7, plan=plan)

        lognormal4 = scenario("lognormal4_theta_sweep.cfg", 25.0)
        estimates = [
            improved("weibull4_thresholds.cfg", 26.0),
            estimators._estimate(lognormal4, Method.CONVENTIONAL_IS, 42 << 16, 7, theta=0.9),
            improved("weibull16_thresholds.cfg", 32.0),
        ]
        faults = []
        for estimate in estimates:
            for args in estimate.chunks[:2]:
                estimators._simulate_chunk(*args)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for args in estimate.chunks[2:]:
                estimators._simulate_chunk(*args)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        layout = [[e.chunks[0][3], len(e.chunks)] for e in estimates]
        print(json.dumps([layout, faults]))
    """
    layout, faults = json.loads(_fresh_python(code))
    assert layout == [[1 << 17, 42], [1 << 16, 42], [1 << 17, 42]]
    assert all(f < 10 * 40 for f in faults), faults

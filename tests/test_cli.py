"""Command line behavior: schemas, plug-in values, exit codes, determinism."""

import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import qnormal3d
from qnormal3d import checks
from qnormal3d.checks import TOL_GRAM_DIAG
from qnormal3d.cli import (
    DENSITY_NAMES,
    EVAL_DENSITIES,
    FORM_NAMES,
    GRAM_FAMILIES,
    SUITE_NAMES,
    main,
)
from qnormal3d.densities import DensityForm, MarginalForm, ModelParams
from qnormal3d.moments import _covariance, cov_yz, var_z
from qnormal3d.polynomials import FAMILIES, default_y


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _cli_env():
    """The environment for `python -m qnormal3d.cli`, importing this package."""
    src = str(Path(qnormal3d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def parse_csv(text):
    meta = {}
    lines = text.splitlines()
    body_start = 0
    for i, line in enumerate(lines):
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
            body_start = i + 1
        else:
            break
    reader = csv.reader(lines[body_start:])
    header = next(reader)
    rows = [dict(zip(header, row)) for row in reader]
    return meta, header, rows


class TestEval:
    def test_base_density_grid(self, capsys):
        code, out, _ = run_cli(["eval", "fN", "--q", "0", "--grid", "-2:2:101"], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta["density"] == "fN"
        assert header == ["x", "value"]
        assert len(rows) == 101
        center = next(r for r in rows if abs(float(r["x"])) < 1e-12)
        assert float(center["value"]) == pytest.approx(1.0 / math.pi, rel=1e-9)

    def test_marginal_all_forms(self, capsys):
        code, out, _ = run_cli(
            ["eval", "fZ", "--q", "0.3", "--r", "0.2", "--form", "all", "--grid", "0:1:3"],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header[0] == "z"
        assert len(header) == 5  # four evaluation routes
        vals = [float(v) for k, v in rows[0].items() if k != "z"]
        assert max(vals) - min(vals) < 1e-12

    @pytest.mark.parametrize("density", DENSITY_NAMES)
    def test_every_density_tabulates(self, density, capsys):
        code, out, _ = run_cli(["eval", density, "--q", "0.5", "--grid", "-1:1:3"], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta["density"] == density and header[-1] == "value"
        assert len(rows) == 3 ** (len(header) - 1)
        assert all(0.0 < float(row["value"]) < math.inf for row in rows)

    @pytest.mark.parametrize(
        "density, argv",
        [
            ("fZ", ["--q", "0.3", "--r", "0.2", "--grid", "-1:1:5"]),
            ("f3D", ["--q", "0.5", "--grid", "-1:1:3"]),
            ("pmKernel", ["--q", "0.9", "--y", "0.4", "--grid", "-1:1:5"]),
        ],
    )
    def test_form_all_columns_are_the_single_route_runs(self, density, argv, capsys):
        _, _, _, routes, default = EVAL_DENSITIES[density]
        code, out, _ = run_cli(["eval", density, *argv, "--form", "all"], capsys)
        assert code == 0
        meta, header, rows = parse_csv(out)
        assert meta["form"] == "all"
        assert header[-len(routes):] == [f"value_{route}" for route in routes]
        for route in routes:
            code, single, _ = run_cli(["eval", density, *argv, "--form", route], capsys)
            assert code == 0
            meta, _, single_rows = parse_csv(single)
            assert meta["form"] == route
            assert [r["value"] for r in single_rows] == [r[f"value_{route}"] for r in rows]
        # Without --form the density takes its default route, byte for byte.
        code, implicit, _ = run_cli(["eval", density, *argv], capsys)
        assert code == 0
        assert implicit == run_cli(["eval", density, *argv, "--form", default], capsys)[1]

    def test_form_all_writes_the_routes_that_do_not_raise(self, capsys):
        # The even series overflows at term 1021 here; the other three routes
        # still tabulate, and the exit code is the overflow's.
        argv = "eval fZ --q 0.5 --r 0.999 --form all --grid -2.8:2.8:41".split()
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        _, header, rows = parse_csv(out)
        assert header == ["z", "value_hermite-series", "value_rogers", "value_edge-product"]
        assert len(rows) == 41
        assert err.splitlines() == ["error: even-series: even-degree series overflowed at term 1021"]
        for route in ("rogers", "edge-product"):
            _, single, _ = run_cli([route if a == "all" else a for a in argv], capsys)
            assert [r["value"] for r in parse_csv(single)[2]] == [r[f"value_{route}"] for r in rows]

    def test_closed_is_not_a_form(self, capsys):
        # The product route has one name; argparse rejects the old second one.
        with pytest.raises(SystemExit) as exit_:
            main(["eval", "f3D", "--q", "0.5", "--form", "closed"])
        assert exit_.value.code == 2
        assert "invalid choice: 'closed'" in capsys.readouterr().err

    def test_invalid_q_exits_2(self, capsys):
        code, _, err = run_cli(["eval", "fN", "--q", "1.5", "--grid", "-1:1:5"], capsys)
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize(
        "density, grid",
        [
            ("fN", "-1:inf:3"),
            ("fN", "-inf:1:3"),
            ("fN", "nan:1:3"),
            ("fN", "0:nan:3"),
            ("f3D", "0:1:2;nan:1:2;0:1:2"),
        ],
    )
    def test_non_finite_grid_endpoint_exits_2(self, density, grid, capsys):
        code, out, err = run_cli(["eval", density, "--q", "0.5", f"--grid={grid}"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "finite" in err

    def test_joint_density_grid(self, capsys):
        code, out, _ = run_cli(
            ["eval", "f3D", "--q", "0.5", "--rho", "0.3,0.4,0.5", "--grid", "-1:1:3"],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["x", "y", "z", "value"]
        assert len(rows) == 27

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["eval", "fN", "--q", "0", "--grid", "0:1:2", "--format", "json"], capsys
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["metadata"]["density"] == "fN"
        assert payload["columns"] == ["x", "value"]
        assert len(payload["rows"]) == 2


class TestCheck:
    def test_marginals_single_point(self, capsys):
        code, out, _ = run_cli(
            ["check", "marginals", "--rho", "0.3,0.4,0.5", "--q", "0.5"], capsys
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        names = {r["name"] for r in rows}
        assert "C3D-normalization" in names
        assert all(r["passed"] == "true" for r in rows)

    def test_rejects_half_specified_point(self, capsys):
        code, _, err = run_cli(["check", "marginals", "--q", "0.5"], capsys)
        assert code == 2
        assert "error" in err

    def test_invalid_rho_exits_2(self, capsys):
        code, _, _ = run_cli(
            ["check", "poisson-mehler", "--rho", "0.3,0.4,1.5", "--q", "0.5"], capsys
        )
        assert code == 2

    def test_zero_correlation_exits_0_without_traceback(self):
        # r = 0 here, so every var-limit error is exactly 0.
        argv = ["check", "all", "--rho", "0,0.6,0.3", "--q", "0.5", "--seed", "1"]
        out = subprocess.run(
            [sys.executable, "-m", "qnormal3d.cli", *argv],
            env=_cli_env(),
            capture_output=True, text=True, timeout=120,
        )
        assert (out.returncode, out.stderr) == (0, "")
        _, _, rows = parse_csv(out.stdout)
        assert len(rows) == 38
        assert all(r["passed"] == "true" for r in rows)


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason="OPENBLAS_CORETYPE names x86_64 kernels",
)
@pytest.mark.parametrize(
    "argv",
    [
        "gram --family qhermite --q 0.7 --nmax 8",
        "check marginals --rho 0.3,0.6,0.3 --q 0.7 --seed 1",
    ],
    ids=["gram", "check-marginals"],
)
def test_stdout_does_not_depend_on_the_blas_kernel(argv):
    """Data output is the same bytes whichever CPU kernel OpenBLAS picks:
    the package's sums run in numpy's own loops."""
    env = {k: v for k, v in _cli_env().items() if k != "OPENBLAS_CORETYPE"}
    outs = [
        subprocess.run(
            [sys.executable, "-m", "qnormal3d.cli", *argv.split()],
            env={**env, **extra}, capture_output=True, text=True, timeout=120, check=True,
        ).stdout
        for extra in ({}, {"OPENBLAS_CORETYPE": "Prescott"})
    ]
    assert outs[0] == outs[1]


class TestMoments:
    def test_variance_plugin(self, capsys):
        code, out, _ = run_cli(["moments", "--kind", "var_z", "--r", "0.5", "--q", "0"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["closed"]) == pytest.approx(1.5, abs=1e-15)
        assert float(rows[0]["abs_err"]) < 1e-9

    def test_mixed_moment(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--kind", "mixed", "--q", "0.5", "--rho", "0.3,0.4,0.5", "--m", "2", "--n", "2"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["closed"]) == pytest.approx(0.56062588309173689, rel=1e-10)
        assert float(rows[0]["abs_err"]) < 1e-9

    def test_even_hermite_moment(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--kind", "eh2n_z", "--q", "0.5", "--r", "0.3", "--n", "3"], capsys
        )
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert (meta["r"], meta["n"]) == ("0.29999999999999999", "3")
        assert rows[0]["detail"] == "n=3,r=0.29999999999999999"
        assert float(rows[0]["closed"]) == pytest.approx(0.25517370646047111, rel=1e-14)
        assert float(rows[0]["abs_err"]) < 1e-13

    def test_conditional_kind(self, capsys):
        code, out, _ = run_cli(
            ["moments", "--kind", "cond_y", "--q", "0.3", "--rho", "0.3,0.4,0.5", "--n", "2", "--z", "0.4"],
            capsys,
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert float(rows[0]["abs_err"]) < 1e-7


class TestGram:
    def test_q_hermite_diagonal(self, capsys):
        code, out, _ = run_cli(["gram", "--family", "qhermite", "--nmax", "4", "--q", "0.5"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        diag = {int(r["i"]): float(r["value"]) for r in rows if r["i"] == r["j"]}
        expected = [1.0, 1.0, 1.5, 2.625, 4.921875]
        for i, want in enumerate(expected):
            assert diag[i] == pytest.approx(want, rel=1e-9)
        off = [float(r["value"]) for r in rows if r["i"] != r["j"]]
        assert max(abs(v) for v in off) < 1e-10

    @pytest.mark.parametrize(
        "family, flags, given",
        [
            ("qhermite", [], {}),
            ("asc", ["--rho1", "-0.4"], {"y": default_y(0.5), "rho1": -0.4}),
            ("rogers", ["--r", "0.3"], {"r": 0.3}),
        ],
    )
    def test_each_family_matches_its_table_entry(self, family, flags, given, capsys):
        nmax, q = 5, 0.5
        argv = ["gram", "--family", family, "--nmax", str(nmax), "--q", str(q), *flags]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        meta, _, rows = parse_csv(out)
        assert len(rows) == (nmax + 1) ** 2
        # The family's parameters close the metadata block, in this order.
        keys = list(meta)
        tail = keys[keys.index("quad_tol_3d") + 1 :]
        assert [(key, float(meta[key])) for key in tail] == list(given.items())
        norms = FAMILIES[family].norms(nmax, *given.values(), q)
        diag = [float(r["value"]) for r in rows if r["i"] == r["j"]]
        for got, want in zip(diag, norms, strict=True):
            assert abs(got - want) <= TOL_GRAM_DIAG * max(1.0, abs(want))


def test_help_imports_no_numpy_and_name_tuples_match_tables():
    # The parser's name tuples are literals so that --help stays free of
    # numpy; they must still list exactly what the tables define.
    src = str(Path(qnormal3d.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import contextlib, io, sys\n"
        "import qnormal3d.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        qnormal3d.cli.main(['--help'])\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.strip() == "False"
    assert GRAM_FAMILIES == tuple(FAMILIES)
    assert SUITE_NAMES == (*checks.SUITES, "all")
    density_forms = tuple(f.value for f in DensityForm)
    marginal_forms = tuple(f.value for f in MarginalForm)
    assert FORM_NAMES == (*density_forms, *marginal_forms, "all")
    routes = {name: entry[3:] for name, entry in EVAL_DENSITIES.items() if entry[3:]}
    assert routes == {
        "f3D": (density_forms, "product"),
        "fZ": (marginal_forms, "rogers"),
        "pmKernel": (("product", "series"), "product"),
    }


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


class TestSample:
    def test_closed_stdout_exits_141_quietly(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _ClosedPipe())
        code = main(["sample", "--target", "fn", "--q", "0.5", "--n", "100"])
        assert (code, capsys.readouterr().err) == (141, "")

    def test_closed_pipe_exits_141_without_traceback(self):
        # As in `qnormal3d sample ... | head -1`: the output is far larger
        # than a pipe buffer, so the writer meets the closed end.
        argv = ["sample", "--target", "fn", "--q", "0.5", "--n", "200000"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "qnormal3d.cli", *argv],
            env=_cli_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        try:
            assert proc.stdout.readline() == b"# command=sample\n"
            proc.stdout.close()
            err = proc.stderr.read()
            assert (proc.wait(timeout=120), err) == (141, b"")
        finally:
            proc.kill()
            proc.wait()
            proc.stderr.close()

    def test_byte_identical_reruns(self, capsys):
        argv = ["sample", "--n", "1000", "--seed", "7", "--grid-points", "64"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_summary_mode(self, capsys):
        code, out, _ = run_cli(
            [
                "sample", "--n", "2000", "--seed", "3", "--grid-points", "64", "--summary",
            ],
            capsys,
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["stat", "estimate", "std_error", "target"]
        stats = {r["stat"]: r for r in rows}
        assert set(stats) >= {"mean_x", "var_z", "cov_yz"}
        row = stats["var_z"]
        dev = abs(float(row["estimate"]) - float(row["target"]))
        assert dev < 6 * float(row["std_error"])
        # The targets are the moments module's formulas, bit for bit.
        p = ModelParams(0.3, 0.4, 0.5, 0.5)
        cov = _covariance(p)
        assert float(row["target"]) == var_z(p.r, p.q)
        assert float(stats["cov_yz"]["target"]) == cov_yz(p) == cov[1, 2]
        assert float(stats["cov_xy"]["target"]) == cov[0, 1]
        assert float(stats["cov_xz"]["target"]) == cov[0, 2]

    def test_base_target(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--target", "fn", "--n", "500", "--seed", "1", "--q", "0"], capsys
        )
        assert code == 0
        _, header, rows = parse_csv(out)
        assert header == ["x"]
        assert len(rows) == 500

    def test_base_target_near_gaussian_q(self, capsys):
        code, out, _ = run_cli(
            ["sample", "--target", "fn", "--n", "500", "--seed", "1", "--q", "0.99"], capsys
        )
        assert code == 0
        _, _, rows = parse_csv(out)
        assert len(rows) == 500


class TestLimits:
    def test_errors_decrease(self, capsys):
        code, out, _ = run_cli(["limits", "--q-seq", "0.9,0.99,0.999"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        by_check = {}
        for r in rows:
            by_check.setdefault(r["check"], []).append(float(r["error"]))
        assert set(by_check) == {"fn-gaussian-limit", "asc-hermite-limit", "var-limit"}
        for errs in by_check.values():
            assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_zero_error_series_reads_ratio_zero(self, capsys):
        code, out, _ = run_cli(["limits", "--r", "0"], capsys)
        assert code == 0
        _, _, rows = parse_csv(out)
        var_rows = [(r["error"], r["ratio"]) for r in rows if r["check"] == "var-limit"]
        assert var_rows == [("0", ""), ("0", "0"), ("0", "0")]


class TestOutputFile:
    def test_writes_to_path(self, capsys, tmp_path):
        target = tmp_path / "out.csv"
        code = main(["eval", "fN", "--q", "0", "--grid", "0:1:2", "--output", str(target)])
        capsys.readouterr()
        assert code == 0
        meta, _, rows = parse_csv(target.read_text())
        assert meta["command"] == "eval"
        assert len(rows) == 2

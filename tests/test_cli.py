import json
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import entroof.cli as cli
import entroof.io as fileio
import entroof.roof as roof
from entroof import BipartiteDims, DensityOperator, InvariantViolation, PureState, RoofProblem
from entroof.linalg import clip_spectrum
from entroof.locc import LoccNode
from entroof.measures import MEASURES, MeasureSpec
from entroof.sampling import random_density

from util import (
    DIMS22,
    bell,
    edge_rank_density,
    iter_nodes,
    leaf,
    mixed_party_tree,
    shape_mismatch_tree,
    two_round_tree,
)


@pytest.fixture
def files(tmp_path):
    paths = {}
    fileio.save_state(tmp_path / "bell.json", bell())
    paths["bell"] = str(tmp_path / "bell.json")
    fileio.save_state(tmp_path / "bellproj.json", DensityOperator.from_pure(bell()))
    paths["bellproj"] = str(tmp_path / "bellproj.json")
    rng = np.random.default_rng(12)
    fileio.save_state(tmp_path / "mixed.json", random_density(DIMS22, rng))
    paths["mixed"] = str(tmp_path / "mixed.json")

    proj0 = np.array([[1, 0], [0, 0]], dtype=complex)
    proj1 = np.array([[0, 0], [0, 1]], dtype=complex)
    meas = LoccNode("A", kraus=(proj0, proj1), children=(leaf(), leaf()))
    fileio.save_tree(tmp_path / "meas.json", meas, DIMS22)
    paths["meas"] = str(tmp_path / "meas.json")

    ident = LoccNode("A", kraus=(np.eye(2),), children=(leaf(),))
    fileio.save_tree(tmp_path / "ident.json", ident, DIMS22)
    paths["ident"] = str(tmp_path / "ident.json")

    bad = LoccNode("A", kraus=(np.eye(2) / 2,), children=(leaf(),))
    fileio.save_tree(tmp_path / "bad.json", bad, DIMS22)
    paths["bad"] = str(tmp_path / "bad.json")

    (tmp_path / "badnorm.json").write_text(json.dumps(
        {"kind": "pure", "dims": [2, 2],
         "data": [[1.0, 0.0], [0.5, 0.0], [0.0, 0.0], [0.0, 0.0]]}))
    paths["badnorm"] = str(tmp_path / "badnorm.json")

    (tmp_path / "notjson.json").write_text("{nope")
    paths["notjson"] = str(tmp_path / "notjson.json")
    paths["tmp"] = tmp_path
    return paths


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(stdout: str) -> dict:
    return json.loads(stdout)


# --- state / tree file handling ------------------------------------------------

def test_state_file_roundtrip(tmp_path):
    psi = bell()
    fileio.save_state(tmp_path / "s.json", psi)
    loaded = fileio.load_state(tmp_path / "s.json")
    assert isinstance(loaded, PureState)
    np.testing.assert_array_equal(loaded.amplitudes, psi.amplitudes)

    rng = np.random.default_rng(0)
    rho = random_density(BipartiteDims(2, 3), rng)
    fileio.save_state(tmp_path / "d.json", rho)
    loaded = fileio.load_state(tmp_path / "d.json")
    assert isinstance(loaded, DensityOperator)
    np.testing.assert_array_equal(loaded.matrix, rho.matrix)


def test_tree_file_roundtrip(tmp_path, files):
    tree, dims = fileio.load_tree(files["meas"])
    assert dims.as_tuple() == (2, 2)
    assert tree.party == "A"
    assert len(tree.kraus) == 2
    assert all(c.is_leaf for c in tree.children)


# --- measure --------------------------------------------------------------------

def test_measure_bell(capsys, files):
    code, out, _ = run(capsys, ["measure", files["bell"], "--measure", "e"])
    assert code == 0
    det = report_of(out)["deterministic"]
    assert abs(det["results"]["value"] - 0.7071067811865475) < 1e-10
    np.testing.assert_allclose(det["results"]["lambdas"], [0.5, 0.5], atol=1e-12)


def test_measure_p_number(capsys, files):
    code, out, _ = run(capsys, ["measure", files["bell"],
                                "--measure", "p-number", "--p", "3"])
    assert code == 0
    value = report_of(out)["deterministic"]["results"]["value"]
    assert abs(value - 0.908560) < 1e-6


def test_measure_malformed_file(capsys, files):
    code, _, err = run(capsys, ["measure", files["badnorm"], "--measure", "e"])
    assert code == 2
    assert "norm" in err and "residual" in err

    code, _, err = run(capsys, ["measure", files["notjson"], "--measure", "e"])
    assert code == 2
    assert "json" in err


def test_measure_invalid_params(capsys, files):
    code, _, err = run(capsys, ["measure", files["bell"],
                                "--measure", "p-number", "--p", "0.5"])
    assert code == 3
    code, _, err = run(capsys, ["measure", files["bell"], "--measure", "nonsense"])
    assert code == 3
    code, _, _ = run(capsys, ["measure", files["bell"], "--measure", "p-number"])
    assert code == 3
    # density file where a pure state is required
    code, _, _ = run(capsys, ["measure", files["mixed"], "--measure", "e"])
    assert code == 3


@pytest.mark.parametrize("params", [
    ["--measure", "concurrence", "--k", "5"],
    ["--measure", "geometric", "--ranks", "3,3"],
])
def test_measure_parameter_out_of_range_for_dims_exit_3(capsys, files, params):
    # valid on their own, these parameters exceed the 2x2 state's local dims
    code, out, err = run(capsys, ["measure", files["bell"], *params])
    assert code == 3
    assert out == ""
    assert "Traceback" not in err


def test_argparse_errors_map_to_exit_3(capsys, files):
    assert cli.main(["measure", files["bell"]]) == 3  # missing --measure
    assert cli.main(["measure", files["bell"], "--measure", "geometric",
                     "--ranks", "1,x"]) == 3
    capsys.readouterr()


PARAM_ARGV = {None: [], "p": ["--p", "2.5"], "k": ["--k", "2"], "ranks": ["--ranks", "1,1"]}


def test_every_alias_round_trips_through_spec_config():
    parser = cli.build_parser()
    for name, kind in cli.MEASURE_NAMES.items():
        for base in (["--log-base", "2"], ["--log-base", "e"]):
            argv = ["measure", "s.json", "--measure", name, *PARAM_ARGV[MEASURES[kind].param]]
            spec = cli._spec_from_args(parser.parse_args(argv + base))
            assert spec.kind == kind
            config = cli._spec_config(spec)
            rebuilt = MeasureSpec(
                config["kind"], p=config["p"], k=config["k"],
                ranks=tuple(config["ranks"]) if config["ranks"] else None,
                log_base=math.e if config["log_base"] == "e" else 2.0)
            assert rebuilt == spec
    assert set(cli.MEASURE_NAMES.values()) == set(MEASURES)


# --- roof -----------------------------------------------------------------------

def test_roof_bell_projector(capsys, files):
    code, out, _ = run(capsys, [
        "roof", files["bellproj"], "--measure", "e",
        "--m", "2", "--restarts", "4", "--seed", "7"])
    assert code == 0
    det = report_of(out)["deterministic"]
    res = det["results"]
    assert abs(res["value"] - 0.7071067811865475) < 1e-9
    assert res["reconstruction_residual"] <= 1e-8
    assert res["converged"] is True
    assert det["config"]["roof"]["seed"] == 7
    assert det["config"]["roof"]["ensemble_size"] == 2
    assert det["config"]["roof"]["max_iters"] == RoofProblem.max_iters
    assert det["config"]["roof"]["direction"] == "min"
    assert len(res["ensemble"]["weights"]) == len(res["ensemble"]["states"])


def test_roof_and_sweep_report_lower_bound(capsys, files, tmp_path):
    # a certified two-qubit solve reports its bound and its bracket width as
    # the gap; a 2x3 solve and the p-number at p > 2 report null; a pure
    # state's sweep rows are exact
    from entroof.twoqubit import roof_lower_bound

    rho = fileio.load_state(files["mixed"])
    code, out, _ = run(capsys, ["roof", files["mixed"], "--measure", "e", "--restarts", "4"])
    res = report_of(out)["deterministic"]["results"]
    assert code == 0 and res["converged"] is True
    assert res["lower_bound"] == roof_lower_bound(rho, MeasureSpec("entanglement-number"))
    assert res["gap_estimate"] == max(0.0, res["value"] - res["lower_bound"])
    fileio.save_state(tmp_path / "q23.json",
                      random_density(BipartiteDims(2, 3), np.random.default_rng(3), 2))
    code, out, _ = run(capsys, ["roof", str(tmp_path / "q23.json"), "--measure", "e",
                                "--restarts", "2"])
    assert code == 0 and report_of(out)["deterministic"]["results"]["lower_bound"] is None
    code, out, _ = run(capsys, ["sweep", files["mixed"], "--p-grid", "2:2.5:0.5",
                                "--restarts", "2"])
    rows = report_of(out)["deterministic"]["results"]["rows"]
    assert code == 0 and rows[0]["lower_bound"] <= rows[0]["value"] + 1e-12
    assert rows[1]["lower_bound"] is None
    _, out, _ = run(capsys, ["sweep", files["bell"], "--p-grid", "1.5:3:0.5"])
    rows = report_of(out)["deterministic"]["results"]["rows"]
    assert all(r["lower_bound"] == r["value"] for r in rows)


def test_roof_deterministic_and_parallel_identical(capsys, files):
    argv = ["roof", files["mixed"], "--measure", "e",
            "--restarts", "6", "--seed", "11"]
    _, out1, _ = run(capsys, argv)
    _, out2, _ = run(capsys, argv)
    _, out3, _ = run(capsys, argv)
    det1 = json.dumps(report_of(out1)["deterministic"], sort_keys=True)
    det2 = json.dumps(report_of(out2)["deterministic"], sort_keys=True)
    det3 = json.dumps(report_of(out3)["deterministic"], sort_keys=True)
    assert det1 == det2 == det3


def test_parser_built_once_per_process(capsys, files):
    # main parses with one parser per process; parsing does not change it
    cli.build_parser.cache_clear()
    argv = ["roof", files["mixed"], "--measure", "e", "--restarts", "2", "--seed", "3"]
    code1, out1, _ = run(capsys, argv)
    assert run(capsys, argv + ["--restarts", "x"])[0] == 3
    assert run(capsys, ["roof", "--help"])[0] == 0
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert report_of(out1)["deterministic"] == report_of(out2)["deterministic"]
    assert cli.build_parser.cache_info().misses == 1


def test_roof_requires_density(capsys, files):
    code, _, _ = run(capsys, ["roof", files["bell"], "--measure", "e"])
    assert code == 3


def test_roof_internal_failure_exit_4(capsys, files, monkeypatch):
    monkeypatch.setattr(cli, "RECONSTRUCTION_LIMIT", -1.0)
    code, out, _ = run(capsys, ["roof", files["bellproj"], "--measure", "e",
                                "--m", "2", "--restarts", "2"])
    assert code == 4
    assert "results" in report_of(out)["deterministic"]


def test_roof_out_duplicates_report(capsys, files):
    out_path = files["tmp"] / "report.json"
    _, out, _ = run(capsys, ["roof", files["bellproj"], "--measure", "e",
                             "--m", "2", "--restarts", "2", "--out", str(out_path)])
    assert out_path.read_text().strip() == out.strip()


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_out_exit_3(capsys, files, target):
    path = files["tmp"] / "missing" / "x.json" if target == "missing-dir" else files["tmp"]
    argv = ["measure", files["bell"], "--measure", "e"]
    _, plain, _ = run(capsys, argv)
    code, out, err = run(capsys, argv + ["--out", str(path)])
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1
    assert report_of(out)["deterministic"] == report_of(plain)["deterministic"]


JSON_LEAVES = (st.none() | st.booleans() | st.integers()
               | st.floats(allow_nan=False, allow_infinity=False)
               | st.sampled_from([-0.0, 5e-324, 1e308]) | st.text())
JSON_VALUES = st.recursive(
    JSON_LEAVES, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4), max_leaves=20)


def _arrays_flat(value) -> bool:
    """No array holds a non-empty object or array."""
    if isinstance(value, dict):
        return all(map(_arrays_flat, value.values()))
    if isinstance(value, list):
        return not any(isinstance(v, (dict, list)) and v for v in value)
    return True


@given(JSON_VALUES)
def test_report_layout_round_trips(value):
    text = cli._layout(value)
    canonical = json.dumps(value, sort_keys=True)  # float reprs tell -0.0 from 0.0
    assert json.dumps(json.loads(text), sort_keys=True) == canonical
    if _arrays_flat(value):
        assert text == json.dumps(value, sort_keys=True, indent=2)


def test_locc_report_has_one_line_per_branch(capsys, files):
    tree = two_round_tree(np.random.default_rng(5), "A", "B", outcomes=3)
    fileio.save_tree(files["tmp"] / "three.json", tree, DIMS22)
    out_path = files["tmp"] / "report.json"
    code, out, _ = run(capsys, ["locc", str(files["tmp"] / "three.json"), files["bell"],
                                "--measure", "e", "--restarts", "1", "--out", str(out_path)])
    assert code == 0
    assert out_path.read_text() == out
    branches = report_of(out)["deterministic"]["results"]["branches"]
    assert len(branches) == 13
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.endswith('"branches": ['))
    rows = lines[start + 1:start + 1 + len(branches)]
    assert [json.loads(row.strip().rstrip(",")) for row in rows] == branches
    assert lines[start + 1 + len(branches)].strip() in ("]", "],")


# --- sweep ----------------------------------------------------------------------

def test_sweep_pure_grid(capsys, files):
    code, out, _ = run(capsys, ["sweep", files["bell"], "--p-grid", "1.5:3.0:0.5"])
    assert code == 0
    res = report_of(out)["deterministic"]["results"]
    assert [r["p"] for r in res["rows"]] == [1.5, 2.0, 2.5, 3.0]
    vals = [r["value"] for r in res["rows"]]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert res["csv"].startswith("p,value\n")
    assert len(res["csv"].splitlines()) == 5


def test_sweep_product_all_zero(capsys, tmp_path):
    prod = PureState(np.array([0, 1, 0, 0], dtype=complex), DIMS22)
    fileio.save_state(tmp_path / "prod.json", prod)
    _, out, _ = run(capsys, ["sweep", str(tmp_path / "prod.json"),
                             "--p-grid", "1.5:2.5:0.5"])
    res = report_of(out)["deterministic"]["results"]
    assert all(r["value"] == 0.0 for r in res["rows"])


def test_sweep_density_nondecreasing(capsys, files):
    code, out, _ = run(capsys, ["sweep", files["mixed"], "--p-grid", "1.5:2.5:0.5",
                                "--restarts", "8", "--seed", "2"])
    assert code == 0
    rows = report_of(out)["deterministic"]["results"]["rows"]
    for a, b in zip(rows, rows[1:]):
        budget = 2 * max(a["gap_estimate"], b["gap_estimate"]) + 1e-6
        assert b["value"] >= a["value"] - budget


def test_sweep_at_large_p_stays_finite(capsys, tmp_path):
    # at p = 300 the p-number's derivative at product spectra must stay
    # finite: an overflow prints numpy RuntimeWarnings, errors under this suite
    rho = random_density(DIMS22, np.random.default_rng(1), 3)
    fileio.save_state(tmp_path / "rank3.json", rho)
    code, out, _ = run(capsys, ["sweep", str(tmp_path / "rank3.json"), "--p-grid", "300:300:1",
                                "--restarts", "2", "--seed", "1"])
    assert code == 0
    rows = report_of(out)["deterministic"]["results"]["rows"]
    assert [r["p"] for r in rows] == [300.0]
    assert 0.0 <= rows[0]["value"] <= 1.0


def test_sweep_rejects_bad_grid(capsys, files):
    assert run(capsys, ["sweep", files["bell"], "--p-grid", "0.5:2:0.5"])[0] == 3
    assert run(capsys, ["sweep", files["bell"], "--p-grid", "1.5:1.0:0.5"])[0] == 3
    assert run(capsys, ["sweep", files["bell"], "--p-grid", "oops"])[0] == 3
    for text in ("1.5:inf:0.5", "nan:2:0.5", "1.5:2:nan", "1.5:2:inf"):
        assert run(capsys, ["sweep", files["bell"], "--p-grid", text])[0] == 3, text


def test_sweep_grid_cap_checked_before_allocation(capsys, files):
    last = 1.5 + (cli.MAX_GRID_POINTS - 1) * 0.5
    assert len(cli._parse_grid(f"1.5:{last}:0.5")) == cli.MAX_GRID_POINTS
    # checked first, so that without a cap the test fails here rather than
    # trying to build the grid below
    with pytest.raises(cli.ParamError):
        cli._parse_grid(f"1.5:{last + 0.5}:0.5")
    # 5e299 points: rejected from the arithmetic alone, before any list exists
    tracemalloc.start()
    try:
        code = run(capsys, ["sweep", files["bell"], "--p-grid", "1.5:2:1e-300"])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert peak < 10_000_000


def test_roof_echoes_the_ensemble_size_it_solves_with(capsys, tmp_path, monkeypatch):
    used = []

    class Spy(roof._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            used.append(self.m)

    monkeypatch.setattr(roof, "_Engine", Spy)
    # states with an eigenvalue at the RANK_RTOL cutoff that eigvalsh and
    # the solver's eigendecomposition count differently
    rng = np.random.default_rng(0)
    edge = [edge_rank_density(rng) for _ in range(50)]
    split = [rho for rho in edge if roof._eigen_factor(rho).shape[1]
             != np.count_nonzero(clip_spectrum(np.linalg.eigvalsh(rho.matrix)))]
    assert len(split) >= 2
    for i, rho in enumerate(split[:2]):
        fileio.save_state(tmp_path / f"edge{i}.json", rho)
        code, out, _ = run(capsys, ["roof", str(tmp_path / f"edge{i}.json"),
                                    "--measure", "entropy", "--restarts", "1"])
        assert code == 0
        det = report_of(out)["deterministic"]
        assert det["config"]["roof"]["ensemble_size"] == used[-1]
        assert len(det["results"]["ensemble"]["weights"]) <= used[-1]


def test_roof_ensemble_size_bound_exit_3(capsys, files):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["roof", files["mixed"], "--measure", "e",
                                      "--m", str(10**12)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    assert out == ""
    assert "Traceback" not in err
    assert peak < 1_000_000


@pytest.mark.parametrize("argv", [
    ["roof", "{mixed}", "--measure", "e", "--restarts", "0"],
    ["roof", "{mixed}", "--measure", "e", "--m", "1"],
    ["sweep", "{mixed}", "--p-grid", "1.5:2:0.5", "--restarts", "0"],
    ["sweep", "{mixed}", "--p-grid", "1.5:2:0.5", "--tol", "0"],
    ["sweep", "{mixed}", "--p-grid", "1.5:2:0.5", "--m", "1"],
    # the measurement's channel output is a rank-2 mixed state
    ["locc", "{meas}", "{bell}", "--measure", "e", "--restarts", "0"],
    ["locc", "{meas}", "{bell}", "--measure", "e", "--tol", "0"],
    ["locc", "{meas}", "{bell}", "--measure", "e", "--m", "1"],
    ["locc", "{meas}", "{bell}", "--measure", "geometric", "--ranks", "1,2"],
    ["locc", "{meas}", "{bell}", "--measure", "e", "--direction", "max"],
    # a pure-state sweep, and an audit whose branches and output are all
    # pure, solve no roof but check the roof flags all the same
    ["sweep", "{bell}", "--p-grid", "1.5:2:0.5", "--restarts", "0"],
    ["sweep", "{bell}", "--p-grid", "1.5:2:0.5", "--tol", "0"],
    ["sweep", "{bell}", "--p-grid", "1.5:2:0.5", "--m", "0"],
    ["locc", "{ident}", "{bell}", "--measure", "e", "--m", "-5"],
    # a tol that is not finite: every restart would stop at once
    ["roof", "{mixed}", "--measure", "e", "--tol", "inf"],
    ["sweep", "{mixed}", "--p-grid", "1.5:2:0.5", "--tol", "inf"],
    ["locc", "{meas}", "{bell}", "--measure", "e", "--tol", "inf"],
])
def test_roof_flag_errors_exit_3(capsys, files, argv):
    code, out, err = run(capsys, [a.format(**files) for a in argv])
    assert code == 3
    assert out == ""
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["roof", "{mixed}", "--measure", "e"],
    ["sweep", "{mixed}", "--p-grid", "1.5:2:0.5"],
    ["locc", "{meas}", "{bell}", "--measure", "e"],
    ["sweep", "{bell}", "--p-grid", "1.5:2:0.5"],
])
@pytest.mark.parametrize("workers", ["0", "-2"])
def test_workers_below_one_exit_3(capsys, files, argv, workers):
    # --workers is no longer a flag: every command rejects it as unknown
    code, out, err = run(capsys, [a.format(**files) for a in argv] + ["--workers", workers])
    assert code == 3
    assert out == ""
    assert "unrecognized arguments: --workers" in err


# --- locc -----------------------------------------------------------------------

def test_locc_identity_zero_slack(capsys, files, tmp_path):
    ident = LoccNode("A", kraus=(np.eye(2),), children=(leaf(),))
    fileio.save_tree(tmp_path / "ident.json", ident, DIMS22)
    code, out, _ = run(capsys, ["locc", str(tmp_path / "ident.json"), files["bell"],
                                "--measure", "e", "--restarts", "4"])
    assert code == 0
    det = report_of(out)["deterministic"]
    assert "direction" not in det["config"]["roof"]
    assert det["config"]["roof"]["max_iters"] == RoofProblem.max_iters
    res = det["results"]
    assert res["validation"] == []
    assert abs(res["end_to_end"]["slack"]) < 1e-9
    for q in res["inequalities"]:
        assert abs(q["slack"]) < 1e-9


def test_locc_bell_measurement(capsys, files):
    code, out, _ = run(capsys, ["locc", files["meas"], files["bell"],
                                "--measure", "e", "--restarts", "4"])
    assert code == 0
    res = report_of(out)["deterministic"]["results"]
    root_rows = [q for q in res["inequalities"] if q["path"] == []]
    assert abs(root_rows[0]["slack"] - 0.7071067811865475) < 1e-9
    branch_probs = [b["probability"] for b in res["branches"] if len(b["path"]) == 1]
    np.testing.assert_allclose(branch_probs, [0.5, 0.5], atol=1e-12)


def test_locc_echoes_the_ensemble_size_flag(capsys, files, monkeypatch):
    # the input is pure (rank 1) while the one roof solve, of the channel
    # output, is at rank 2: the echo is --m, or null when each solve takes
    # the default at its own rank
    used = []

    class Spy(roof._Engine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            used.append(self.m)

    monkeypatch.setattr(roof, "_Engine", Spy)
    for flag, echo, m in (([], None, roof._ensemble_size(2, None)), (["--m", "3"], 3, 3)):
        code, out, _ = run(capsys, ["locc", files["meas"], files["bell"],
                                    "--measure", "e", "--restarts", "1", *flag])
        assert code == 0
        assert report_of(out)["deterministic"]["config"]["roof"]["ensemble_size"] == echo
        assert used[-1] == m


def test_locc_invalid_tree_exit_5(capsys, files):
    code, out, _ = run(capsys, ["locc", files["bad"], files["bell"], "--measure", "e"])
    assert code == 5
    res = report_of(out)["deterministic"]["results"]
    assert res["validation"][0]["code"] == "kraus-completeness"
    assert abs(res["validation"][0]["residual"] - 0.75) < 1e-12
    assert "branches" not in res


def test_locc_kraus_shape_issue_exit_5(capsys, files, tmp_path):
    fileio.save_tree(tmp_path / "shape.json", shape_mismatch_tree(), DIMS22)
    code, out, _ = run(capsys, ["locc", str(tmp_path / "shape.json"), files["bell"],
                                "--measure", "e"])
    assert code == 5
    res = report_of(out)["deterministic"]["results"]
    assert res["validation"] == [{"path": [0], "code": "kraus-shape", "residual": None,
                                  "message": "inconsistent Kraus shapes [(2, 2), (3, 2)]"}]
    assert "branches" not in res


def test_locc_overflowing_kraus_entry_reports_null_residual(capsys, files, tmp_path):
    # 1e200 is finite, so the file loads; its completeness residual is not
    big = np.array([[1e200, 0], [0, 0]], dtype=complex)
    tree = LoccNode("A", kraus=(big, np.array([[0, 0], [0, 1]], dtype=complex)),
                    children=(leaf(), leaf()))
    fileio.save_tree(tmp_path / "big.json", tree, DIMS22)
    code, out, _ = run(capsys, ["locc", str(tmp_path / "big.json"), files["bell"],
                                "--measure", "e"])
    assert code == 5

    def reject(name):
        raise ValueError(f"not JSON: {name}")

    issue = json.loads(out, parse_constant=reject)["deterministic"]["results"]["validation"][0]
    assert issue["code"] == "kraus-completeness"
    assert issue["residual"] is None
    assert "inf" in issue["message"]


def test_locc_deep_tree_file_exit_2(capsys, files, tmp_path):
    # built as text: json.dumps of a 1200-level tree would itself recurse
    depth = 1200
    node = '{"party": "A", "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]], '
    root = (node + '"children": [') * depth + '{"party": "A"}' + "]}" * depth
    path = tmp_path / "deep.json"
    path.write_text('{"dims": [2, 2], "root": ' + root + "}")
    code, _, err = run(capsys, ["locc", str(path), files["bell"], "--measure", "e"])
    assert code == 2
    assert "json-depth" in err


def test_save_tree_too_deep_fails_like_load_tree(tmp_path):
    # run_tree accepts a chain past the recursion limit; writing it must
    # fail with load_tree's documented invariant, not a bare RecursionError
    tree = LoccNode("A")
    for _ in range(sys.getrecursionlimit() + 200):
        tree = LoccNode("A", kraus=(np.eye(2),), children=(tree,))
    path = tmp_path / "deep.json"
    with pytest.raises(InvariantViolation) as err:
        fileio.save_tree(path, tree, DIMS22)
    assert err.value.invariant == "json-depth"
    assert not path.exists()


def test_locc_malformed_operator_deep_in_tree_exit_2(capsys, files, tmp_path):
    rng = np.random.default_rng(8)
    tree = two_round_tree(rng, "A", "B", outcomes=3)
    path = tmp_path / "deep-bad.json"
    fileio.save_tree(path, tree, DIMS22)
    doc = json.loads(path.read_text())
    doc["root"]["children"][0]["children"][2] = {
        "party": "B", "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0], [1.0, 0.0]]]],
        "children": [{"party": "B"}]}
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["locc", str(path), files["bell"], "--measure", "e"])
    assert code == 2
    assert "invariant 'complex-pairs'" in err
    assert "Kraus operator 0 of the node at root.0.2" in err
    assert out == ""


def test_tree_file_roundtrip_is_exact(tmp_path):
    # operators of several shapes (2 -> 3 on Bob's side) and both parties
    rng = np.random.default_rng(9)
    tree = mixed_party_tree(rng)
    fileio.save_tree(tmp_path / "t.json", tree, BipartiteDims(3, 2))
    loaded, dims = fileio.load_tree(tmp_path / "t.json")
    assert dims == BipartiteDims(3, 2)
    want, got = list(iter_nodes(tree)), list(iter_nodes(loaded))
    assert [path for path, _ in got] == [path for path, _ in want]
    for (_, a), (_, b) in zip(want, got):
        assert a.party == b.party and len(a.kraus) == len(b.kraus)
        assert all(np.array_equal(x, y) for x, y in zip(a.kraus, b.kraus))


MEAS_KRAUS = [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
              [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]


@pytest.mark.parametrize("command,doc,invariant", [
    ("locc", {"dims": [2, 2], "root": {"party": "A", "kraus": MEAS_KRAUS, "children": 5}},
     "tree-node"),
    ("locc", {"dims": [2, 2], "root": {"party": "A", "kraus": 7}}, "tree-node"),
    ("locc", {"dims": [2, 2], "root": {"party": ["A"]}}, "party"),
    ("measure", {"kind": "pure", "dims": [2, 2], "data": [["a", "b"]]}, "complex-pairs"),
    ("measure", {"kind": "pure", "dims": [2, 2], "data": [[1.0, 0.0], [0.0]]},
     "complex-pairs"),
    ("roof", {"kind": "density", "dims": [1, 2], "data": [[[1.0, 0.0], [0.0, 0.0]], [[0.0]]]},
     "complex-pairs"),
    ("measure", {"kind": "pure", "dims": [True, 2], "data": [[1.0, 0.0], [0.0, 0.0]]},
     "dims"),
    ("measure", {"kind": "pure", "dims": [2, 2],
                 "data": [["1", "0"], [0, 0], [0, 0], [0, 0]]}, "complex-pairs"),
    ("measure", {"kind": "pure", "dims": [2, 2],
                 "data": [[True, 0], [0, 0], [0, 0], [0, 0]]}, "complex-pairs"),
    ("measure", {"kind": "pure", "dims": [2, 2],
                 "data": [[10**400, 0], [0, 0], [0, 0], [0, 0]]}, "complex-pairs"),
    ("locc", {"dims": [2, 2], "root": {"party": "A", "kraus": [
        [[[math.nan, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]]}}, "finite"),
    ("measure", {"kind": "pure", "dims": [2, 2],
                 "data": [[math.inf, 0], [0, 0], [0, 0], [0, 0]]}, "finite"),
], ids=["children-int", "kraus-int", "party-list", "data-strings", "ragged-vector",
        "ragged-matrix", "dims-bool", "numeric-string", "bool-leaf", "huge-int",
        "kraus-nan", "state-inf"])
def test_malformed_file_exit_2(capsys, files, tmp_path, command, doc, invariant):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(doc))
    if command == "locc":
        argv = ["locc", str(path), files["bell"], "--measure", "e", "--restarts", "1"]
    else:
        argv = [command, str(path), "--measure", "e"]
    code, out, err = run(capsys, argv)
    assert code == 2
    assert f"invariant '{invariant}'" in err
    assert out == ""


def test_python_dash_m_entry(files):
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "entroof", "measure", files["bell"], "--measure", "e"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    det = json.loads(proc.stdout)["deterministic"]
    assert abs(det["results"]["value"] - 0.7071067811865475) < 1e-10

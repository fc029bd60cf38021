"""Tests of the benchmark itself: seeded generator, output checker and
span wrappers.  Run from the checkout root:

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import METHODS, Tracer  # noqa: E402


def _argvs(workload, seed, index=0):
    return [r.argv for r in workloads.pass_requests(workload, seed, index)]


# ---------------------------------------------------------------- generator


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert workloads.tree_files(workload, 7) == workloads.tree_files(workload, 7)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_mix(workload):
    a, b = _argvs(workload, 1), _argvs(workload, 2)
    files_a, files_b = workloads.tree_files(workload, 1), workloads.tree_files(workload, 2)
    assert a != b or files_a != files_b
    kinds = lambda s: sorted((r.kind, r.tree) for r in workloads.pass_requests(workload, s, 0))  # noqa: E731
    assert kinds(1) == kinds(2)


def test_relabelled_trees_are_valid_and_isomorphic():
    for name, (doc, perm) in workloads.tree_files("structure", 3).items():
        n, edges = workloads.TREES[name]
        assert sorted(perm) == list(range(1, n + 1)) and perm[0] == 1
        assert all(e["parent"] < e["child"] for e in doc["edges"])
        mapped = sorted((perm[p - 1], perm[c - 1], w) for p, c, w in edges)
        assert mapped == sorted((e["parent"], e["child"], e["weight"]) for e in doc["edges"])


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(39) == 50.0
    assert run.tail_percentile(40) == 75.0
    assert run.tail_percentile(99) == 75.0
    assert run.tail_percentile(100) == 90.0
    assert run.tail_percentile(1000) == 99.0
    for n in range(20, 3000, 37):
        p = run.tail_percentile(n)
        assert n - int(-(-p * n // 100)) >= 10


def test_hd_percentile_is_a_smoothed_order_statistic():
    assert run.hd_percentile([3.0], 50.0) == pytest.approx(3.0)
    assert run.hd_percentile([5.0] * 40, 90.0) == pytest.approx(5.0)
    values = [float(v) for v in range(1, 102)]
    assert run.hd_percentile(values, 50.0) == pytest.approx(51.0)
    estimates = [run.hd_percentile(values, p) for p in (10.0, 50.0, 75.0, 90.0)]
    assert estimates == sorted(estimates)
    # two cost levels with the percentile at their boundary: the estimate
    # falls between them instead of snapping to either one
    mix = [1.0] * 50 + [2.0] * 50
    assert 1.2 < run.hd_percentile(mix, 50.0) < 1.8


# ------------------------------------------------------------------ checker


def _request(kind, argv, tree="", **meta):
    return workloads.Request(kind, argv, tree, meta)


def test_checker_rejects_nan_and_infinity():
    req = _request("solve-first", ["solve-first", "{tree}", "--verify", "exact"], "A3")
    for bad in ('{"u": NaN, "verified": true}\n', '{"u": Infinity, "verified": true}\n'):
        with pytest.raises(check.Mismatch, match="non-standard"):
            check.observe(req, (1, 2, 3), 0, bad, None)


def test_checker_rejects_a_wrong_count():
    req = _request("ideals", ["ideals", "{tree}", "--direction", "up"], "S4")
    doc = {"direction": "up", "count": 3, "maximal_count": 1, "oracle_checked": False,
           "ideals": [{"roots": [[-1, 0, 0, 0, 0]], "dim": 1, "maximal": True}]}
    with pytest.raises(check.Mismatch, match="count"):
        check.observe(req, (1, 2, 3, 4, 5), 0, json.dumps(doc) + "\n", None)


def test_checker_rejects_a_count_that_differs_from_the_reference():
    reference = check.load_reference(run.REFERENCE)
    req = _request("ideals", ["ideals", "{tree}", "--direction", "up", "--count-only"], "S4")
    assert req.label in reference["exact"]
    doc = {"direction": "up", "count": 31, "maximal_count": 1, "oracle_checked": False}
    seen = check.observe(req, (1, 2, 3, 4, 5), 0, json.dumps(doc) + "\n", None)
    with pytest.raises(check.Mismatch, match="reference"):
        check.compare(seen, reference)


@pytest.mark.parametrize(
    "kind,argv,doc",
    [
        ("info", ["info"], {"n": 3, "dim": 9, "nilpotence": 1, "central_series_dims": [9],
                            "tips": [3], "upsilon": [], "phi": [], "omega": [], "center": []}),
        ("ideals", ["ideals", "--oracle"], {"count": 2, "maximal_count": 1, "oracle_checked": False,
                                            "ideals": [{"roots": [], "dim": 0, "maximal": False},
                                                       {"roots": [[-1, 0, 0]], "dim": 1, "maximal": True}]}),
        ("solve-first", ["solve-first"], {"u": 0.5}),
        ("solve-heat", ["solve-heat"], {"u": 0.5, "modes_used": 8}),
    ],
)
def test_checker_rejects_a_missing_or_false_flag(kind, argv, doc):
    req = _request(kind, argv, "A3", modes=1)
    with pytest.raises(check.Mismatch):
        check.observe(req, (1, 2, 3), 0, json.dumps(doc) + "\n", None)


def test_checker_rejects_nonzero_exit_and_extra_lines():
    req = _request("bch", ["bch", "--k", "1"])
    with pytest.raises(check.Mismatch, match="exit code"):
        check.observe(req, None, 1, "", None)
    with pytest.raises(check.Mismatch, match="one line"):
        check.observe(req, None, 0, '{"k": 1}\n{"k": 1}\n', None)


def test_checker_csv_rows_and_cells():
    req = _request("solve-heat", ["solve-heat"], "A2", modes=1, grid=2, t=0.5, box=[1.0, 2.0])
    good = "t,x1,x2,u\n" + "".join(
        f"0.5,{x1},{x2},0.25\n" for x1 in (-1.0, 1.0) for x2 in (-2.0, 2.0)
    )
    assert check.csv_stats(good, req, 2)["rows"] == 4
    with pytest.raises(check.Mismatch, match="rows"):
        check.csv_stats(good.rsplit("0.5,", 1)[0], req, 2)
    with pytest.raises(check.Mismatch, match="finite"):
        check.csv_stats(good.replace("0.25\n", "nan\n", 1), req, 2)
    stats = check.csv_stats(good.replace("-1.0,", "np.float64(-1.0),"), req, 2)
    assert stats["numpy_repr_cells"] == 2


# ------------------------------------------------------------------- tracing


def _bindings():
    import treelie  # noqa: F401
    import treelie.cli  # noqa: F401

    owners = [m for k, m in sys.modules.items() if k == "treelie" or k.startswith("treelie.")]
    owners += [getattr(sys.modules[f"treelie.{layer}"], cls) for layer, cls, _ in METHODS]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrappers_are_installed_everywhere_and_removed_after():
    before = _bindings()
    import treelie.ideals as ideals
    import treelie.liealg as liealg
    from treelie.polynomials import MultiPoly

    tracer = Tracer()
    tracer.install()
    try:
        assert ideals.enumerate_basis is liealg.enumerate_basis
        assert ideals.enumerate_basis.__wrapped_by_perfbench__ is before[(id(liealg), "enumerate_basis")]
        assert MultiPoly.__rmul__ is MultiPoly.__mul__
        assert hasattr(MultiPoly.__mul__, "__wrapped_by_perfbench__")
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_spans_share_request_id_and_self_time_adds_up(tmp_path):
    import time

    import treelie.cli as cli

    path = tmp_path / "t.json"
    path.write_text(json.dumps(workloads.tree_document(workloads.TREES["A3_12"])))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = 7
        t = time.perf_counter_ns()
        assert cli.run_cli(["info", str(path)]) == 0
        wall = time.perf_counter_ns() - t
    finally:
        tracer.uninstall()
    names = {s[3] for s in tracer.spans}
    assert {"cli.run_cli", "liealg.verify_structure", "trees.load_tree"} <= names
    assert {s[0] for s in tracer.spans} == {7}
    assert {k[0] for k in tracer.kernels} <= {7}
    total_self = sum(ns for _, ns in tracer.totals().values())
    root = next(s for s in tracer.spans if s[3] == "cli.run_cli")
    assert total_self <= root[5] - root[4] <= wall
    assert total_self >= 0.99 * (root[5] - root[4])
    assert tracer.counters["liealg.basis_dim"] == 9
    assert tracer.counters["liealg.bracket_pairs"] == 9 * 8


def test_structure_digests_do_not_depend_on_the_labelling(tmp_path):
    import contextlib
    import io

    import treelie.cli as cli

    reference = check.load_reference(run.REFERENCE)
    for seed in (2, 3):
        files = workloads.tree_files("structure", seed)
        doc, perm = files["T6"]
        path = tmp_path / f"T6_{seed}.json"
        path.write_text(json.dumps(doc))
        for question in (["info"], ["basis"], ["ideals", "--oracle"]):
            req = _request(question[0], [question[0], "{tree}", "--direction", "down"] + question[1:], "T6")
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                rc = cli.run_cli([question[0], str(path), "--direction", "down"] + question[1:])
            seen = check.observe(req, perm, rc, out.getvalue(), None)
            check.compare(seen, reference)
            assert seen["exact"][req.label] == reference["exact"][req.label]

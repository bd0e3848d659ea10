"""Step accounting and reproducibility of the benchmark harness."""
import importlib
import importlib.util
import pathlib
import random

import pytest

from groupdet import (
    OpCounter,
    StructuralError,
    build_group,
    det_h,
    determinant_step_bound,
    identity_matrix,
    in_A,
    naive_is_invertible,
    naive_step_bound,
    recompose,
    run_bench,
    sample_a_member,
)


def _g(spec):
    return build_group(spec)


def test_every_traced_name_resolves():
    """perfbench/layertrace.py, loaded by path, names 36 functions and methods;
    each resolves the way ``Tracer.install`` looks it up: a function by getattr
    on ``groupdet.<module>``, a method in its class's ``__dict__``."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    names = [(module, q) for module, qs in layertrace.WRAPPED.items() for q in qs]
    assert len(names) == 36
    for module, qualname in names:
        mod = importlib.import_module(f"groupdet.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            assert callable(getattr(mod, cls_name).__dict__.get(attr)), (module, qualname)
        else:
            assert callable(getattr(mod, qualname, None)), (module, qualname)


def _pairwise_comparisons(f):
    """Comparisons an injectivity scan of f makes, each image against all before it."""
    v = f.values
    comparisons = 0
    for i in range(1, len(v)):
        for j in range(i):
            comparisons += 1
            if v[j] == v[i]:
                return comparisons
    return comparisons


def test_step_bounds():
    assert naive_step_bound(_g("C3"), _g("C4")) == 66
    assert naive_step_bound(_g("S3"), _g("C4")) == 276
    assert determinant_step_bound(_g("C3"), _g("C4"), "h") == 7
    assert determinant_step_bound(_g("S3"), _g("C4"), "h") == 19
    assert determinant_step_bound(_g("S3"), _g("C4"), "k") == 12
    with pytest.raises(StructuralError):
        determinant_step_bound(_g("C3"), _g("C4"), "auto")


def test_sampling_is_seeded_and_stays_in_A():
    h, k = _g("S3"), _g("C4")
    one = [sample_a_member(h, k, random.Random(7)) for _ in range(20)]
    two = [sample_a_member(h, k, random.Random(7)) for _ in range(20)]
    assert [m.key() for m in one] == [m.key() for m in two]
    assert all(in_A(m) for m in one)
    other = [sample_a_member(h, k, random.Random(8)) for _ in range(20)]
    assert [m.key() for m in one] != [m.key() for m in other]


def test_naive_counter():
    counter = OpCounter()
    assert naive_is_invertible(identity_matrix((_g("C2"), _g("C4"))), counter)
    assert counter.comparisons == 28  # C(8, 2)
    counter = OpCounter()
    assert naive_is_invertible(identity_matrix((_g("C2"), _g("C2"))), counter)
    assert counter.comparisons == 6  # C(4, 2)


def test_run_bench_counts_c3_c4():
    records = run_bench(_g("C3"), _g("C4"), trials=5, seed=0)
    assert len(records) == 10
    naive = [r for r in records if r.method == "naive"]
    det = [r for r in records if r.method == "determinant"]
    assert len(naive) == len(det) == 5
    assert {r.steps_headline for r in naive} == {66}
    assert {r.steps_headline for r in det} == {7}
    for r in det:
        assert r.steps_full == {
            "pivot_inversion": 4,
            "build_cost": 3,
            "injectivity_comparisons": 3,
        }
    for r in records:
        assert r.pair == ("C3", "C4")
        assert r.verdict  # every member of A is invertible here
        assert r.wall_time >= 0.0
        assert r.as_dict()["method"] in ("naive", "determinant")


def test_run_bench_branch_choice_s3_c4():
    records = run_bench(_g("S3"), _g("C4"), trials=4, seed=1, branch="h")
    det = [r for r in records if r.method == "determinant"]
    assert {r.steps_headline for r in det} == {19}
    # |K| pivot-inversion lookups plus C(|H|, 2) injectivity comparisons
    for r in det:
        assert r.steps_full["pivot_inversion"] == 4
        assert r.steps_full["injectivity_comparisons"] == 15
    assert {r.steps_headline for r in records if r.method == "naive"} == {276}
    records = run_bench(_g("S3"), _g("C4"), trials=4, seed=1, branch="k")
    det = [r for r in records if r.method == "determinant"]
    assert {r.steps_headline for r in det} == {12}


def test_run_bench_agrees_on_singular_draws():
    records = run_bench(_g("C2"), _g("C2"), trials=40, seed=0)
    verdicts = {r.verdict for r in records}
    assert verdicts == {True, False}
    rng = random.Random(0)
    h, k = _g("C2"), _g("C2")
    for naive_rec, det_rec in zip(records[::2], records[1::2]):
        assert naive_rec.verdict == det_rec.verdict
        # a singular draw ends the scan at its first repeated image
        m = sample_a_member(h, k, rng)
        naive_steps = _pairwise_comparisons(recompose(m))
        det_steps = _pairwise_comparisons(det_h(m))
        assert naive_rec.steps_full["injectivity_comparisons"] == naive_steps
        assert det_rec.steps_full["injectivity_comparisons"] == det_steps

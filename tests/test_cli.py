"""End-to-end command-line behavior and exit codes."""
import errno
import json
import os
import subprocess
import sys

import pytest

from groupdet import (
    CATALOG,
    EndoMatrix,
    ProductGroup,
    build_group,
    catalog_groups,
    enumerate_homs,
    identity_map,
    identity_matrix,
    matrix_from_dict,
    matrix_multiply,
    matrix_to_dict,
    zero_map,
)
from groupdet.cli import main


def _write_matrix(tmp_path, m, name="matrix.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_dict(m)), encoding="utf-8")
    return str(path)


def _twisted_identity():
    s3, c4 = build_group("S3"), build_group("C4")
    gamma = next(f for f in enumerate_homs(s3, c4) if f.values != (0,) * 6)
    return EndoMatrix((s3, c4), (
        (identity_map(s3), zero_map(c4, s3)),
        (gamma, identity_map(c4)),
    ))


def _swap_s3():
    s3 = build_group("S3")
    return EndoMatrix((s3, s3), (
        (zero_map(s3, s3), identity_map(s3)),
        (identity_map(s3), zero_map(s3, s3)),
    ))


def test_catalog_contents():
    assert len(CATALOG) == 10
    orders = [g.order for g in catalog_groups()]
    assert orders == [2, 3, 4, 5, 6, 8, 12, 6, 8, 8]
    assert [g.order for g in catalog_groups(4)] == [2, 3, 4]


def test_classify_json(capsys):
    assert main(["classify", "S3", "C4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a_equals_aut"] is True
    assert payload["total_length"] == 1
    assert payload["witnesses"] == []


def test_classify_incomplete_exit(capsys):
    assert main(["classify", "C12", "C12", "--json"]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["incomplete"] is True
    assert main(["classify", "C12", "C12", "--max-order", "144"]) == 0


def test_classify_counts_instead_of_listing_product_automorphisms(capsys):
    # |Aut(E2^3 x C2 x C4)| = 10,321,920: listing them ran out of memory.
    assert main(["classify", "E2^3", "C2 x C4", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["a_equals_aut"] is False
    assert payload["a_is_subgroup"] is False
    assert payload["incomplete"] is False


@pytest.mark.parametrize("h, k", [("E2^5", "C2"), ("C2", "E2^5")])
def test_classify_does_not_list_a_large_factor_automorphism_group(capsys, h, k):
    # |Aut(E2^5)| = 9,999,360 is over the listing bound; the identity pivot
    # decides A against Aut without walking it.
    assert main(["classify", h, k, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["incomplete"] is False
    assert payload["a_equals_aut"] is False


def test_classify_prints_text_without_json(capsys):
    assert main(["classify", "S3", "C4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("pair (S3, C4)")
    assert "Aut equals A:            True" in out


def test_automorphism_listing_bound_exit_2(capsys):
    # |Aut(E2^5)| = |GL(5, 2)| = 9,999,360 is over the listing bound.
    assert main(["bench", "E2^5", "C2"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "listing bound" in err


def test_product_over_the_order_bound_exit_2(capsys):
    # S5 x S5 has order 14,400: its table would hold 14,400^2 entries.
    assert main(["bench", "S5", "S5", "--trials", "1"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith("error: ")
    assert "14400" in out.err and "Traceback" not in out.err


def test_parse_errors_exit_1(capsys):
    assert main(["classify", "C0", "C4"]) == 1
    assert main(["classify", "D3", "C4"]) == 1
    assert main(["invert", "C2", "C4", "/no/such/file.json"]) == 1
    assert main(["nonsense"]) == 1
    assert main([]) == 1


def test_flags_a_subcommand_does_not_read_exit_1(tmp_path, capsys):
    path = _write_matrix(tmp_path, _twisted_identity())
    assert main(["classify", "S3", "C4", "--seed", "3"]) == 1
    assert main(["sweep", "3", "--branch", "k"]) == 1
    assert main(["invert", "S3", "C4", path, "--json"]) == 1
    assert main(["invert", "S3", "C4", path, "--max-order", "8"]) == 1
    assert main(["det", "S3", "C4", path, "--seed", "1"]) == 1
    assert main(["bench", "C3", "C4", "--max-order", "8"]) == 1
    assert "unrecognized arguments" in capsys.readouterr().err


def test_malformed_table_file_is_a_one_line_error(tmp_path):
    path = tmp_path / "t.txt"
    path.write_text("-1\n0\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "groupdet.cli", "classify", f"@{path}", "C2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr == f"error: {path}: the order must be positive, got -1\n"


@pytest.mark.parametrize("text, phrase", [
    ("2\n0 1\n1 0\nlabels: a a\n", "label 'a' is repeated"),
    ("2\n0 1\n1 5\n", "row 2 is not a permutation of 0..1: not a Latin square"),
])
def test_faulty_one_of_two_table_files_is_named(tmp_path, text, phrase):
    good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
    good.write_text("2\n0 1\n1 0\nlabels: e a\n", encoding="utf-8")
    bad.write_text(text, encoding="utf-8")
    for args in ([f"@{good}", f"@{bad}"], [f"@{bad}", f"@{good}"]):
        proc = subprocess.run(
            [sys.executable, "-m", "groupdet.cli", "classify", *args],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == f"error: {bad}: {phrase}\n"


def test_malformed_matrix_file_is_a_one_line_error(tmp_path):
    s3 = build_group("S3")
    swap = matrix_to_dict(_swap_s3())  # [[0, 1], [1, 0]] over (S3, S3)

    def with_entry(i, j, values):
        payload = json.loads(json.dumps(swap))
        payload["entries"][i][j]["values"] = values
        return payload

    other = next(x for x in range(s3.order) if x != s3.identity)
    payloads = {
        "factors not specs": {"factors": [5, 6], "entries": [[1, 2], [3, 4]]},
        "wrong length": with_entry(0, 1, [s3.identity] * 5),
        "outside the codomain": with_entry(0, 1, [s3.identity] * 5 + [s3.order]),
        "not a homomorphism": with_entry(0, 1, [other] * 6),
        "row images do not commute": with_entry(0, 0, list(identity_map(s3).values)),
    }
    raw = {label: json.dumps(payload).encode() for label, payload in payloads.items()}
    raw["not UTF-8"] = b"\xff\xfe{}"
    raw["nested too deeply"] = b"[" * 200_000
    for label, data in raw.items():
        path = tmp_path / "matrix.json"
        path.write_bytes(data)
        for cmd in ("det", "invert"):
            proc = subprocess.run(
                [sys.executable, "-m", "groupdet.cli", cmd, "S3", "S3", str(path)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 1, (label, cmd, proc.stderr)
            assert proc.stderr.startswith(f"error: {path}: "), (label, cmd, proc.stderr)
            assert proc.stderr.count("\n") == 1, (label, cmd)
            assert "Traceback" not in proc.stderr, (label, cmd)


@pytest.mark.parametrize("kind, code", [("missing", errno.ENOENT), ("directory", errno.EISDIR)])
def test_unopenable_file_is_a_one_line_error_naming_it(tmp_path, capsys, kind, code):
    path = tmp_path / "no such file" if kind == "missing" else tmp_path
    for args in (
        ["det", "C2", "C2", str(path)],
        ["invert", "C2", "C2", str(path)],
        ["classify", f"@{path}", "C2"],
    ):
        assert main(args) == 1, args
        assert capsys.readouterr().err == f"error: {path}: {os.strerror(code)}\n", args


def test_invert_round_trip(tmp_path, capsys):
    m = _twisted_identity()
    assert main(["invert", "S3", "C4", _write_matrix(tmp_path, m)]) == 0
    inverse = matrix_from_dict(json.loads(capsys.readouterr().out))
    prod = matrix_multiply(m, inverse)
    assert prod.entries == identity_matrix(m.factors).entries


def test_invert_rejects_mismatched_specs(tmp_path, capsys):
    m = _twisted_identity()
    assert main(["invert", "C2", "C4", _write_matrix(tmp_path, m)]) == 1
    assert "matrix file is over" in capsys.readouterr().err


def test_invert_swap_reports_fallback(tmp_path, capsys):
    path = _write_matrix(tmp_path, _swap_s3())
    assert main(["invert", "S3", "S3", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "determinant-undefined"
    assert payload["fallback"] == "naive"


def test_invert_takes_the_live_branch(tmp_path, capsys):
    """[[1, 1], [1, 0]] over C2 x C2: delta is zero but alpha is bijective,
    so invert prints the inverse [[0, 1], [1, 1]]; it reads no --branch."""
    c2 = build_group("C2")
    one, zero = identity_map(c2), zero_map(c2, c2)
    m = EndoMatrix((c2, c2), ((one, one), (one, zero)))
    path = _write_matrix(tmp_path, m)
    assert main(["invert", "C2", "C2", path]) == 0
    inverse = matrix_from_dict(json.loads(capsys.readouterr().out))
    assert inverse.entries == ((zero, one), (one, one))
    assert main(["invert", "C2", "C2", path, "--branch", "h"]) == 1


def test_invert_singular_verdict(tmp_path, capsys):
    c2 = build_group("C2")
    one = identity_map(c2)
    singular = EndoMatrix((c2, c2), ((one, one), (one, one)))
    assert main(["invert", "C2", "C2", _write_matrix(tmp_path, singular)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "not-invertible"


def test_det_text_table(tmp_path, capsys):
    path = _write_matrix(tmp_path, identity_matrix(
        (build_group("S3"), build_group("C4"))))
    assert main(["det", "S3", "C4", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("det_h over S3:")
    assert "  012 -> 012" in out


def test_det_auto_prefers_cheaper_branch(tmp_path, capsys):
    path = _write_matrix(tmp_path, identity_matrix(
        (build_group("S3"), build_group("C4"))))
    assert main(["det", "S3", "C4", path, "--branch", "auto", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["branch"] == "k"  # 6 + C(4,2) beats 4 + C(6,2)


def test_det_swap_reports_fallback(tmp_path, capsys):
    path = _write_matrix(tmp_path, _swap_s3())
    assert main(["det", "S3", "S3", path, "--branch", "auto"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "determinant-undefined"


def test_bench_text(capsys):
    assert main(["bench", "C3", "C4", "--trials", "3"]) == 0
    out = capsys.readouterr().out
    assert "headline steps 7" in out
    assert "66" in out
    assert "invertible 3/3" in out


def test_bench_json(capsys):
    assert main(["bench", "S3", "C4", "--trials", "2", "--json", "--seed", "5"]) == 0
    records = json.loads(capsys.readouterr().out)
    assert len(records) == 4
    det = [r for r in records if r["method"] == "determinant"]
    assert {r["steps_headline"] for r in det} == {19}


@pytest.mark.parametrize("trials", ["0", "-2"])
def test_bench_rejects_nonpositive_trials(trials, capsys):
    assert main(["bench", "C3", "C4", "--trials", trials]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "--trials must be at least 1" in err


@pytest.mark.parametrize(
    "argv, name",
    [
        (["classify", "C2", "C2", "--max-order", "-5"], "--max-order"),
        (["classify", "C2", "C2", "--max-order", "0"], "--max-order"),
        (["sweep", "3", "--max-order", "0"], "--max-order"),
        (["sweep", "-3"], "MAX_FACTOR_ORDER"),
        (["sweep", "0"], "MAX_FACTOR_ORDER"),
    ],
)
def test_bounds_below_one_are_usage_errors(argv, name, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert f"{name} must be at least 1" in captured.err


def test_sweep_small(capsys):
    assert main(["sweep", "4"]) == 0
    out = capsys.readouterr().out
    assert "6 pairs, 0 violations" in out


def test_sweep_vacuous(capsys):
    assert main(["sweep", "1"]) == 0
    assert "0 pairs, 0 violations" in capsys.readouterr().out


def test_sweep_json(capsys):
    assert main(["sweep", "3", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"] == []
    assert len(payload["reports"]) == 3
    specs = {(r["h_spec"], r["k_spec"]) for r in payload["reports"]}
    assert specs == {("C2", "C2"), ("C2", "C3"), ("C3", "C3")}


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "groupdet.cli", "bench", "C2", "C3", "--trials", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "headline steps" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr

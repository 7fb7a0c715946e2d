"""The byte-identity script's report of differing outputs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "identity.py"


@pytest.fixture(scope="module")
def identity():
    spec = importlib.util.spec_from_file_location("identity", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_csv_row_count_difference_reads_as_counts(identity):
    old = {"gd-risk.csv": ("bytes", b"seed,risk\n0,0.5\n")}
    new = {"gd-risk.csv": ("bytes", b"seed,risk\n")}
    assert identity.compare(old, new) == {
        "gd-risk.csv": ["gd-risk.csv: differs at (rows): 2 != 1"]}


def test_a_csv_row_length_difference_reads_as_counts(identity):
    old = {"t.csv": ("bytes", b"a,b\n1,2\n")}
    new = {"t.csv": ("bytes", b"a,b\n1\n")}
    assert identity.compare(old, new) == {
        "t.csv": ["t.csv: differs at row 1 (length): 2 != 1"]}


def test_a_json_length_difference_reads_as_counts(identity):
    old = {"r.json": ("json", {"v": [1.0, 2.0]})}
    new = {"r.json": ("json", {"v": [1.0]})}
    assert identity.compare(old, new) == {
        "r.json": ["r.json: differs at /v (length): 2 != 1"]}


def test_differing_values_still_read_in_ulps(identity):
    x = 0.1
    y = x + 3 * 2.0 ** -56  # three ulps of 0.1 above it
    old = {"r.json": ("json", {"v": x}), "t.csv": ("bytes", f"a\n{x}\n".encode())}
    new = {"r.json": ("json", {"v": y}), "t.csv": ("bytes", f"a\n{y}\n".encode())}
    assert identity.compare(old, new) == {
        "r.json": [f"r.json: differs at /v: {x!r} != {y!r} (+3 ulp)"],
        "t.csv": [f"t.csv: differs at row 1/a: {x!r} != {y!r} (+3 ulp)"]}


def test_a_json_key_in_one_tree_only_reads_as_missing(identity):
    old = {"r.json": ("json", {"v": {"ok": True, "steps": [1.0]}})}
    new = {"r.json": ("json", {"v": {"ok": True}, "file": "r-verify.json"})}
    assert identity.compare(old, new) == {"r.json": [
        "r.json: differs at /file: '<missing>' != 'r-verify.json'",
        "r.json: differs at /v/steps: [1.0] != '<missing>'"]}

"""Tests for the campaign result store: atomicity, recovery, determinism."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, EvaluationError
from repro.eval.store import (
    CampaignStore,
    campaigns_root,
    canonical_json_bytes,
    leading_members,
    list_campaigns,
)


def _nan_to_none(value):
    """Non-finite floats -> ``None``, tuples -> lists: the store's
    canonical form before encoding, written out independently here."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _nan_to_none(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_nan_to_none(item) for item in value]
    return value


def _stdlib_bytes(value) -> bytes:
    """The byte contract: the stdlib's indented, key-sorted encoding."""
    text = json.dumps(_nan_to_none(value), sort_keys=True, indent=2, allow_nan=False)
    return (text + "\n").encode()


#: Any code point: control characters, non-ASCII, lone surrogates.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(
        [-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-7, 1.5e300,
         math.nan, math.inf, -math.inf]
    ),
    st.floats().map(np.float64),  # a float subclass
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    _FLOATS,
    _TEXT,
)
_JSON = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(_TEXT, children, max_size=3),
    ),
    max_leaves=6,
)


class TestCanonicalJson:
    @settings(max_examples=2000, derandomize=True, deadline=None)
    @given(value=_JSON)
    def test_bytes_match_the_stdlib_encoding(self, value):
        assert canonical_json_bytes(value) == _stdlib_bytes(value)

    @pytest.mark.parametrize(
        "value",
        [{1, 2}, b"bytes", np.int64(3), {"nested": [np.bool_(True)]}],
        ids=["set", "bytes", "numpy-int64", "numpy-bool"],
    )
    def test_unencodable_values_raise_type_error(self, value):
        with pytest.raises(TypeError, match="not JSON serializable"):
            canonical_json_bytes(value)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, ("a",)])
    def test_non_str_keys_raise_type_error(self, key):
        with pytest.raises(TypeError, match="keys must be str"):
            canonical_json_bytes({"ok": {key: 1}})

    def test_key_order_is_irrelevant(self):
        a = canonical_json_bytes({"b": 1, "a": [1, 2], "c": {"y": 1, "x": 2}})
        b = canonical_json_bytes({"c": {"x": 2, "y": 1}, "a": [1, 2], "b": 1})
        assert a == b

    def test_trailing_newline(self):
        assert canonical_json_bytes({}).endswith(b"\n")

    def test_nan_and_inf_become_null(self):
        data = json.loads(
            canonical_json_bytes(
                {"nan": float("nan"), "inf": float("inf"), "nested": [float("-inf")]}
            )
        )
        assert data == {"nan": None, "inf": None, "nested": [None]}

    def test_finite_values_kept_and_tuples_written_as_arrays(self):
        assert canonical_json_bytes({"x": 1.5, "y": [0, "s"], "z": (1,)}) == (
            b'{\n  "x": 1.5,\n  "y": [\n    0,\n    "s"\n  ],\n'
            b'  "z": [\n    1\n  ]\n}\n'
        )


#: Objects laid out like a stored cell: ``aggregate`` and ``cell`` first,
#: then (sometimes) the ``runs``.
_CELLS = st.fixed_dictionaries(
    {"aggregate": _JSON, "cell": _JSON}, optional={"runs": _JSON}
)
_MEMBERS = ("aggregate", "cell")


class TestLeadingMembers:
    @settings(max_examples=1000, derandomize=True, deadline=None)
    @given(value=_CELLS)
    def test_members_equal_a_full_parse_and_prefixes_are_malformed(self, value):
        data = canonical_json_bytes(value)
        parsed = json.loads(data)
        assert leading_members(data, _MEMBERS) == (parsed["aggregate"], parsed["cell"])
        for end in range(len(data)):
            assert leading_members(data[:end], _MEMBERS) is None

    def test_members_are_decoded_in_full(self):
        data = canonical_json_bytes(
            {"aggregate": {"runs": 2, "mean_ate_m": 0.1}, "cell": [1, "x\n"],
             "runs": [{"seed": 0}]}
        )
        assert leading_members(data, _MEMBERS) == (
            {"mean_ate_m": 0.1, "runs": 2}, [1, "x\n"]
        )
        assert leading_members(data, ("aggregate",)) == ({"mean_ate_m": 0.1, "runs": 2},)

    @pytest.mark.parametrize(
        "data",
        [
            json.dumps({"aggregate": 1, "cell": 2}).encode() + b"\n",
            json.dumps({"aggregate": 1, "cell": 2}, indent=4).encode() + b"\n",
            json.dumps({"aggregate": 1, "cell": 2}, indent=2).encode(),
            json.dumps({"cell": 2, "aggregate": 1}, indent=2).encode() + b"\n",
            json.dumps({"aggregate": 1, "runs": 3, "cell": 2}, indent=2).encode()
            + b"\n",
            canonical_json_bytes({"aggregate": 1, "b": 0, "cell": 2}),
            canonical_json_bytes({"aggregate": 1}),
            canonical_json_bytes({"a": 0, "aggregate": 1, "cell": 2}),
            canonical_json_bytes({"aggregate": 1, "cell": 2}).replace(b"1", b"#"),
            canonical_json_bytes({"aggregate": 1, "cell": 2}).replace(b": 2", b":  2"),
            canonical_json_bytes({"aggregate": 1, "cell": 2}).replace(b"2\n", b"2]\n"),
            canonical_json_bytes([{"aggregate": 1, "cell": 2}]),
            canonical_json_bytes({"aggregate": "\u00e9", "cell": 2}).replace(
                b"\\u00e9", "\u00e9".encode("latin-1")
            ),
            b"",
        ],
        ids=[
            "compact", "indent-4", "no-newline", "unsorted", "runs-between",
            "member-between", "no-cell", "member-before", "damaged-value",
            "extra-space", "trailing-junk", "array", "not-utf8", "empty",
        ],
    )
    def test_other_layouts_are_malformed(self, data):
        assert leading_members(data, _MEMBERS) is None


class TestCampaignStore:
    def test_rejects_path_like_names(self):
        for bad in ("", "a/b", ".hidden"):
            with pytest.raises(ConfigurationError):
                CampaignStore(bad)

    def test_put_get_roundtrip(self, tmp_path):
        store = CampaignStore("c", root=tmp_path / "c")
        payload = {"cell": {"variant": "fp32"}, "runs": []}
        path = store.put_cell("k1", payload)
        assert path.exists()
        assert store.get_cell("k1") == payload
        assert store.completed_keys() == {"k1"}

    def test_put_is_append_only(self, tmp_path):
        store = CampaignStore("c", root=tmp_path / "c")
        store.put_cell("k1", {"v": 1})
        store.put_cell("k1", {"v": 1})  # identical bytes: no-op
        with pytest.raises(EvaluationError):
            store.put_cell("k1", {"v": 2})  # determinism violation

    def test_atomic_write_leaves_no_tmp(self, tmp_path):
        store = CampaignStore("c", root=tmp_path / "c")
        with store:
            store.write_manifest({"name": "c"})
            store.put_cell("k1", {"v": 1})
        assert list(store.root.rglob("*.tmp")) == []

    def test_partial_files_do_not_count_as_completed(
        self, tmp_path, write_cell_files
    ):
        store = CampaignStore("c", root=tmp_path / "c")
        store.put_cell("good", {"v": 1})  # takes the writer lock
        write_cell_files(store, {"torn": b'{"v": 1'})  # a truncated legacy cell
        store.cells_dir.joinpath("leftover.json.tmp").write_text("{}")
        # The lock holder reads the segments alone; recover() would remove
        # the torn file rather than fold it.
        assert store.completed_keys() == {"good"}
        assert store.get_cell("torn") is None
        assert dict(store.stream_cells()) == {"good": {"v": 1}}

    def test_recover_sweeps_partials_only(self, tmp_path, write_cell_files):
        store = CampaignStore("c", root=tmp_path / "c")
        store.put_cell("good", {"v": 1})
        write_cell_files(store, {"torn": b'{"v": 1'})
        store.cells_dir.joinpath("leftover.json.tmp").write_text("{}")
        store.root.joinpath("manifest.json.abc123.tmp").write_text("{}")
        removed = store.recover()
        assert sorted(removed) == [
            "leftover.json.tmp",
            "manifest.json.abc123.tmp",
            "torn.json",
        ]
        assert store.completed_keys() == {"good"}
        assert store.recover() == []  # healthy store loses nothing

    def test_recover_spares_fresh_tmp_of_live_writers(self, tmp_path):
        # Recovery needs the writer lock, so it refuses to run while a
        # live writer could still publish its scratch files.
        live = CampaignStore("c", root=tmp_path / "c")
        live.put_cell("k1", {"v": 1})
        inflight = live.segments_dir / "seg-000000.seg.idx.json.x1.tmp"
        inflight.write_text("{}")  # the live writer mid-publish
        other = CampaignStore("c", root=tmp_path / "c")
        with pytest.raises(EvaluationError, match="single-writer"):
            other.recover()
        assert inflight.exists()
        live.close()  # the writer is gone: its leftovers are abandoned
        with other:
            assert other.recover() == [inflight.name]
        assert other.get_cell("k1") == {"v": 1}

    def test_manifest_written_once_and_verified(self, tmp_path):
        store = CampaignStore("c", root=tmp_path / "c")
        store.write_manifest({"name": "c", "seeds": [0, 1]})
        store.write_manifest({"seeds": [0, 1], "name": "c"})  # same content ok
        with pytest.raises(EvaluationError):
            store.write_manifest({"name": "c", "seeds": [0, 2]})
        assert store.read_manifest()["seeds"] == [0, 1]
        assert store.read_manifest()["store_version"] == 1

    def test_atomic_create_is_exclusive(self, tmp_path):
        from repro.common.atomics import atomic_create

        target = tmp_path / "m.json"
        assert atomic_create(target, b"one") is True
        assert atomic_create(target, b"two") is False
        assert target.read_bytes() == b"one"  # first creator wins
        assert list(tmp_path.glob("*.tmp")) == []  # scratch cleaned up

    def test_read_manifest_missing_raises(self, tmp_path):
        with pytest.raises(EvaluationError):
            CampaignStore("nope", root=tmp_path / "nope").read_manifest()

    def test_len_counts_valid_cells(self, tmp_path):
        store = CampaignStore("c", root=tmp_path / "c")
        assert len(store.completed_keys()) == 0
        store.put_cell("a", {})
        store.put_cell("b", {})
        assert len(store.completed_keys()) == 2


class TestListCampaigns:
    def test_lists_only_directories_with_manifest(self, tmp_path):
        CampaignStore("one", root=tmp_path / "one").write_manifest({"name": "one"})
        (tmp_path / "junk").mkdir()
        assert list_campaigns(tmp_path) == ["one"]
        assert list_campaigns(tmp_path / "absent") == []

    def test_default_root_under_results_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        assert campaigns_root() == tmp_path / "campaigns"
        store = CampaignStore("env")
        assert store.root == tmp_path / "campaigns" / "env"

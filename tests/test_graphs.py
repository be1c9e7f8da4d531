import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from egoinf.errors import DataError
from egoinf.graphs import (
    MAX_NODES,
    Dataset,
    EgoSample,
    UndirectedGraph,
    load_dataset,
    save_dataset,
    validate_sample,
)


def make_sample(adj, ego=0, state=None, label=0, sid="s0"):
    adj = np.asarray(adj, dtype=np.int8)
    n = adj.shape[0]
    return EgoSample(
        graph=UndirectedGraph(adj),
        ego=ego,
        influence_state=np.zeros(n, dtype=np.int8) if state is None else np.asarray(state),
        label=label,
        sample_id=sid,
    )


def degree_vector(g):
    return g.adjacency.sum(axis=1).astype(np.int64)


TRIANGLE = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
PATH3 = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]


class TestValidate:
    def test_valid_sample_has_no_violations(self):
        assert validate_sample(make_sample(PATH3)) == []

    def test_nonzero_diagonal_reported_with_index(self):
        adj = np.array(PATH3)
        adj[1, 1] = 1
        problems = validate_sample(make_sample(adj))
        assert "nonzero diagonal at 1" in problems

    def test_ego_out_of_range(self):
        problems = validate_sample(make_sample(PATH3, ego=5))
        assert "ego out of range" in problems

    def test_asymmetric_adjacency_reported(self):
        adj = np.zeros((3, 3), dtype=np.int8)
        adj[0, 1] = 1
        problems = validate_sample(make_sample(adj))
        assert any("symmetric" in p for p in problems)

    def test_state_length_mismatch(self):
        problems = validate_sample(make_sample(PATH3, state=[0, 1]))
        assert any("length" in p for p in problems)


class TestDegreeVector:
    def test_edgeless(self):
        g = UndirectedGraph(np.zeros((3, 3), dtype=np.int8))
        np.testing.assert_array_equal(degree_vector(g), [0, 0, 0])

    def test_triangle(self):
        np.testing.assert_array_equal(
            degree_vector(UndirectedGraph(np.array(TRIANGLE))), [2, 2, 2]
        )

    def test_path(self):
        np.testing.assert_array_equal(
            degree_vector(UndirectedGraph(np.array(PATH3))), [1, 2, 1]
        )


class TestSerialization:
    def make_dataset(self):
        samples = [
            make_sample(TRIANGLE, ego=1, state=[1, 0, 1], label=1, sid="a"),
            make_sample(PATH3, ego=2, state=[0, 1, 0], label=0, sid="b"),
        ]
        return Dataset(
            samples=samples,
            splits={"train": [0], "valid": [], "test": [1]},
            metadata={"source": "unit", "seed": 7},
        )

    def test_roundtrip_identity(self, tmp_path):
        d = self.make_dataset()
        path = tmp_path / "data.jsonl"
        save_dataset(d, path)
        loaded = load_dataset(path)
        assert len(loaded.samples) == 2
        for orig, back in zip(d.samples, loaded.samples):
            assert orig.sample_id == back.sample_id
            assert orig.ego == back.ego
            assert orig.label == back.label
            np.testing.assert_array_equal(orig.graph.adjacency, back.graph.adjacency)
            np.testing.assert_array_equal(orig.influence_state, back.influence_state)
        assert loaded.splits == d.splits
        assert loaded.metadata == d.metadata

    def test_save_load_save_is_byte_identical(self, tmp_path):
        d = self.make_dataset()
        p1, p2 = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        save_dataset(d, p1)
        save_dataset(load_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert (
            (tmp_path / "one.jsonl.splits.json").read_text().replace("one", "two")
            == (tmp_path / "two.jsonl.splits.json").read_text().replace("one", "two")
        )

    def test_empty_file_loads_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert load_dataset(path).samples == []

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a","n":2,"edges":[],"ego":0,"state":[0,0],"label":0}\nnot json\n')
        with pytest.raises(DataError, match="line 2"):
            load_dataset(path)

    def test_bad_edge_names_sample(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        # j >= n cannot come from a valid symmetric adjacency
        path.write_text('{"id":"odd","n":2,"edges":[[0,2]],"ego":0,"state":[0,0],"label":0}\n')
        with pytest.raises(DataError, match="odd"):
            load_dataset(path)

    @pytest.mark.parametrize(
        "record, message",
        [
            # an n x n adjacency for this n would need 10**16 bytes
            ('"n":100000000,"edges":[],"ego":0,"state":[0]', "state has 1 entries, n is 100000000"),
            ('"n":0,"edges":[],"ego":0,"state":[]', "n must be at least 1"),
            ('"n":-2,"edges":[],"ego":0,"state":[0,0]', "n must be at least 1"),
        ],
    )
    def test_bad_n_rejected_before_allocating(self, tmp_path, record, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id":"a",%s,"label":0}\n' % record)
        with pytest.raises(DataError, match=message):
            load_dataset(path)

    @pytest.fixture(scope="class")
    def saved_bytes(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("saved") / "data.jsonl"
        save_dataset(self.make_dataset(), path)
        return {
            "data": path.read_bytes(),
            "splits": (path.parent / "data.jsonl.splits.json").read_bytes(),
        }

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        target=st.sampled_from(["data", "splits"]),
        cut=st.one_of(st.none(), st.integers(min_value=0)),
        writes=st.lists(
            st.tuples(
                st.integers(min_value=0),
                # bytes that keep the JSON parsing as often as they break it
                st.one_of(st.integers(0, 255), st.sampled_from(list(b'0123456789-,:[]{}"e. '))),
            ),
            max_size=3,
        ),
    )
    def test_damaged_files_raise_only_data_error(
        self, saved_bytes, tmp_path, target, cut, writes
    ):
        raw = bytearray(saved_bytes[target])
        for pos, byte in writes:
            raw[pos % len(raw)] = byte
        if cut is not None:
            raw = raw[: cut % len(raw)]
        files = {**saved_bytes, target: bytes(raw)}
        path = tmp_path / "data.jsonl"
        path.write_bytes(files["data"])
        (tmp_path / "data.jsonl.splits.json").write_bytes(files["splits"])
        try:
            load_dataset(path)
        except DataError:
            pass

    def test_overlapping_splits_rejected(self, tmp_path):
        d = self.make_dataset()
        d.splits = {"train": [0, 1], "valid": [], "test": [1]}
        with pytest.raises(DataError, match="more than one split"):
            save_dataset(d, tmp_path / "x.jsonl")


def _one_node_record(n):
    return '{"id":"big","n":%d,"edges":[[0,1]],"ego":0,"state":[%s],"label":0}\n' % (
        n, ",".join(["0"] * n)
    )


def test_n_above_the_cap_rejected_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "big.jsonl"
    path.write_text(_one_node_record(MAX_NODES + 1))

    def no_adjacency(*args, **kwargs):
        raise AssertionError("an adjacency was allocated")

    monkeypatch.setattr(UndirectedGraph, "from_edges", no_adjacency)
    with pytest.raises(DataError, match=f"above the limit of {MAX_NODES} nodes"):
        load_dataset(path)


def test_n_at_the_cap_loads(tmp_path):
    path = tmp_path / "cap.jsonl"
    path.write_text(_one_node_record(MAX_NODES))
    (sample,) = load_dataset(path).samples
    assert sample.n == MAX_NODES


class TestNeighbors:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), density=st.floats(0.0, 1.0), key=st.integers(0, 2**32 - 1))
    def test_matches_flatnonzero_of_each_row(self, n, density, key):
        upper = np.triu(np.random.default_rng(key).random((n, n)) < density, k=1)
        g = UndirectedGraph((upper | upper.T).astype(np.int8))
        assert len(g.neighbors) == n
        for v in range(n):
            assert list(g.neighbors[v]) == np.flatnonzero(g.adjacency[v]).tolist()
            assert all(type(u) is int for u in g.neighbors[v])

    def test_built_on_first_read_only(self):
        g = UndirectedGraph(np.array(PATH3))
        assert "neighbors" not in vars(g)
        first = g.neighbors
        assert g.neighbors is first
        assert first == ((1,), (0, 2), (1,))

    def test_generation_builds_it_once_and_egos_hold_none(self, monkeypatch):
        from functools import cached_property

        from egoinf.cascade import CascadeConfig, generate_dataset

        built = []
        build = UndirectedGraph.neighbors.func

        def counted(g):
            built.append(g.n)
            return build(g)

        prop = cached_property(counted)
        prop.__set_name__(UndirectedGraph, "neighbors")
        monkeypatch.setattr(UndirectedGraph, "neighbors", prop)
        ds = generate_dataset(
            CascadeConfig(graph_nodes=90, ws_k=8, seed_set_size=10, samples=24, n_target=10, seed=3)
        )
        assert built == [90]  # the base graph, read by every cascade and walk
        assert not any("neighbors" in vars(s.graph) for s in ds.samples)

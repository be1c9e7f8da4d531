import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from egoinf import cascade
from egoinf.cascade import CascadeConfig, cascade_rounds, generate_dataset
from egoinf.errors import ConfigError, DataError
from egoinf.graphs import UndirectedGraph, save_dataset, validate_sample
from egoinf.rng import stream
from egoinf.sampling import _BLOCK, _PhiloxWords, rwr_sample
from .oracles import oracle_candidate_egos, oracle_cascade_rounds, oracle_rwr_sample


def path_graph(n):
    return UndirectedGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def independent_cascade(g, seeds, p, rng):
    """The final active set of a cascade (seeds included)."""
    return {v for v, r in enumerate(cascade_rounds(g, seeds, p, rng)) if r >= 0}


class TestIndependentCascade:
    def test_p_zero_keeps_only_seeds(self):
        g = path_graph(5)
        active = independent_cascade(g, [2], 0.0, stream(0, "ic"))
        assert active == {2}

    def test_p_one_floods_connected_graph(self):
        g = path_graph(6)
        active = independent_cascade(g, [0], 1.0, stream(1, "ic"))
        assert active == set(range(6))

    def test_far_end_probability_on_path(self):
        # seed -> middle -> end, each hop p=0.5: end active with prob 0.25
        g = path_graph(3)
        trials = 10_000
        hits = sum(
            2 in independent_cascade(g, [0], 0.5, stream(k, "mc")) for k in range(trials)
        )
        stderr = np.sqrt(0.25 * 0.75 / trials)
        assert abs(hits / trials - 0.25) <= 3 * stderr

    def test_rounds_are_bfs_layers_at_p_one(self):
        g = path_graph(4)
        rounds = cascade_rounds(g, [0], 1.0, stream(2, "ic"))
        np.testing.assert_array_equal(rounds, [0, 1, 2, 3])

    def test_inactive_nodes_marked_minus_one(self):
        g = UndirectedGraph.from_edges(4, [(0, 1), (2, 3)])
        rounds = cascade_rounds(g, [0], 1.0, stream(3, "ic"))
        assert rounds[2] == -1 and rounds[3] == -1


class TestGenerateDataset:
    def small_cfg(self, **kw):
        base = dict(graph_nodes=120, ws_k=8, seed_set_size=12, samples=40, n_target=12, seed=5)
        base.update(kw)
        return CascadeConfig(**base)

    def test_p_zero_rejected_as_single_class(self):
        with pytest.raises(DataError, match="degenerate"):
            generate_dataset(self.small_cfg(activation_p=0.0))

    def test_fixed_seed_reproduces_dataset(self):
        a = generate_dataset(self.small_cfg())
        b = generate_dataset(self.small_cfg())
        assert len(a.samples) == len(b.samples)
        for sa, sb in zip(a.samples, b.samples):
            assert sa.label == sb.label and sa.ego == sb.ego
            np.testing.assert_array_equal(sa.graph.adjacency, sb.graph.adjacency)
            np.testing.assert_array_equal(sa.influence_state, sb.influence_state)
        assert a.splits == b.splits

    def test_samples_pass_validation_and_share_n(self):
        ds = generate_dataset(self.small_cfg())
        for s in ds.samples:
            assert validate_sample(s) == []
            assert s.n == 12
            assert s.influence_state[s.ego] == 0  # ego inactive at observation

    def test_both_classes_present_with_reported_balance(self):
        ds = generate_dataset(self.small_cfg())
        pos = ds.metadata["positives"]
        neg = ds.metadata["negatives"]
        assert pos > 0 and neg > 0
        assert pos + neg == len(ds.samples)

    def test_splits_are_stratified_partition(self):
        ds = generate_dataset(self.small_cfg(samples=48))
        all_idx = sorted(i for part in ds.splits.values() for i in part)
        assert all_idx == sorted(set(all_idx))
        assert len(all_idx) == len(ds.samples)
        labels = [s.label for s in ds.samples]
        for part in ("valid", "test"):
            part_labels = [labels[i] for i in ds.splits[part]]
            assert 0 in part_labels and 1 in part_labels


def generator_state(rng):
    """The bit generator's state with its arrays as lists, comparable by ==."""
    def plain(v):
        if isinstance(v, dict):
            return {k: plain(x) for k, x in v.items()}
        return v.tolist() if isinstance(v, np.ndarray) else v

    return plain(rng.bit_generator.state)


@st.composite
def graphs(draw, max_nodes=14):
    """Random graphs with isolated nodes likely: edge density 0 to 0.6."""
    n = draw(st.integers(1, max_nodes))
    density = draw(st.sampled_from([0.0, 0.15, 0.3, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    upper = np.triu(rng.random((n, n)) < density, k=1)
    return UndirectedGraph((upper | upper.T).astype(np.int8))


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.05, 0.95))


# one small configuration per base-graph model, with the SHA-256 of its
# saved dataset and sidecar; the digests also pin the base-graph generators
MODELS = {
    "watts_strogatz": (
        dict(graph_nodes=120, ws_k=8, seed_set_size=12, samples=30, n_target=12, seed=5),
        "f12faacb6931f656eb9b9b5d96c1f4cfd4a343183775e661d1db5dd6db3648a4",
    ),
    "barabasi_albert": (
        dict(graph_model="barabasi_albert", graph_nodes=150, ba_m=2, seed_set_size=12,
             samples=30, n_target=14, restart_p=0.5, activation_p=0.3, seed=8),
        "17bc8ba5c3df914de6545ddb78b8b96b5474ae67cd4b6d22ebd02c0606e8b342",
    ),
}


# full size: the default (C5) dataset, and the settings of the benchmark's
# arm2-warm workload, whose walks move half the time; their walks read
# more words than one block holds
PINNED = {
    **MODELS,
    "c5-default": ({}, "8b8e6625fc8077249f5008881846df8ed6c8ad8dcc91d3ccbb44008bce7a9fac"),
    "arm2-warm": (
        dict(n_target=50, restart_p=0.5, activation_p=0.3, samples=90, seed=41),
        "87dc9bcfc6d256ece83264c4aa10558b8e0cb240c3993b7502aec46aa47290f2",
    ),
}


@pytest.mark.parametrize("model", sorted(PINNED))
def test_generated_bytes_are_pinned(tmp_path, model):
    fields, digest = PINNED[model]
    path = tmp_path / "d.jsonl"
    save_dataset(generate_dataset(CascadeConfig(**fields)), path)
    data = path.read_bytes() + Path(str(path) + ".splits.json").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


class TestDrawsMatchPerEdgeOracle:
    """The per-node draws take the same words from the stream as the
    per-edge and per-step reference loops, and leave the generator where
    those loops leave it: the same stream then picks the ego."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(g=graphs(), data=st.data(), p=probabilities, key=st.integers(0, 2**16))
    def test_cascade_rounds(self, g, data, p, key):
        # duplicate seeds allowed: both collapse them
        seeds = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=g.n + 2))
        rng, ref = stream(key, "ic"), stream(key, "ic")
        got = cascade_rounds(g, seeds, p, rng)
        want = oracle_cascade_rounds(g, seeds, p, ref)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
        assert generator_state(rng) == generator_state(ref)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        g=graphs(),
        data=st.data(),
        restart_p=st.one_of(st.sampled_from([0.0, 0.8]), st.floats(0.0, 0.99)),
        key=st.integers(0, 2**16),
    )
    def test_rwr_sample(self, g, data, restart_p, key):
        ego = data.draw(st.integers(0, g.n - 1))
        # up to n + 2: a target above the ego's component size truncates
        n_target = data.draw(st.integers(1, g.n + 2))
        rng, ref = stream(key, "rwr"), stream(key, "rwr")
        got = rwr_sample(g, ego, n_target, restart_p=restart_p, rng=rng)
        want = oracle_rwr_sample(g, ego, n_target, restart_p=restart_p, rng=ref)
        assert (got.ego, got.node_ids, got.truncated) == (want.ego, want.node_ids, want.truncated)
        np.testing.assert_array_equal(got.graph.adjacency, want.graph.adjacency)
        assert generator_state(rng) == generator_state(ref)

    @pytest.mark.parametrize("p", [0.15, 0.5])
    def test_cascade_rounds_on_a_base_graph(self, p):
        # many frontier nodes per round, so the order they draw in matters
        g = cascade.build_base_graph(CascadeConfig(**MODELS["watts_strogatz"][0]))
        for k in range(20):
            seeds = stream(k, "seeds").choice(g.n, size=12, replace=False)
            rng, ref = stream(k, "ic"), stream(k, "ic")
            np.testing.assert_array_equal(
                cascade_rounds(g, seeds, p, rng), oracle_cascade_rounds(g, seeds, p, ref)
            )
            assert generator_state(rng) == generator_state(ref)

    @pytest.mark.parametrize("block", [1, 7])
    def test_cascade_rounds_topped_up_in_small_blocks(self, monkeypatch, block):
        # a block shorter than most degrees: nearly every frontier node tops up
        monkeypatch.setattr(cascade, "_DRAW_BLOCK", block)
        self.test_cascade_rounds_on_a_base_graph(0.3)

    def test_isolated_ego_restarts_every_step_and_truncates(self):
        g = UndirectedGraph.from_edges(4, [(1, 2), (2, 3)])
        rng, ref = stream(9, "rwr"), stream(9, "rwr")
        got = rwr_sample(g, 0, 3, restart_p=0.0, rng=rng)
        want = oracle_rwr_sample(g, 0, 3, restart_p=0.0, rng=ref)
        assert got.truncated and got.node_ids == want.node_ids == (0,)
        assert generator_state(rng) == generator_state(ref)

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_generated_dataset_matches_oracles(self, monkeypatch, model):
        cfg = CascadeConfig(**MODELS[model][0])
        got = generate_dataset(cfg)
        monkeypatch.setattr(cascade, "cascade_rounds", oracle_cascade_rounds)
        monkeypatch.setattr(cascade, "rwr_sample", oracle_rwr_sample)
        monkeypatch.setattr(cascade, "_candidate_egos", oracle_candidate_egos)
        want = generate_dataset(cfg)
        assert len(got.samples) == len(want.samples) == cfg.samples
        for a, b in zip(got.samples, want.samples):
            assert (a.sample_id, a.ego, a.label) == (b.sample_id, b.ego, b.label)
            np.testing.assert_array_equal(a.graph.adjacency, b.graph.adjacency)
            np.testing.assert_array_equal(a.influence_state, b.influence_state)
            assert a.influence_state.dtype == b.influence_state.dtype
        assert got.splits == want.splits
        assert got.metadata == want.metadata


def edge_set(edges):
    return {frozenset(e) for e in edges}


def watts_strogatz_edges(n, k, beta, seed):
    """The edges of cascade's connected Watts–Strogatz graph, and the
    number of tries it took."""
    rnd = random.Random(seed)
    for tries in range(1, cascade._MAX_TRIES + 1):
        adj = cascade._watts_strogatz(n, k, beta, rnd)
        if cascade._is_connected(adj):
            return edge_set((u, v) for u in range(n) for v in adj[u]), tries
    return None, tries


class TestBaseGraphsMatchNetworkx:
    """The in-repo generators draw as networkx 3.6.1 does and give its
    edge sets; networkx is needed only here."""

    @pytest.mark.parametrize("n,k", [
        (2, 2), (3, 2), (5, 3), (5, 4), (5, 5), (8, 2), (8, 7), (12, 2), (12, 4),
        (12, 5), (20, 2), (20, 3), (30, 3), (40, 6), (300, 10),
    ])
    def test_connected_watts_strogatz(self, n, k):
        nx = pytest.importorskip("networkx")
        retried = 0
        for beta in (0.0, 0.1, 0.5, 1.0):
            for seed in range(8):
                got, tries = watts_strogatz_edges(n, k, beta, seed)
                retried += tries > 1
                graph = nx.connected_watts_strogatz_graph(
                    n, k, beta, tries=cascade._MAX_TRIES, seed=seed)
                assert got == edge_set(graph.edges()), (beta, seed)
        if k < 4 and n >= 12:
            assert retried > 0  # rewired rings fall apart: later tries share the generator

    @pytest.mark.parametrize("n,m", [(2, 1), (3, 2), (10, 1), (10, 3), (50, 2), (150, 2), (60, 59)])
    def test_barabasi_albert(self, n, m):
        nx = pytest.importorskip("networkx")
        for seed in range(8):
            got = edge_set(cascade._barabasi_albert(n, m, random.Random(seed)))
            assert got == edge_set(nx.barabasi_albert_graph(n, m, seed=seed).edges()), seed


def test_library_never_imports_networkx():
    code = (
        "import importlib, pkgutil, sys\n"
        "import egoinf\n"
        "for m in pkgutil.iter_modules(egoinf.__path__):\n"
        "    importlib.import_module('egoinf.' + m.name)\n"
        "from egoinf.cascade import CascadeConfig, generate_dataset\n"
        f"for fields in {[fields for fields, _ in MODELS.values()]!r}:\n"
        "    generate_dataset(CascadeConfig(**fields))\n"
        "assert 'egoinf.cli' in sys.modules\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


# each bound from a fresh stream and from one holding a pending half word;
# 2**31 + 1 and 3 * 2**30 reject about half and a quarter of their draws
BOUNDS = [1, 2, 3, 7, 10, 1000, 2**31 + 1, 3 * 2**30, 2**32 - 1]


class TestPhiloxWords:
    """The walk's word-level reads equal Generator.random and
    Generator.integers call by call, and close() leaves the generator
    where those calls leave it."""

    @pytest.mark.parametrize("pending", [False, True])
    @pytest.mark.parametrize("k", BOUNDS)
    def test_bounded_draws_match_integers(self, k, pending):
        rng, ref = stream(k, "words"), stream(k, "words")
        if pending:  # each keeps its word's high half for the next bounded draw
            rng.integers(7)
            ref.integers(7)
        assert rng.bit_generator.state["has_uint32"] == pending
        words = _PhiloxWords(rng, _BLOCK)
        got = [words.integers(k) for _ in range(300)]
        words.close()
        assert got == [int(ref.integers(k)) for _ in range(300)]
        assert generator_state(rng) == generator_state(ref)

    @pytest.mark.parametrize("k", [3, 7, 2**31 + 1, 2**32 - 1])
    def test_rejection_threshold_is_exact(self, k):
        # Philox hands out its buffered words first, so a state can feed
        # chosen halves: each draw's low half leaves threshold - 1 (rejected),
        # its high half threshold (kept); k is odd, so k has an inverse
        threshold = (2**32 - k) % k
        low, high = ((t * pow(k, -1, 2**32)) % 2**32 for t in (threshold - 1, threshold))
        rng, ref = stream(k, "words"), stream(k, "words")
        for g in (rng, ref):
            state = g.bit_generator.state
            state["buffer"] = np.full(4, low | high << 32, dtype=np.uint64)
            state["buffer_pos"] = 0
            g.bit_generator.state = state
        words = _PhiloxWords(rng, _BLOCK)
        got = [words.integers(k) for _ in range(4)]
        words.close()
        assert got == [int(ref.integers(k)) for _ in range(4)] == [high * k >> 32] * 4
        assert generator_state(rng) == generator_state(ref)

    @pytest.mark.parametrize("block", [1, 2, 3, 64])
    def test_mixed_reads_top_up_their_block(self, block):
        # more reads than the block holds, so each run draws several blocks
        reads = stream(block, "reads").integers(0, 3, size=400).tolist()
        rng, ref = stream(block, "words"), stream(block, "words")
        words = _PhiloxWords(rng, block)
        calls = {
            0: (words.random, ref.random),
            1: (lambda: words.integers(10), lambda: int(ref.integers(10))),
            2: (lambda: words.integers(2**31 + 1), lambda: int(ref.integers(2**31 + 1))),
        }
        for r in reads:
            got, want = calls[r]
            assert got() == want()
        words.close()
        assert generator_state(rng) == generator_state(ref)

    def test_walk_refuses_other_bit_generators(self):
        # MT19937 makes a double from two 32-bit outputs, not one word
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(ConfigError, match="Philox"):
            rwr_sample(path_graph(4), 0, 3, restart_p=0.5, rng=rng)

    @pytest.mark.parametrize("bit_generator", [np.random.PCG64, np.random.MT19937])
    def test_cascade_rounds_on_other_bit_generators(self, bit_generator):
        # random(k) reads as k scalar draws do on any bit generator
        g = cascade.build_base_graph(CascadeConfig(**MODELS["watts_strogatz"][0]))
        for key in range(10):
            seeds = stream(key, "seeds").choice(g.n, size=12, replace=False)
            rng = np.random.Generator(bit_generator(key))
            ref = np.random.Generator(bit_generator(key))
            np.testing.assert_array_equal(
                cascade_rounds(g, seeds, 0.3, rng), oracle_cascade_rounds(g, seeds, 0.3, ref)
            )
            assert generator_state(rng) == generator_state(ref)


class TestConfigValidation:
    """Settings the generator cannot honour fail at construction, before
    any graph is built."""

    @pytest.mark.parametrize("fields,message", [
        (dict(seed_set_size=0), "seed set size"),
        (dict(seed_set_size=301), "seed set size"),
        (dict(samples=0), "samples"),
        (dict(samples=-3), "samples"),
        (dict(n_target=0), "subgraph size"),
        (dict(graph_nodes=40, seed_set_size=10, n_target=41), "subgraph size"),
        (dict(ws_beta=-0.1), "rewiring probability"),
        (dict(ws_beta=2.0), "rewiring probability"),
        (dict(restart_p=1.0), "restart probability"),
        (dict(restart_p=-0.5), "restart probability"),
        (dict(restart_p=float("nan")), "restart probability"),
        (dict(ws_k=1), "ws_k"),
        (dict(ws_k=301), "ws_k"),
        (dict(graph_model="barabasi_albert", ba_m=0), "ba_m"),
        (dict(graph_model="barabasi_albert", ba_m=300), "ba_m"),
        (dict(graph_model="erdos_renyi"), "unknown graph model"),
        (dict(graph_nodes=cascade.MAX_GRAPH_NODES + 1), "graph nodes must be <= 10000"),
    ])
    def test_rejected(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            CascadeConfig(**fields)

    @pytest.mark.parametrize("fields", [
        dict(seed_set_size=300, n_target=300, ws_k=300, ws_beta=1.0, restart_p=0.0),
        dict(ws_k=2, ws_beta=0.0, n_target=1, seed_set_size=1, samples=1),
        # the other model's parameter is not checked
        dict(graph_model="barabasi_albert", ba_m=299, ws_k=0),
        dict(graph_model="watts_strogatz", ba_m=0),
        dict(graph_nodes=cascade.MAX_GRAPH_NODES),
    ])
    def test_bounds_accepted(self, fields):
        CascadeConfig(**fields)

    @pytest.mark.parametrize("fields", [
        dict(graph_nodes=10, seed_set_size=10, n_target=4, ws_k=10, samples=6,
             activation_p=0.5, seed=1),
        dict(graph_model="barabasi_albert", graph_nodes=12, ba_m=11, seed_set_size=1,
             n_target=5, samples=6, activation_p=0.5, seed=1),
        dict(graph_nodes=20, ws_k=2, ws_beta=1.0, seed_set_size=2, n_target=3, samples=6,
             activation_p=0.5, restart_p=0.0, seed=1),
    ], ids=["ws-complete", "ba-largest-m", "ws-ring-rewired"])
    def test_extreme_accepted_settings_build_their_graph(self, fields):
        cfg = CascadeConfig(**fields)
        assert cascade.build_base_graph(cfg).n == cfg.graph_nodes


def test_benchmark_configs_stay_valid(monkeypatch):
    """Every cascade configuration the benchmark's workloads generate from."""
    import importlib.util
    import sys

    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclasses
    spec.loader.exec_module(workloads)
    for sizes in workloads.FULL_SIZES.values():
        CascadeConfig(samples=sizes.egos, activation_p=workloads.ACTIVATION_P, **sizes.cascade)

"""The benchmark's tracer wraps library functions at the module attributes
listed in perfbench/tracing.py. A refactor that renames a traced function,
moves a call site or drops an import would otherwise break only the traced
benchmark run; these tests make it fail here first."""
import importlib
import importlib.util
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import egoinf

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_sites(tracing):
    """(owner, attribute) of every site the tracer patches, resolved as the
    tracer resolves them."""
    return [
        tracing._resolve(name, path)
        for path, modules in [*tracing.SPANS.values(), *tracing.COUNTED.values()]
        for name in modules
    ]


def test_install_wraps_every_site_and_uninstall_restores_it():
    tracing = load_tracing()
    sites = traced_sites(tracing)  # raises if a listed site no longer resolves
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        wrapped = [getattr(owner, attr) for owner, attr in sites]
    finally:
        tracer.uninstall()
    for (owner, attr), before, during in zip(sites, originals, wrapped):
        assert during is not before, f"{owner.__name__}.{attr} was not wrapped"
        assert getattr(owner, attr) is before, f"{owner.__name__}.{attr} was not restored"


def test_no_library_module_holds_a_traced_function_at_an_unlisted_site():
    """A module that holds a traced function by name looks it up there, so
    the tracer must patch it too; the defining module is exempt unless
    listed. The CLI front end is out of scope: the benchmark drives the
    library directly."""
    tracing = load_tracing()
    modules = [
        importlib.import_module(f"egoinf.{info.name}")
        for info in pkgutil.iter_modules(egoinf.__path__)
        if info.name != "cli"
    ]
    for span, (path, listed) in tracing.SPANS.items():
        if "." in path:  # a method: patched once, on its class
            continue
        fn = getattr(importlib.import_module(listed[0]), path)
        holders = {
            m.__name__ for m in modules if any(v is fn for v in vars(m).values())
        }
        unlisted = holders - set(listed) - {fn.__module__}
        assert not unlisted, f"{span}: {sorted(unlisted)} hold {path} but are not traced"


def test_augmentation_counters_match_the_copies():
    """The counters behind augment.candidates_per_sample,
    added_edges_per_copy and added_ratio, read against the copies that
    generate_augmentations returns, called where training calls it."""
    from egoinf import training
    from egoinf.augment import AugmentationConfig, candidate_edges, edge_probabilities
    from egoinf.autoenc import VgaeModel
    from egoinf.graphs import EgoSample, UndirectedGraph

    from .oracles import one_hot_bundle, random_adjacency

    rng = np.random.default_rng(4)
    n = 10
    sample = EgoSample(
        graph=UndirectedGraph(random_adjacency(n, rng, p=0.3)),
        ego=0,
        influence_state=np.zeros(n, dtype=np.int8),
        label=1,
        sample_id="traced",
    )
    vgae = VgaeModel.create(n, 6, 4, rng)
    cfg = AugmentationConfig(threshold=0.5, count=3, seed=9)
    fb = one_hot_bundle(sample.graph.adjacency)
    probs = edge_probabilities(vgae, fb)
    candidates = len(candidate_edges(probs, sample.graph.adjacency, cfg.threshold))
    assert candidates > 0, "the case needs a non-empty candidate set"

    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        copies = training.generate_augmentations(sample, vgae, cfg, fb)
    finally:
        tracer.uninstall()
    gained = sum(
        int(np.triu(c.graph.adjacency != sample.graph.adjacency, 1).sum()) for c in copies
    )
    assert gained > 0
    counts = {name: v for (phase, name), v in tracer.counts.items()}
    assert counts["augment.candidates"] == candidates
    assert counts["augment.copies"] == cfg.count == len(copies)
    assert counts["augment.added_edges"] == gained
    assert counts["augment.candidate_slots"] == cfg.count * candidates


def test_benchmark_selftest_passes():
    # the self-test checks each workload's call counts against its
    # arithmetic, so a change to a gated count fails here, not only in a
    # traced benchmark run
    done = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=TRACING.parents[1],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]

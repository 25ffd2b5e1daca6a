"""Property-based tests for CPMS batching and planning invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config.hyperparams import GriffinHyperParams
from repro.core.classification import MigrationCandidate, PageClass
from repro.core.cpms import FaultBatcher, MigrationPlanner
from repro.sim.engine import Engine

# (fault_id, gap_cycles_before_add)
fault_sequences = st.lists(
    st.tuples(st.integers(min_value=0, max_value=999),
              st.integers(min_value=0, max_value=2000)),
    max_size=60,
)


@given(fault_sequences, st.integers(min_value=1, max_value=12))
@settings(max_examples=60)
def test_batcher_neither_loses_nor_duplicates(sequence, batch_size):
    engine = Engine()
    released = []
    batcher = FaultBatcher(engine, batch_size, 500, released.extend)

    t = 0
    for fault_id, gap in sequence:
        t += gap
        engine.schedule(t - engine.now, batcher.add, fault_id)
    engine.run()
    batcher.drain()

    assert sorted(released) == sorted(f for f, _ in sequence)


@given(fault_sequences, st.integers(min_value=2, max_value=12))
@settings(max_examples=60)
def test_batcher_batches_never_exceed_size(sequence, batch_size):
    engine = Engine()
    batches = []
    batcher = FaultBatcher(engine, batch_size, 500, batches.append)
    t = 0
    for fault_id, gap in sequence:
        t += gap
        engine.schedule(t - engine.now, batcher.add, fault_id)
    engine.run()
    batcher.drain()
    assert all(1 <= len(b) <= batch_size for b in batches)


candidates_strategy = st.lists(
    st.builds(
        MigrationCandidate,
        page=st.integers(min_value=0, max_value=500),
        src=st.integers(min_value=0, max_value=3),
        dst=st.integers(min_value=0, max_value=3),
        page_class=st.sampled_from(list(PageClass)),
        benefit=st.floats(min_value=0.01, max_value=100, allow_nan=False),
    ),
    max_size=60,
)


def _make_planner(max_pages, max_sources, min_pages):
    hyper = GriffinHyperParams.calibrated().with_overrides(
        max_pages_per_round=max_pages,
        max_source_gpus_per_round=max_sources,
        min_pages_per_source=min_pages,
    )
    return MigrationPlanner(hyper)


@given(candidates_strategy,
       st.integers(min_value=1, max_value=20),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=1, max_value=5))
@settings(max_examples=60)
def test_plan_is_subset_respecting_caps(cands, max_pages, max_sources, min_pages):
    planner = _make_planner(max_pages, max_sources, min_pages)
    plan = planner.plan(cands)

    chosen = [c for group in plan.values() for c in group]
    # Subset of the candidates, no duplicates.
    assert all(c in cands for c in chosen)
    assert len({id(c) for c in chosen}) == len(chosen)
    # Caps respected.
    assert len(chosen) <= max_pages
    assert len(plan) <= max_sources
    # Grouping key is correct.
    for src, group in plan.items():
        assert all(c.src == src for c in group)


@given(candidates_strategy)
@settings(max_examples=60)
def test_plan_prefers_higher_benefit_when_oversubscribed(cands):
    # With every source admitted and a one-page budget, the single chosen
    # candidate must carry the globally highest benefit.
    planner = _make_planner(max_pages=1, max_sources=4, min_pages=1)
    plan = planner.plan(cands)
    if not plan:
        return
    (chosen,) = [c for group in plan.values() for c in group]
    assert chosen.benefit == max(c.benefit for c in cands)

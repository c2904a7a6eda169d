"""Tests of the benchmark harness itself: inputs, answer checks, statistics
and the layer tracer.  Run with the repository's pytest command."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import spans  # noqa: E402
import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from torsionlab.exact import AbelianGroupStructure as G  # noqa: E402


def test_benchmark_json_names_match_the_harness():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == list(spans.LAYER_METRICS)
    assert [m["name"] for m in bench["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_ms", "peak_rss_mb"]


@pytest.mark.parametrize("name", ["homology-large", "nerve-cover", "verify-batches"])
def test_inputs_are_deterministic_per_seed(name):
    build = workloads.WORKLOADS[name].build
    first = [op.input for op in build(3, 2).ops]
    again = [op.input for op in build(3, 2).ops]
    other = [op.input for op in build(4, 2).ops]
    assert first == again
    assert first != other


def test_nerve_copies_keep_the_exact_edge_count():
    kind, centres, radius = workloads.cover_family()[0]
    base = [(c, radius) for c in centres]
    moved = workloads.moved_copy(kind, centres, radius, workloads.random.Random(5))
    assert len(workloads.euclidean_edges(moved)) == len(workloads.euclidean_edges(base))


def test_relabelled_family_member_keeps_its_homology():
    homology = workloads.tl("homology")
    complexes, _ = workloads.dv_family()
    member = complexes[0]
    perm = list(reversed(range(member.vertex_count)))
    copy = workloads.relabel(member, perm)
    assert copy != member
    assert homology.all_homology(copy) == homology.all_homology(member)


def test_nerve_check_rejects_a_flipped_tuple_test(monkeypatch):
    nerve = workloads.tl("nerve")
    op = workloads.build_nerve_cover(0, 1).ops[0]
    op.check(op.call())
    decide = nerve.common_point_exists
    monkeypatch.setattr(nerve, "common_point_exists", lambda *args: not decide(*args))
    with pytest.raises(workloads.WrongAnswer, match="f-vector"):
        op.check(op.call())


def test_verify_mix_follows_the_cli_defaults():
    counts = {}
    for op in workloads.build_verify_batches(0, 2 * workloads.OBTUSE_EVERY).ops:
        counts[op.kind] = counts.get(op.kind, 0) + 1
    rounds = 2 * workloads.OBTUSE_EVERY
    assert counts == {"soule": rounds, "dv-p1": rounds, "dv-p2": rounds, "orbit": rounds,
                      "filling": rounds, "obtuse": 2}


def test_exact_edges_count_tangent_balls():
    balls = [((0.0, 0.0, 0.0), 0.5), ((1.0, 0.0, 0.0), 0.5), ((2.5, 0.0, 0.0), 0.5)]
    assert workloads.euclidean_edges(balls) == {(0, 1)}


def test_known_answer_check_rejects_a_wrong_group():
    klein = [G(1), G(1, (2,)), G(0)]
    workloads.check_groups(klein, workloads.KLEIN, "klein")
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_groups(klein, workloads.TORUS, "klein as torus")
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_groups([G(1), G(1, (3,)), G(0)], workloads.KLEIN, "wrong torsion")
    with pytest.raises(workloads.WrongAnswer):
        workloads.check_euler(klein, 2, "wrong Euler characteristic")


def test_grid_surfaces_have_the_stated_f_vectors():
    assert workloads.grid_surface(8, False).f_vector() == (64, 192, 128)
    assert workloads.grid_surface(12, True).f_vector() == (144, 432, 288)


@pytest.mark.parametrize("n, p", [(1, 50), (10, 50), (20, 50), (21, 50), (40, 50), (41, 75),
                                  (100, 75), (101, 90), (200, 90), (201, 95), (1000, 95),
                                  (1001, 99), (10000, 99), (10001, 99.9)])
def test_tail_percentile_rule(n, p):
    assert stats.tail_percentile(n) == p


@pytest.mark.parametrize("n", [21, 41, 101, 1001, 10001])
def test_tail_leaves_at_least_ten_samples_beyond(n):
    values = list(range(n))
    _, value = stats.tail(values)
    assert sum(1 for v in values if v > value) >= stats.TAIL_BEYOND
    assert value >= stats.median(values)


def test_tail_of_few_samples_is_not_below_the_median():
    assert stats.tail([1.0, 2.0, 3.0, 10.0]) == (50.0, 3.0)


def test_kind_median_weighs_each_kind_once():
    assert stats.kind_median([1.0, 1.0, 1.0, 100.0], ["a", "a", "a", "b"]) == pytest.approx(10.0)
    assert stats.kind_median([2.0, 4.0, 9.0], ["a", "a", "a"]) == 4.0


def test_speed_sampler_scales_to_the_reference():
    sampler = speed.Sampler()
    sampler.samples = [speed.REFERENCE_NS, 2 * speed.REFERENCE_NS, 4 * speed.REFERENCE_NS]
    assert sampler.scale(1) == pytest.approx(1 / 3)
    assert sampler.scale(3) > 0  # no sample since the mark: the kernel runs once
    with speed.Sampler() as live:
        values = [speed.kernel() for _ in range(200)]
    assert len(set(values)) == 1
    assert live.samples and live.scale(0) > 0


def test_tracer_self_times_counts_and_restore():
    from torsionlab import complexes
    from torsionlab.homology import all_homology

    homology_module = workloads.tl("homology")

    original = homology_module.smith_normal_form
    tracer = spans.Tracer()
    tracer.install()
    try:
        # bound by name in another module, and a method
        assert workloads.tl("dehn").figure_eight_volume.__wrapped__
        assert workloads.tl("hyperbolic").LorentzIsometry.power.__wrapped__
        all_homology(complexes.torus_7())
        all_homology(complexes.torus_7())
    finally:
        tracer.uninstall()
    assert homology_module.smith_normal_form is original

    records = tracer.records("test")
    by_id = {r["id"]: r for r in records}
    for r in records:
        assert 0 <= r["self_ns"] <= r["end_ns"] - r["start_ns"]
        if r["name"] == "exact.snf":
            assert by_id[r["parent"]]["name"] == "homology.homology"
    metrics = spans.span_metrics(records)
    assert metrics["homology.calls"] == 6
    assert metrics["exact.snf_calls"] == 12
    assert metrics["simplicial.boundary_matrix_calls"] == 12
    assert metrics["exact.snf_cells"] % 2 == 0

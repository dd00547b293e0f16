from toric_virasoro import golden
from toric_virasoro.enumeration import fixed_locus_cached
from toric_virasoro.localization import make_case

import workloads


def _small_case():
    gold = golden.load_case("f0-FZ-c2-2-H2F5Z")
    sheaves = fixed_locus_cached(gold.surface, gold.rank, gold.delta, gold.c2, gold.H)
    return make_case(gold.surface, gold.rank, gold.delta, gold.c2, gold.H, sheaves=sheaves)


def test_gate_passes_a_correct_case():
    case = _small_case()
    out = workloads.Outcomes()
    workloads.sweep_checks(case, workloads.sweep_keys(case)[:40], out)
    assert out.attempted > 0 and out.failed == 0
    assert len(out.latencies) == out.attempted


def test_gate_records_a_broken_case_as_failures_not_a_crash():
    broken = _small_case().drop_point(0)
    keys = workloads.sweep_keys(broken)[:40]
    out = workloads.Outcomes()
    workloads.sweep_checks(broken, keys, out)
    assert out.attempted == len(keys)
    assert out.failed > 0
    assert out.failures
    # failed requests are never timed as successes
    assert len(out.latencies) == out.attempted - out.failed


def test_outcomes_count_every_failed_output_and_keep_ten_messages():
    out = workloads.Outcomes()
    for i in range(4):
        out.request(f"r{i}", lambda: None, lambda _r: ["bad a", "bad b", "bad c"], outputs=3)
    out.request("boom", lambda: 1 / 0, lambda _r: [], outputs=2)
    out.request("fine", lambda: 1, lambda _r: [])
    assert (out.attempted, out.failed) == (15, 14)
    assert len(out.failures) == 10
    assert len(out.latencies) == 1

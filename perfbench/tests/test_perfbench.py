"""The benchmark's own tests, at tiny scale where the checks allow.

    python3 -m pytest perfbench/tests -q
"""

import pytest

from perfbench import driver, workloads
from perfbench.tracer import CALIBRATION_POINTS, SIMULATION_POINTS, Tracer
from perfbench.workloads import Op, Phase

#: Data scales for the tests.  The paper's orderings (Fig. 9 CDF,
#: Fig. 10 relative performance) need the workloads' own scales — at
#: 1/512 they flip on some seeds — so those two run one real round
#: (about 15 s together); the service sweep's checks hold at any scale.
SCALES = {"swim_trace": None, "hive_sort": None, "service_sweep": 1.0 / 2048.0}
TINY = 1.0 / 2048.0


@pytest.fixture
def tiny_sweep():
    return workloads.build("service_sweep", 3, scale=TINY)


def test_rounds_draw_fresh_inputs_from_the_seed():
    first = workloads.build("hive_sort", 5, 0, scale=TINY)
    again = workloads.build("hive_sort", 5, 0, scale=TINY)
    other = workloads.build("hive_sort", 5, 1, scale=TINY)
    assert first.hashes == again.hashes
    assert set(first.hashes).isdisjoint(other.hashes)


def _figure_scenarios(monkeypatch, figure, config) -> list[str]:
    """Content hashes of the scenarios ``figure(config)`` hands to the
    execution core (stopped there, before anything runs)."""
    from repro.experiments import figures

    class Captured(Exception):
        pass

    seen = []

    def capture(scenarios):
        seen.extend(scenarios)
        raise Captured

    monkeypatch.setattr(figures, "_run_all", capture)
    with pytest.raises(Captured):
        figure(config)
    return [s.content_hash() for s in seen]


def test_scenarios_are_the_figures_scenarios(monkeypatch):
    """swim_trace and hive_sort submit exactly what Fig. 9 and Fig. 10
    run: the same cases, in the same order, by content hash."""
    from repro.config import default_cluster
    from repro.experiments import figures

    config = default_cluster(scale=TINY, seed=11)
    assert ([s.content_hash() for s in workloads.swim_scenarios(11, TINY)]
            == _figure_scenarios(monkeypatch, figures.fig9_facebook, config))
    assert ([s.content_hash() for s in workloads.hive_scenarios(11, TINY)]
            == _figure_scenarios(monkeypatch, figures.fig10_multiframework,
                                 config))


@pytest.mark.parametrize("name", sorted(SCALES))
def test_every_check_passes(name, tmp_path):
    wl = workloads.build(name, 3, scale=SCALES[name])
    rnd = driver.run_round(wl, tmp_path / "round")
    assert workloads.check_rounds([(wl, rnd)], []) == []
    failed = [r for r in rnd.ops if r.failed]
    if name != "service_sweep":
        assert failed == []
        return
    # Only recalls fail, each naming the fault: ids the second scheduler
    # reissued answer another scenario (F2), the rest are unknown (F1).
    assert failed and all(r.op.kind == "recall" for r in failed)
    recalls = [r for r in rnd.ops if r.op.kind == "recall"]
    assert len(failed) == len(recalls)
    f2 = sum(r.reason.startswith("F2") for r in failed)
    assert f2 == workloads.RESTART_N
    assert all(r.reason.startswith(("F1", "F2")) for r in failed)


def test_tracer_is_removed_and_keeps_metrics_hash(tiny_sweep, tmp_path):
    plain = driver.run_round(tiny_sweep, tmp_path / "plain")
    tracer = Tracer().install_calibration().install()
    patched = list(tracer._patched)
    assert len(patched) > len(SIMULATION_POINTS) + len(CALIBRATION_POINTS)
    try:
        traced = driver.run_round(tiny_sweep, tmp_path / "traced")
    finally:
        tracer.remove()

    assert not tracer.installed
    for owner, name, original in patched:
        assert owner.__dict__[name] is original, (owner, name)
    assert workloads.round_hashes(traced) == workloads.round_hashes(plain)
    snap = tracer.snapshot()
    for key in ("simcore.push", "simcore.run", "yarnsim.request",
                "core.submit", "dataplane.submit", "storage.submit",
                "net.transfer", "scenario.run", "execution.store_get",
                "execution.store_put", "service.journal", "service.batch"):
        assert snap.count[key] > 0, key
    assert 0 < snap.self["simcore.run"] < snap.total["simcore.run"]


def test_manifest_under_the_wrong_id_is_a_failure(tiny_sweep, tmp_path):
    """Plant scenario 1's manifest in the store under scenario 0's
    content hash: the answer to scenario 0 must count as failed, and
    make the run incorrect."""
    from repro.execution import ResultStore
    from repro.scenario.runner import run_scenario

    store = ResultStore(tmp_path / "results")
    wrong = store.put(run_scenario(tiny_sweep.scenarios[1]))
    wrong.rename(store.path_for(tiny_sweep.hashes[0]))

    service = driver.start_service(tmp_path)
    try:
        phase = Phase("probe", [[Op("submit", 0)]], executes=False)
        [res], wall, scaled = driver._run_phase(
            service.address, tiny_sweep, phase, phase.clients,
            driver._Clock())
    finally:
        service.stop()
    assert res.failed
    assert res.reason.startswith("wrong manifest")
    assert tiny_sweep.hashes[1] in res.reason

    problems = workloads.check_rounds(
        [(tiny_sweep, driver.RoundResult(wall, scaled, [res]))], [])
    assert any(p.startswith("untraced round 0: probe op on scenario 0 "
                            "failed: wrong manifest") for p in problems)

"""Shared address spaces: a serial campaign demand-pages each workload once.

Demand paging depends only on the workload, the mode (virtualized or
native), the THP policy, the seed and the host memory size — never on
the scheme.  So the first fault-free run of each (workload,
``virtualized``) publishes the host it built, and every later run of
that key adopts it instead of re-touching every page.  These tests hold
the adopting runs to the fresh-host results: every scalar, every
``StatRegistry`` counter, every histogram and every report byte.
"""

import dataclasses
import io

import pytest

from repro.common.errors import FaultInjected, TraceFormatError
from repro.core.system import Machine
from repro.experiments import campaign, runner
from repro.experiments.runner import ExperimentParams, simulate_run
from repro.faults import FaultPlan
from repro.workloads.cache import params_workload_key

PARAMS = ExperimentParams(num_cores=2, refs_per_core=300, scale=0.02,
                          seed=9, max_retries=1, retry_backoff_s=0.0)
BENCHMARKS = ("mcf", "gups")


def fingerprint(run):
    """Scalars, counters and histograms of one run, for exact comparison."""
    result = run.result
    return {
        "scalars": (result.scheme, result.references, result.instructions,
                    result.l2_tlb_misses, result.penalty_cycles,
                    result.translation_cycles, result.data_cycles,
                    result.page_walks),
        "stats": result.stats.as_nested_dict(),
        "histograms": {name: histogram.as_dict() for name, histogram
                       in sorted((result.histograms or {}).items())},
        "performance": dataclasses.astuple(run.performance),
    }


@pytest.fixture
def machines(monkeypatch):
    """Every Machine ``simulate_run`` builds, in construction order."""
    built = []

    class RecordingMachine(Machine):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner, "Machine", RecordingMachine)
    return built


def test_every_campaign_run_matches_a_fresh_host(machines):
    workloads = campaign._CompiledWorkloads("", parallel=False)
    try:
        requests = workloads.compile(
            campaign.campaign_requests(PARAMS, BENCHMARKS))
        extra = [dataclasses.replace(request, scheme="pom_skewed")
                 for request in requests[-1:]]
        shared = [simulate_run(request.benchmark, request.scheme,
                               request.params,
                               workload=workloads.workload(request))
                  for request in requests + extra]
        adopted = [machine.host_adopted for machine in machines]
        del machines[:]
        fresh = [simulate_run(request.benchmark, request.scheme,
                              request.params)
                 for request in requests + extra]
    finally:
        workloads.release()
    assert not any(machine.host_adopted for machine in machines)
    # Exactly the first run of each (workload, virtualized) built a host.
    keys = {(params_workload_key(request.benchmark, request.params),
             request.params.virtualized) for request in requests}
    assert adopted.count(False) == len(keys)
    assert adopted.count(True) == len(requests + extra) - len(keys)
    for request, got, want in zip(requests + extra, shared, fresh):
        assert fingerprint(got) == fingerprint(want), request.label


def test_serial_runs_go_workload_major_and_keep_one_workloads_hosts():
    requests = campaign.campaign_requests(PARAMS, BENCHMARKS)
    workloads = campaign._CompiledWorkloads("", parallel=False)
    try:
        ordered = workloads.compile(requests)
        keys = [params_workload_key(request.benchmark, request.params)
                for request in ordered]
        assert sorted(ordered, key=id) == sorted(requests, key=id)
        # Each workload's runs are contiguous, in first-use order.
        firsts = list(dict.fromkeys(keys))
        assert keys == sorted(keys, key=firsts.index)
        assert firsts == list(dict.fromkeys(
            params_workload_key(request.benchmark, request.params)
            for request in requests))
        spaces = workloads.workload(ordered[0]).address_spaces
        spaces[True] = "host"
        assert workloads.workload(ordered[1]).address_spaces is spaces
        later = workloads.workload(ordered[keys.index(firsts[1])])
        assert later.address_spaces == {}
        assert list(workloads.address_spaces) == [firsts[1]]
    finally:
        workloads.release()
    assert workloads.address_spaces == {}


def campaign_text(params=PARAMS, **kwargs):
    out = io.StringIO()
    result = campaign.run_all(params, BENCHMARKS, out=out,
                              include_sensitivity=False,
                              progress=io.StringIO(), **kwargs)
    assert not result.failures
    return out.getvalue()


def test_report_bytes_match_across_sharing_and_workers(machines):
    shared = campaign_text()
    assert any(machine.host_adopted for machine in machines)
    assert campaign_text(share_workloads=False) == shared
    assert campaign_text(dataclasses.replace(PARAMS, workers=2)) == shared


def test_verified_campaign_on_shared_hosts_is_clean(machines):
    """A violation raises and fails its run; campaign_text asserts none
    did, so every armed checker passed on the adopted hosts too."""
    verified = dataclasses.replace(PARAMS, verify=True)
    assert campaign_text(verified) == campaign_text()
    armed = [machine for machine in machines if machine.verifier.active]
    assert any(machine.host_adopted for machine in armed)


def test_faulted_runs_neither_adopt_nor_publish(machines):
    requests = campaign.campaign_requests(PARAMS, ["gups"],
                                          include_sensitivity=False)
    pom, tsb = requests[0], requests[2]
    assert (pom.scheme, tsb.scheme) == ("pom", "tsb")
    workloads = campaign._CompiledWorkloads("", parallel=False)
    try:
        workloads.compile(requests)

        def attempt(request, fault=None):
            return simulate_run(request.benchmark, request.scheme,
                                request.params, fault=fault,
                                workload=workloads.workload(request))

        spaces = workloads.workload(pom).address_spaces
        with pytest.raises(FaultInjected):
            attempt(pom, ("raise", 50))
        with pytest.raises(TraceFormatError):
            attempt(pom, ("corrupt-trace", 1))
        assert spaces == {}
        attempt(pom)
        publisher = machines[-1]
        host = spaces[True]
        assert host is publisher.host and not publisher.host_adopted
        with pytest.raises(FaultInjected):
            attempt(pom, ("raise", 50))
        # A fault that never fires still keeps the run off shared hosts.
        attempt(pom, ("raise", 10 ** 9))
        assert not any(machine.host_adopted for machine in machines)
        assert [machine for machine in machines
                if machine.host is host] == [publisher]
        assert spaces == {True: host}
        adopted = attempt(tsb)
        assert machines[-1].host_adopted and machines[-1].host is host
    finally:
        workloads.release()
    fresh = simulate_run(tsb.benchmark, tsb.scheme, tsb.params)
    assert fingerprint(adopted) == fingerprint(fresh)


def test_faulted_campaign_matches_fresh_hosts(machines):
    """Faulted attempts sit between sharing runs of one campaign; the
    report still matches a campaign in which every run pages afresh."""
    spec = "raise@gups/pom:n=50,corrupt-trace@gups/shared_l2"
    shared = io.StringIO()
    result = campaign.run_all(PARAMS, ["gups"], out=shared,
                              include_sensitivity=False,
                              progress=io.StringIO(),
                              faults=FaultPlan.parse(spec))
    # corrupt-trace is permanent; the raise is retried and succeeds.
    assert [failure.scheme for failure in result.failures] == ["shared_l2"]
    assert not machines[0].host_adopted  # the raise attempt
    assert any(machine.host_adopted for machine in machines)
    fresh = io.StringIO()
    campaign.run_all(PARAMS, ["gups"], out=fresh, include_sensitivity=False,
                     progress=io.StringIO(), faults=FaultPlan.parse(spec),
                     share_workloads=False)
    assert shared.getvalue() == fresh.getvalue()

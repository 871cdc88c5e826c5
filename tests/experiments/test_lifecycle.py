"""Lifecycle studies: churn acceptance, shootdown sweep, CLI."""

import pytest

from repro.cli import main
from repro.experiments.lifecycle import (ALL_SCHEMES, churn_study,
                                         migration_study, shootdown_sweep)
from repro.experiments.runner import ExperimentParams

FAST = ExperimentParams(num_cores=2, refs_per_core=300, scale=0.05,
                        seed=7, verify=True)


class TestChurnStudy:
    def test_churn_20_plus_teardowns_verified_and_bounded(self):
        """The PR's acceptance scenario: a 20+ boot/teardown churn runs
        to completion with the verifier armed (inclusion, stale-line,
        memory-conservation all checking every teardown) and the
        allocator returns to zero — reclamation, not leak-forever."""
        report = churn_study(FAST, benchmarks=("gups", "mcf"),
                             generations=11,  # 22 boots/teardowns
                             schemes=("baseline", "pom"))
        data = {row[0]: row for row in report.rows}
        for scheme in ("baseline", "pom"):
            final_bytes, peak_bytes = data[scheme][4], data[scheme][5]
            assert final_bytes == 0, "teardown leaked frames"
            assert peak_bytes > 0
        assert not any("leak" in note for note in report.notes)
        assert "22 boots, 22 teardowns" in report.notes[-1]

    def test_post_teardown_bytes_non_growing(self):
        """Single-slot churn: after every teardown the allocator is
        empty, so the post-teardown series is exactly non-growing."""
        from repro.common.config import SystemConfig
        from repro.core.system import Machine
        from repro.verify import Verifier
        from repro.workloads.lifecycle import build_churn

        wl = build_churn(["gups"], generations=20, refs_per_core=150,
                         seed=7, scale=0.05)
        samples = []

        class Sampler:
            def __init__(self, event):
                self.position = event.position
                self.event = event

            def apply(self, machine):
                self.event.apply(machine)
                samples.append(machine.host.memory.bytes_allocated)

        machine = Machine(SystemConfig(num_cores=1), scheme="pom",
                          thp_fractions=wl.thp_fractions, seed=7,
                          verify=Verifier())
        machine.run(wl.streams, events=[Sampler(e) for e in wl.events])
        assert len(samples) == 20
        assert samples == [0] * 20          # exactly non-growing
        assert machine.host.memory.bytes_allocated == 0
        # LIFO reuse: 20 identical generations need one generation's
        # worth of frames, nowhere near the region size.
        peak = machine.host.memory.peak_bytes
        assert 0 < peak < machine.host.memory.size_bytes // 100


class TestMigrationStudy:
    def test_all_schemes_render(self):
        report = migration_study(FAST, benchmarks=("gups", "mcf"),
                                 bursts=2, schemes=ALL_SCHEMES)
        assert [row[0] for row in report.rows] == list(ALL_SCHEMES)
        text = report.render()
        for scheme in ALL_SCHEMES:
            assert scheme in text


class TestShootdownSweep:
    def test_rates_rows_for_all_five_schemes(self):
        report = shootdown_sweep(FAST, benchmark="gups",
                                 rates=(0.0, 20.0), schemes=ALL_SCHEMES)
        assert report.headers == ("shootdowns_per_1k_refs",) + ALL_SCHEMES
        assert [row[0] for row in report.rows] == [0.0, 20.0]
        for row in report.rows:
            assert len(row) == 1 + len(ALL_SCHEMES)

    def test_storm_degrades_all_schemes(self):
        report = shootdown_sweep(FAST, benchmark="gups",
                                 rates=(0.0, 50.0),
                                 schemes=("baseline", "pom"))
        control, stormed = report.rows
        # Shootdown interference can only cost cycles.
        for column in (1, 2):
            assert stormed[column] <= control[column]


class TestCli:
    def test_lifecycle_churn_cli(self, capsys):
        code = main(["lifecycle", "churn", "--benchmarks", "gups",
                     "--generations", "2", "--refs", "150",
                     "--scale", "0.05", "--schemes", "pom", "--verify"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Lifecycle churn" in out
        assert "mem_final_bytes" in out

    def test_lifecycle_shootdown_cli(self, capsys):
        code = main(["lifecycle", "shootdown", "--rates", "0,10",
                     "--refs", "150", "--scale", "0.05", "--cores", "2",
                     "--schemes", "baseline,pom"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Shootdown interference" in out

    @pytest.mark.parametrize("argv", (
        ["campaign", "--benchmarks", "gups", "--cores", "1", "--refs", "300",
         "--scale", "0.02", "--seed", "5"],
        ["lifecycle", "shootdown", "--rates", "0,10", "--refs", "150",
         "--scale", "0.05", "--cores", "2", "--schemes", "all"],
    ), ids=("campaign", "lifecycle"))
    def test_no_batch_accepted_and_report_bytes_unchanged(self, argv,
                                                           tmp_path, capsys):
        """``--no-batch`` is still accepted and has no effect."""
        plain, flagged = tmp_path / "plain.txt", tmp_path / "flagged.txt"
        assert main(argv + ["--output", str(plain)]) == 0
        assert main(argv + ["--no-batch", "--output", str(flagged)]) == 0
        assert plain.read_bytes() == flagged.read_bytes()

    def test_lifecycle_rejects_unknown_scheme(self, capsys):
        code = main(["lifecycle", "churn", "--schemes", "warp"])
        assert code == 2

    def test_lifecycle_rejects_bad_rates(self, capsys):
        code = main(["lifecycle", "shootdown", "--rates", "fast"])
        assert code == 2

    def test_lifecycle_rejects_multi_benchmark_shootdown(self, capsys):
        code = main(["lifecycle", "shootdown",
                     "--benchmarks", "gups,mcf"])
        assert code == 2

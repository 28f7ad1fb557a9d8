"""Tests for the SMP subsystem: multi-hart machines, the deterministic
scheduler, system-wide perf attachment, and SMP runs through the session API
and the CLI."""

import json

import pytest

from repro.api import ProfileSpec, Session
from repro.cpu.events import HwEvent
from repro.isa.machine_ops import MachineOp, OpClass
from repro.kernel.perf_event import PerfEventAttr, ReadFormat
from repro.platforms import sifive_u74, spacemit_x60, thead_c910
from repro.smp import (
    MemoryController,
    MultiHartMachine,
    RoundRobinScheduler,
    Thread,
    aggregate_roofline,
    smp_record,
    smp_stat,
)
from repro.cpu.cache import MemoryConfig
from repro.toolchain.cli import main as cli_main
from repro.workloads import registry
from repro.workloads.parallel import ParallelWorkload

FAST_SPEC = ProfileSpec(sample_period=2_000)


def alu_loop_body(ops: int, quanta: int = 3, pc_base: int = 0x1000):
    """A tiny thread body: `quanta` bursts of ALU ops under one stack frame."""

    def body(machine, task):
        task.push_frame("worker")
        for _ in range(quanta):
            for slot in range(ops):
                machine.execute(
                    MachineOp(OpClass.INT_ALU, pc=pc_base + 4 * slot), task)
            yield
        task.pop_frame()

    return body


def load_loop_body(ops: int, stride: int = 64, base: int = 0x100000):
    def body(machine, task):
        task.push_frame("streamer")
        for chunk in range(3):
            for slot in range(ops):
                machine.execute(
                    MachineOp(OpClass.LOAD, size_bytes=8,
                              address=base + stride * slot, pc=0x2000 + 4 * slot),
                    task)
            yield
        task.pop_frame()

    return body


class TestMemoryController:
    def test_single_hart_pays_base_latency(self):
        controller = MemoryController(MemoryConfig(latency_cycles=100))
        latencies = [controller.access_latency(0) for _ in range(50)]
        assert set(latencies) == {100}
        assert controller.contended_accesses == 0

    def test_competing_harts_stretch_latency(self):
        controller = MemoryController(MemoryConfig(latency_cycles=100),
                                      contention_per_hart=0.5)
        controller.access_latency(0)
        interleaved = [controller.access_latency(hart) for hart in (1, 0, 1, 0)]
        assert all(latency == 150 for latency in interleaved)
        assert controller.contended_accesses == 4

    def test_contention_is_windowed(self):
        controller = MemoryController(MemoryConfig(latency_cycles=100),
                                      window=4, contention_per_hart=0.5)
        controller.access_latency(1)
        # Hart 1 ages out of the 4-entry window after 4 solo accesses.
        latencies = [controller.access_latency(0) for _ in range(6)]
        assert latencies[-1] == 100


class TestMultiHartMachine:
    def test_rejects_more_harts_than_the_board_has(self):
        with pytest.raises(ValueError, match="harts"):
            MultiHartMachine(sifive_u74(), cpus=16)
        with pytest.raises(ValueError, match="cpus"):
            MultiHartMachine(spacemit_x60(), cpus=0)

    def test_harts_are_indexed_through_the_whole_stack(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=3)
        for index, hart in enumerate(machine.harts):
            assert hart.hart_id == index
            assert hart.perf.cpu == index
            assert hart.sbi.hart_id == index
            assert hart.driver.hart_id == index

    def test_llc_is_shared_and_l1_is_private(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=2)
        h0 = machine.hart(0).hierarchy
        h1 = machine.hart(1).hierarchy
        assert h0.shared_levels[0] is h1.shared_levels[0]
        assert h0.private_levels[0] is not h1.private_levels[0]
        # Hart 0 faults a line in; hart 1 then hits it in the shared LLC
        # (no DRAM access) but misses its own private L1.
        machine.hart(0).execute(MachineOp(OpClass.LOAD, size_bytes=8,
                                          address=0x9000, pc=0x100))
        before = machine.memory_system.controller.accesses
        result = h1.access(0x9000, 8, is_store=False)
        assert result.hit_level == "L2"
        assert result.l1_miss and not result.llc_miss
        assert machine.memory_system.controller.accesses == before

    def test_aggregate_metrics(self):
        machine = MultiHartMachine(thead_c910(), cpus=2)
        smp_stat(machine, [("a", alu_loop_body(200)), ("b", alu_loop_body(100))])
        assert machine.total_instructions == sum(h.instructions
                                                 for h in machine.harts)
        assert machine.wall_cycles == max(h.cycles for h in machine.harts)
        assert machine.aggregate_ipc > 0
        stats = machine.stats()
        assert stats["cpus"] == 2 and len(stats["harts"]) == 2


class TestScheduler:
    def test_round_robin_pins_and_time_slices(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=2)
        threads = [Thread(f"t{i}", alu_loop_body(10)) for i in range(4)]
        trace = RoundRobinScheduler(machine).run(threads)
        assert trace.threads_per_hart == {0: ["t0", "t2"], 1: ["t1", "t3"]}
        # Each hart alternates its two threads quantum by quantum.
        assert trace.quanta_on(0)[:4] == ["t0", "t2", "t0", "t2"]
        assert all(thread.finished for thread in threads)

    def test_schedule_is_deterministic(self):
        def run_once():
            machine = MultiHartMachine(spacemit_x60(), cpus=3)
            threads = [Thread(f"t{i}", alu_loop_body(20 + i)) for i in range(5)]
            return RoundRobinScheduler(machine).run(threads).quanta

        assert run_once() == run_once()

    def test_zero_threads_is_a_clean_value_error(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=2)
        with pytest.raises(ValueError, match="at least one thread"):
            RoundRobinScheduler(machine).run([])

    def test_out_of_range_pin_is_a_clean_value_error(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=2)
        threads = [Thread("ok", alu_loop_body(10)),
                   Thread("bad", alu_loop_body(10), hart_id=5)]
        with pytest.raises(ValueError, match="harts 0..1"):
            RoundRobinScheduler(machine).run(threads)
        # Validation happens before anything runs: no quantum executed.
        assert threads[0].quanta == 0 and not threads[0].finished

    def test_negative_pin_is_a_clean_value_error(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=2)
        with pytest.raises(ValueError, match="pinned"):
            RoundRobinScheduler(machine).run(
                [Thread("bad", alu_loop_body(10), hart_id=-1)])

    def test_explicit_pin_overrides_default_placement(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=3)
        threads = [Thread("a", alu_loop_body(10), hart_id=2),
                   Thread("b", alu_loop_body(10), hart_id=2),
                   Thread("c", alu_loop_body(10))]   # default: index 2 % 3
        trace = RoundRobinScheduler(machine).run(threads)
        assert trace.threads_per_hart == {2: ["a", "b", "c"]}
        assert all(thread.finished for thread in threads)

    def test_smp_stat_rejects_empty_bodies(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=2)
        with pytest.raises(ValueError, match="thread body"):
            smp_stat(machine, [])
        with pytest.raises(ValueError, match="thread body"):
            smp_record(machine, [])

    def test_same_seed_gives_identical_per_hart_sample_streams(self):
        workload = registry["forkjoin-calltree"]

        def record_once():
            machine = MultiHartMachine(spacemit_x60(), cpus=2)
            recording = smp_record(machine, workload.threads(2, FAST_SPEC),
                                   sample_period=2_000)
            return [
                [(s.cpu, s.ip, s.time, s.callchain) for s in hart.samples]
                for hart in recording.per_hart
            ]

        first = record_once()
        second = record_once()
        assert first == second
        assert any(stream for stream in first)   # the run actually sampled


class TestSystemWideEvents:
    def test_system_wide_equals_sum_of_per_cpu(self):
        """cpu=-1 attachment counts exactly what per-CPU attachments count.

        The workload and the scheduler are deterministic, so the same thread
        list on two fresh machines retires identical per-hart streams; one
        machine attaches system-wide, the other per CPU.
        """
        read_format = frozenset({ReadFormat.TOTAL_TIME_ENABLED,
                                 ReadFormat.TOTAL_TIME_RUNNING})
        attr = PerfEventAttr(event=HwEvent.INSTRUCTIONS,
                             read_format=read_format)
        threads = lambda: [Thread("a", alu_loop_body(120)),
                           Thread("b", alu_loop_body(80))]

        wide_machine = MultiHartMachine(thead_c910(), cpus=2)
        system_wide = wide_machine.open_system_wide(attr, cpu=-1)
        system_wide.enable()
        RoundRobinScheduler(wide_machine).run(threads())
        system_wide.disable()
        wide = system_wide.read()

        percpu_machine = MultiHartMachine(thead_c910(), cpus=2)
        per_cpu = [percpu_machine.open_system_wide(attr, cpu=cpu)
                   for cpu in (0, 1)]
        for handle in per_cpu:
            handle.enable()
        RoundRobinScheduler(percpu_machine).run(threads())
        for handle in per_cpu:
            handle.disable()
        singles = [handle.read() for handle in per_cpu]

        assert wide.value == sum(read.value for read in singles)
        assert [wide.count_on(0), wide.count_on(1)] == \
            [read.value for read in singles]
        # Both harts actually retired the instructions their threads ran.
        assert wide.count_on(0) == 3 * 120 and wide.count_on(1) == 3 * 80

    def test_smp_stat_aggregate_equals_per_hart_sum(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=4)
        result = smp_stat(machine,
                          [(f"t{i}", alu_loop_body(50 + 10 * i))
                           for i in range(4)])
        for event in (HwEvent.CYCLES, HwEvent.INSTRUCTIONS):
            total = sum(result.count_on(cpu, event) for cpu in range(4))
            assert result.count(event) == total
        table = result.format()
        assert "cpu0" in table and "cpu3" in table and "total" in table

    def test_partial_open_failure_does_not_leak_fds(self):
        machine = MultiHartMachine(spacemit_x60(), cpus=2)
        # Sampling on cycles is impossible on the X60 -> open raises and no
        # fd stays behind on either hart.
        from repro.kernel.perf_event import PerfEventOpenError
        attr = PerfEventAttr(event=HwEvent.CYCLES, sample_period=1000)
        with pytest.raises(PerfEventOpenError):
            machine.open_system_wide(attr, cpu=-1)
        assert all(not hart.perf.open_events() for hart in machine.harts)


class TestParallelWorkloads:
    @pytest.mark.parametrize("name,param", [
        ("matmul-parallel", {"n": 8}),
        ("stream-triad-mt", {"n": 256}),
        ("forkjoin-calltree", {"scale": 1}),
    ])
    def test_implements_both_protocols(self, name, param):
        workload = registry.create(name, **param)
        assert isinstance(workload, ParallelWorkload)
        bodies = workload.threads(2, FAST_SPEC)
        assert len(bodies) >= 2
        assert all(callable(body) for _, body in bodies)

    def test_executable_runs_all_shards_sequentially(self):
        from repro.platforms.machine import Machine
        workload = registry.create("matmul-parallel", n=8)
        machine = Machine(spacemit_x60())
        task = machine.create_task(workload.name)
        workload.executable(machine, task, FAST_SPEC)()
        assert machine.instructions > 0
        assert task.depth == 0          # balanced push/pop

    def test_shards_cover_all_rows_exactly_once(self):
        workload = registry.create("matmul-parallel", n=10)
        machine = MultiHartMachine(spacemit_x60(), cpus=3)
        result = smp_stat(machine, workload.threads(3, FAST_SPEC))
        # 10 rows over 3 shards: 4 + 4 + 2; per-row work is identical, so
        # retired instructions split in the same 2:2:1 proportion.
        i0 = result.count_on(0, HwEvent.INSTRUCTIONS)
        i2 = result.count_on(2, HwEvent.INSTRUCTIONS)
        assert i0 > i2 > 0
        assert result.count(HwEvent.INSTRUCTIONS) > 0


class TestSessionSmp:
    def test_single_hart_spec_keeps_the_fast_path(self):
        session = Session("SpacemiT X60")
        run = session.run("micro-calltree", FAST_SPEC)
        assert run.cpus == 1 and run.schedule is None
        from repro.miniperf.record import RecordingResult
        assert isinstance(run.recording, RecordingResult)

    def test_smp_run_produces_per_hart_everything(self):
        session = Session("SpacemiT X60")
        spec = ProfileSpec(sample_period=2_000, cpus=2,
                           analyses=("stat", "hotspots", "flamegraph"))
        run = session.run("forkjoin-calltree", spec)
        assert run.cpus == 2
        assert len(run.stat.per_hart) == 2
        assert run.recording.cpus == 2
        assert {s.cpu for s in run.recording.samples} == {0, 1}
        assert [c.name for c in run.flame("cycles").sorted_children()] == \
            ["cpu0", "cpu1"]
        assert run.hotspots.total_samples == run.recording.sample_count
        assert run.schedule is not None
        payload = json.loads(run.to_json())
        assert payload["cpus"] == 2
        assert len(payload["stat"]["per_hart"]) == 2
        assert payload["schedule"]["cpus"] == 2

    def test_u74_smp_degrades_exactly_like_single_hart(self):
        session = Session("SiFive U74")
        spec = ProfileSpec(sample_period=2_000, cpus=2,
                           analyses=("stat", "hotspots", "flamegraph"))
        run = session.run("micro-calltree", spec)
        assert run.stat is not None
        assert "sampling" in run.errors and run.recording is None

    def test_smp_roofline_aggregates_roofs(self):
        session = Session("SpacemiT X60")
        run = session.run(registry.create("stream-triad-mt", n=512),
                          ProfileSpec(analyses=("roofline",), cpus=4))
        single = session.run(registry.create("stream-triad-mt", n=512),
                             ProfileSpec(analyses=("roofline",)))
        assert run.roofline.roofs.peak_gflops == pytest.approx(
            4 * single.roofline.roofs.peak_gflops)
        # Shared levels (DRAM and the X60's shared L2 LLC) keep their
        # single-instance bandwidth; the private L1 scales with the harts.
        for shared in ("DRAM", "L2"):
            assert run.roofline.roofs.bandwidth_gbps[shared] == pytest.approx(
                single.roofline.roofs.bandwidth_gbps[shared])
        assert run.roofline.roofs.bandwidth_gbps["L1D"] == pytest.approx(
            4 * single.roofline.roofs.bandwidth_gbps["L1D"])
        assert "4 harts" in run.roofline.roofs.source

    def test_compare_degrades_per_platform_on_impossible_hart_counts(self):
        # 8 harts exist on the X60 but not on the U74: the comparison keeps
        # the X60 run and records per-analysis errors for the U74 instead of
        # aborting.
        spec = ProfileSpec(cpus=8, analyses=("stat",))
        comparison = Session.compare(["SpacemiT X60", "SiFive U74"],
                                     "micro-calltree", spec)
        x60, u74 = comparison.runs
        assert x60.stat is not None and not x60.errors
        assert u74.stat is None and "harts" in u74.errors["stat"]

    def test_compare_carries_cpus_through(self):
        spec = ProfileSpec(sample_period=2_000, cpus=2,
                           analyses=("stat", "hotspots", "flamegraph"))
        comparison = Session.compare(["SpacemiT X60", "T-Head C910"],
                                     "forkjoin-calltree", spec)
        assert all(run.cpus == 2 for run in comparison.runs)
        assert comparison.flame_diffs          # both platforms sampled
        json.loads(comparison.to_json())

    def test_aggregate_roofline_is_identity_for_one_cpu(self):
        session = Session("SpacemiT X60")
        single = session.run(registry.create("stream-triad-mt", n=512),
                             ProfileSpec(analyses=("roofline",)))
        assert aggregate_roofline(single.roofline, 1) is single.roofline


class TestCliSmp:
    def run_cli(self, capsys, *argv):
        code = cli_main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_stat_cpus_json_has_per_hart_and_aggregate(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "stat", "--workload", "matmul-parallel", "-n", "8",
            "--cpus", "2", "-p", "x60", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["cpus"] == 2
        assert len(payload["stat"]["per_hart"]) == 2
        assert payload["stat"]["aggregate"]["instructions"] > 0

    def test_stat_cpus_table_has_per_hart_columns(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "stat", "--workload", "matmul-parallel", "-n", "8",
            "--cpus", "2", "-p", "x60")
        assert code == 0
        assert "cpu0" in out and "cpu1" in out and "total" in out

    def test_all_cpus_flag_uses_every_board_hart(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "stat", "--workload", "micro-calltree", "-a",
            "-p", "T-Head C910", "--json")
        assert code == 0
        assert json.loads(out)["cpus"] == 4

    def test_record_cpus(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "record", "--workload", "forkjoin-calltree",
            "--cpus", "2", "-p", "x60", "--period", "2000")
        assert code == 0
        assert "system-wide, 2 harts" in out and "Hotspots" in out

    def test_flamegraph_cpus_labels_harts(self, capsys):
        code, out, _ = self.run_cli(
            capsys, "flamegraph", "--workload", "forkjoin-calltree",
            "--cpus", "2", "-p", "x60", "--period", "2000", "--width", "60")
        assert code == 0
        assert "cpu0" in out and "cpu1" in out

    def test_platforms_subcommand(self, capsys):
        code, out, _ = self.run_cli(capsys, "platforms")
        assert code == 0
        assert "Banana Pi F3" in out and "harts" in out
        code, out, _ = self.run_cli(capsys, "platforms", "--json")
        rows = json.loads(out)
        assert {row["name"]: row["harts"] for row in rows}["SpacemiT X60"] == 8

    def test_capabilities_json(self, capsys):
        code, out, _ = self.run_cli(capsys, "capabilities", "--json")
        assert code == 0
        rows = json.loads(out)
        assert [row["Core"] for row in rows] == \
            ["SiFive U74", "T-Head C910", "SpacemiT X60"]

    def test_too_many_cpus_degrades_to_a_clean_run_error(self, capsys):
        code, _, err = self.run_cli(
            capsys, "stat", "--workload", "micro-calltree",
            "--cpus", "64", "-p", "u74")
        assert code == 1
        assert "stat failed" in err and "harts" in err

    def test_nonpositive_cpus_is_a_clean_error(self, capsys):
        for bogus in ("0", "-2"):
            code, _, err = self.run_cli(
                capsys, "stat", "--workload", "micro-calltree",
                "--cpus", bogus, "-p", "x60")
            assert code == 2
            assert "cpus" in err

    def test_bad_workload_scale_is_a_clean_error(self, capsys):
        code, _, err = self.run_cli(
            capsys, "stat", "--workload", "micro-calltree", "--scale", "-3")
        assert code == 2
        assert "positive integer" in err

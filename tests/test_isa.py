"""Tests for the ISA layer: machine ops, privilege, CSR file."""

import pickle

import pytest

from repro.isa import (
    CsrFile,
    CsrAccessError,
    CSR_MCYCLE,
    CSR_MCOUNTEREN,
    CSR_MVENDORID,
    PrivilegeMode,
)
from repro.isa.csr import CpuIdentity, hpm_counter_csr, hpm_event_csr, user_counter_csr
from repro.isa.machine_ops import (
    MachineOp,
    OpClass,
    branch,
    fp_fma,
    load,
    op_is_flop,
    op_is_memory,
    store,
    vector_fma,
    vector_load,
)
from repro.isa.privilege import ModeCycleAccounting, Trap, TrapCause, ecall_cause_for_mode
from repro.isa.registers import IntRegisterFile, VectorRegisterFile


IDENTITY = CpuIdentity(mvendorid=0x710, marchid=0x60, mimpid=0x1)


class TestMachineOps:
    def test_load_is_memory_and_not_flop(self):
        op = load(8, address=0x1000)
        assert op.is_memory and op.is_load and not op.is_store
        assert op.flop_count == 0
        assert op_is_memory(op.opclass)
        assert not op_is_flop(op.opclass)

    def test_store_is_store(self):
        op = store(4, address=0x2000)
        assert op.is_store and op.is_memory

    def test_fma_counts_two_flops(self):
        assert fp_fma().flop_count == 2

    def test_vector_fma_counts_two_flops_per_lane(self):
        assert vector_fma(lanes=8).flop_count == 16

    def test_vector_load_lanes_and_bytes(self):
        op = vector_load(32, lanes=8, address=0x100)
        assert op.is_vector and op.is_load
        assert op.size_bytes == 32

    def test_branch_flags(self):
        op = branch(taken=True, target=0x40, pc=0x80)
        assert op.is_branch and op.is_control and op.taken

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            MachineOp(OpClass.LOAD, size_bytes=-1)

    def test_zero_lanes_rejected(self):
        with pytest.raises(ValueError):
            MachineOp(OpClass.VECTOR_FMA, lanes=0)

    def test_int_op_count(self):
        assert MachineOp(OpClass.INT_ALU).int_op_count == 1
        assert MachineOp(OpClass.VECTOR_ALU, lanes=4).int_op_count == 4
        assert MachineOp(OpClass.FP_ADD).int_op_count == 0

    def test_ops_are_immutable_values(self):
        # Synthetic traces share one op instance across every segment that
        # retires it, so no field may change after construction.
        op = MachineOp(OpClass.LOAD, size_bytes=8, address=0x1000, pc=0x40)
        for name in ("opclass", "size_bytes", "address", "lanes", "taken",
                     "target", "pc"):
            with pytest.raises(AttributeError):
                setattr(op, name, 0)
        same = load(8, address=0x1000, pc=0x40)
        assert op == same and hash(op) == hash(same)
        assert op != load(8, address=0x1008, pc=0x40)
        assert pickle.loads(pickle.dumps(op)) == op


class TestPrivilege:
    def test_ordering(self):
        assert PrivilegeMode.MACHINE.can_access(PrivilegeMode.SUPERVISOR)
        assert not PrivilegeMode.USER.can_access(PrivilegeMode.SUPERVISOR)

    def test_ecall_causes(self):
        assert ecall_cause_for_mode(PrivilegeMode.USER) is TrapCause.ECALL_FROM_U
        assert ecall_cause_for_mode(PrivilegeMode.SUPERVISOR) is TrapCause.ECALL_FROM_S
        assert ecall_cause_for_mode(PrivilegeMode.MACHINE) is TrapCause.ECALL_FROM_M

    def test_trap_is_exception(self):
        with pytest.raises(Trap):
            raise Trap(TrapCause.ILLEGAL_INSTRUCTION, tval=0xB00)

    def test_mode_cycle_accounting(self):
        accounting = ModeCycleAccounting()
        accounting.add(PrivilegeMode.USER, 100)
        accounting.add(PrivilegeMode.SUPERVISOR, 20)
        accounting.add(PrivilegeMode.MACHINE, 5)
        assert accounting.split() == (100, 20, 5)
        assert accounting.total == 125
        with pytest.raises(ValueError):
            accounting.add(PrivilegeMode.USER, -1)


class TestCsrFile:
    def test_identity_readable_from_machine_mode_only(self):
        csr = CsrFile(IDENTITY)
        assert csr.read(CSR_MVENDORID, PrivilegeMode.MACHINE) == 0x710
        with pytest.raises(CsrAccessError):
            csr.read(CSR_MVENDORID, PrivilegeMode.SUPERVISOR)

    def test_identity_is_read_only(self):
        csr = CsrFile(IDENTITY)
        with pytest.raises(CsrAccessError):
            csr.write(CSR_MVENDORID, 1, PrivilegeMode.MACHINE)

    def test_machine_counter_requires_machine_mode(self):
        csr = CsrFile(IDENTITY)
        with pytest.raises(CsrAccessError):
            csr.write(CSR_MCYCLE, 42, PrivilegeMode.SUPERVISOR)
        csr.write(CSR_MCYCLE, 42, PrivilegeMode.MACHINE)
        assert csr.read(CSR_MCYCLE, PrivilegeMode.MACHINE) == 42

    def test_supervisor_shadow_read_requires_delegation(self):
        csr = CsrFile(IDENTITY)
        csr.set_counter_value(0, 1234)
        shadow = user_counter_csr(0)
        with pytest.raises(CsrAccessError):
            csr.read(shadow, PrivilegeMode.SUPERVISOR)
        csr.delegate_to_supervisor(0)
        assert csr.read(shadow, PrivilegeMode.SUPERVISOR) == 1234

    def test_user_shadow_requires_both_delegations(self):
        csr = CsrFile(IDENTITY)
        csr.set_counter_value(2, 77)
        shadow = user_counter_csr(2)
        csr.delegate_to_supervisor(2)
        with pytest.raises(CsrAccessError):
            csr.read(shadow, PrivilegeMode.USER)
        csr.delegate_to_user(2)
        assert csr.read(shadow, PrivilegeMode.USER) == 77

    def test_counter_inhibit_blocks_increment(self):
        csr = CsrFile(IDENTITY)
        csr.increment_counter(0, 10)
        csr.set_counter_inhibit(0, True)
        csr.increment_counter(0, 10)
        assert csr.counter_value(0) == 10
        csr.set_counter_inhibit(0, False)
        csr.increment_counter(0, 5)
        assert csr.counter_value(0) == 15

    def test_counter_wraps_at_64_bits(self):
        csr = CsrFile(IDENTITY)
        csr.set_counter_value(0, (1 << 64) - 1)
        csr.increment_counter(0, 2)
        assert csr.counter_value(0) == 1

    def test_event_selector_roundtrip(self):
        csr = CsrFile(IDENTITY)
        csr.set_event_selector(3, 0x8001)
        assert csr.event_selector(3) == 0x8001

    def test_unimplemented_hpm_counters_read_zero(self):
        csr = CsrFile(IDENTITY, num_hpm_counters=2)
        # Counter index 10 is not implemented with only 2 generic counters.
        assert csr.counter_value(10) == 0
        csr.increment_counter(10, 5)
        assert csr.counter_value(10) == 0

    def test_hpm_index_validation(self):
        with pytest.raises(ValueError):
            hpm_counter_csr(2)
        with pytest.raises(ValueError):
            hpm_event_csr(32)

    def test_unknown_csr_rejected(self):
        csr = CsrFile(IDENTITY)
        with pytest.raises(CsrAccessError):
            csr.read(0x5F0, PrivilegeMode.MACHINE)


class TestRegisters:
    def test_x0_is_hardwired_zero(self):
        regs = IntRegisterFile()
        regs.write(0, 1234)
        assert regs.read(0) == 0

    def test_named_access(self):
        regs = IntRegisterFile()
        regs.write_by_name("a0", 55)
        assert regs.read_by_name("a0") == 55
        assert regs.snapshot()["a0"] == 55

    def test_vector_lanes_from_vlen_and_sew(self):
        vrf = VectorRegisterFile(vlen_bits=256, sew_bits=32)
        assert vrf.lanes == 8
        assert vrf.configure(sew_bits=64) == 4

    def test_vector_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            VectorRegisterFile(vlen_bits=100)
        vrf = VectorRegisterFile()
        with pytest.raises(ValueError):
            vrf.configure(sew_bits=10)

//! **BX-2 "Baroque"** — the irregular reference machine.
//!
//! Stands in for the VAX-11 microarchitecture of the YALLL paper, whose
//! "baroque structure … discouraged the implementers from attempting any
//! code optimization". The mechanisms of baroqueness reproduced here:
//!
//! * one shared data bus every datapath operation occupies,
//! * operand selector fields *shared between units* (the ALU and the move
//!   path read their sources from the same field), so cross-unit packing
//!   almost always field-conflicts,
//! * only 8 general registers,
//! * an 8-bit immediate path (wide constants take two operations),
//! * shifts only by one bit, no multiway dispatch, and a meagre condition
//!   repertoire (no `UF` bit — the shifted-out bit lands in carry).
//!
//! The one packing opportunity left: the memory interface uses the bus only
//! in phases 2–4 while a move needs it in 0–2, so a *fine*-model compactor
//! can overlap them. Experiment E3 measures how much worse everything
//! compiles here than on HM-1.

use crate::field::ControlWordFormat;
use crate::machine::MachineDesc;
use crate::regs::{RegClass, RegRef, RegisterFile};
use crate::resource::{Resource, ResourceKind, ResourceUse};
use crate::semantic::{AluOp, CondKind, Semantic, ShiftOp};
use crate::template::{FieldValueSrc as V, MicroOpTemplate};

/// Builds the BX-2 machine description.
pub fn bx2() -> MachineDesc {
    let mut m = MachineDesc::new("BX-2", 16, 4);
    m.interrupt_service_cycles = 60;
    m.trap_service_cycles = 500;

    let g = m.add_file(RegisterFile::new("G", 8, 16, true));
    let s = m.add_file(RegisterFile::new("S", 2, 16, false)); // MAR, MBR
    let f = m.add_file(RegisterFile::new("F", 1, 8, false));
    let ls = m.add_file(RegisterFile::new("LS", 8, 16, false));
    m.scratch_file = Some(ls);

    let mar = RegRef::new(s, 0);
    let mbr = RegRef::new(s, 1);
    m.special.mar = Some(mar);
    m.special.mbr = Some(mbr);
    m.special.flags = Some(RegRef::new(f, 0));

    let gp = m.add_class(RegClass::whole_file("gp", g, 8));
    // The shared source/dest selector classes: G + MAR + MBR + LS.
    let sel_s = m.add_class(RegClass::from_ranges(
        "sel_src",
        vec![(g, 0, 8), (s, 0, 2), (ls, 0, 8)],
    ));
    let sel_d = m.add_class(RegClass::from_ranges(
        "sel_dst",
        vec![(g, 0, 8), (s, 0, 2), (ls, 0, 8)],
    ));

    let bus = m.add_resource(Resource::new("bus", ResourceKind::Bus));
    let alu = m.add_resource(Resource::new("alu", ResourceKind::Alu));
    let mem = m.add_resource(Resource::new("mem", ResourceKind::Memory));
    let seq = m.add_resource(Resource::new("seq", ResourceKind::Sequencer));

    let mut cw = ControlWordFormat::new();
    let f_unit = cw.push("unit_op", 5); // one opcode field for *everything*
    let f_src = cw.push("src_sel", 5); // shared by ALU left and MOV source
    let f_src2 = cw.push("src2_sel", 3); // ALU right (G only)
    let f_dst = cw.push("dst_sel", 5); // shared destination selector
    let f_imm = cw.push("imm", 8);
    let f_mem = cw.push("mem_op", 2);
    let f_seq_op = cw.push("seq_op", 3);
    let f_cond = cw.push("cond", 3);
    let f_addr = cw.push("addr", 11);
    m.control = cw;

    for c in [
        CondKind::True,
        CondKind::Zero,
        CondKind::NotZero,
        CondKind::Neg,
        CondKind::Carry,
        CondKind::NotCarry,
    ] {
        m.add_condition(c);
    }

    let bus_alu = ResourceUse::phases(bus, 0, 3);
    let alu_use = ResourceUse::phases(alu, 1, 3);
    let bus_mv = ResourceUse::phases(bus, 0, 2);
    let bus_mem = ResourceUse::phases(bus, 2, 4);

    let bin = [
        ("add", AluOp::Add, 1u64),
        ("adc", AluOp::Adc, 2),
        ("sub", AluOp::Sub, 3),
        ("and", AluOp::And, 4),
        ("or", AluOp::Or, 5),
        ("xor", AluOp::Xor, 6),
    ];
    for (name, op, code) in bin {
        let mut t = MicroOpTemplate::new(name, Semantic::Alu(op))
            .with_dst(gp)
            .with_src(sel_s)
            .with_src(gp)
            .flags()
            .set(f_unit, V::Const(code))
            .set(f_src, V::Src(0))
            .set(f_src2, V::Src(1))
            .set(f_dst, V::Dst)
            .occupies(bus_alu)
            .occupies(alu_use);
        if op == AluOp::Adc {
            t = t.reads(m.special.flags.unwrap());
        }
        m.add_template(t);
    }
    let un = [
        ("not", AluOp::Not, 7u64),
        ("neg", AluOp::Neg, 8),
        ("inc", AluOp::Inc, 9),
        ("dec", AluOp::Dec, 10),
    ];
    for (name, op, code) in un {
        m.add_template(
            MicroOpTemplate::new(name, Semantic::Alu(op))
                .with_dst(gp)
                .with_src(sel_s)
                .flags()
                .set(f_unit, V::Const(code))
                .set(f_src, V::Src(0))
                .set(f_dst, V::Dst)
                .occupies(bus_alu)
                .occupies(alu_use),
        );
    }
    // addi with an 8-bit immediate only.
    m.add_template(
        MicroOpTemplate::new("addi", Semantic::Alu(AluOp::Add))
            .with_dst(gp)
            .with_src(sel_s)
            .with_imm(8)
            .flags()
            .set(f_unit, V::Const(11))
            .set(f_src, V::Src(0))
            .set(f_dst, V::Dst)
            .set(f_imm, V::Imm)
            .occupies(bus_alu)
            .occupies(alu_use),
    );
    m.add_template(
        MicroOpTemplate::new("subi", Semantic::Alu(AluOp::Sub))
            .with_dst(gp)
            .with_src(sel_s)
            .with_imm(8)
            .flags()
            .set(f_unit, V::Const(12))
            .set(f_src, V::Src(0))
            .set(f_dst, V::Dst)
            .set(f_imm, V::Imm)
            .occupies(bus_alu)
            .occupies(alu_use),
    );

    // Shifts: one bit at a time, shifted-out bit goes to carry.
    let shifts = [("shl", ShiftOp::Shl, 13u64), ("shr", ShiftOp::Shr, 14)];
    for (name, op, code) in shifts {
        m.add_template(
            MicroOpTemplate::new(name, Semantic::Shift(op))
                .with_dst(gp)
                .with_src(sel_s)
                .with_imm(1) // amount field is 1 bit: shift by exactly 1
                .flags()
                .set(f_unit, V::Const(code))
                .set(f_src, V::Src(0))
                .set(f_dst, V::Dst)
                .set(f_imm, V::Imm)
                .occupies(bus_alu)
                .occupies(alu_use),
        );
    }

    m.add_template(
        MicroOpTemplate::new("mov", Semantic::Move)
            .with_dst(sel_d)
            .with_src(sel_s)
            .set(f_unit, V::Const(15))
            .set(f_src, V::Src(0))
            .set(f_dst, V::Dst)
            .occupies(bus_mv),
    );
    m.add_template(
        MicroOpTemplate::new("ldi", Semantic::LoadImm)
            .with_dst(sel_d)
            .with_imm(8)
            .set(f_unit, V::Const(16))
            .set(f_dst, V::Dst)
            .set(f_imm, V::Imm)
            .occupies(bus_mv),
    );

    // The memory interface rides the bus late in the cycle.
    m.add_template(
        MicroOpTemplate::new("read", Semantic::MemRead)
            .reads(mar)
            .writes(mbr)
            .set(f_mem, V::Const(1))
            .occupies(ResourceUse::phases(mem, 0, 4))
            .occupies(bus_mem),
    );
    m.add_template(
        MicroOpTemplate::new("write", Semantic::MemWrite)
            .reads(mar)
            .reads(mbr)
            .set(f_mem, V::Const(2))
            .occupies(ResourceUse::phases(mem, 0, 4))
            .occupies(bus_mem),
    );

    let seq_whole = ResourceUse::phases(seq, 2, 4);
    m.add_template(
        MicroOpTemplate::new("jmp", Semantic::Jump)
            .target()
            .set(f_seq_op, V::Const(1))
            .set(f_addr, V::Target)
            .occupies(seq_whole),
    );
    m.add_template(
        MicroOpTemplate::new("br", Semantic::Branch)
            .cond()
            .target()
            .set(f_seq_op, V::Const(2))
            .set(f_cond, V::Cond)
            .set(f_addr, V::Target)
            .occupies(seq_whole),
    );
    m.add_template(
        MicroOpTemplate::new("call", Semantic::Call)
            .target()
            .set(f_seq_op, V::Const(3))
            .set(f_addr, V::Target)
            .occupies(seq_whole),
    );
    m.add_template(
        MicroOpTemplate::new("ret", Semantic::Return)
            .set(f_seq_op, V::Const(4))
            .occupies(seq_whole),
    );
    m.add_template(
        MicroOpTemplate::new("poll", Semantic::Poll)
            .set(f_seq_op, V::Const(5))
            .occupies(seq_whole),
    );
    m.add_template(
        MicroOpTemplate::new("halt", Semantic::Halt)
            .set(f_seq_op, V::Const(6))
            .occupies(seq_whole),
    );

    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::ConflictModel;
    use crate::op::{BoundOp, MicroInstr};

    #[test]
    fn bx2_validates() {
        bx2().validate().unwrap();
    }

    #[test]
    fn alu_and_move_field_conflict() {
        // The shared src_sel/dst_sel fields stop ALU+MOV packing even
        // though they are distinct units.
        let m = bx2();
        let g = m.find_file("G").unwrap();
        let a = BoundOp::new(m.find_template("add").unwrap())
            .with_dst(RegRef::new(g, 0))
            .with_src(RegRef::new(g, 1))
            .with_src(RegRef::new(g, 2));
        let b = BoundOp::new(m.find_template("mov").unwrap())
            .with_dst(RegRef::new(g, 3))
            .with_src(RegRef::new(g, 4));
        assert!(m.conflicts(&a, &b, ConflictModel::Fine));
    }

    #[test]
    fn move_and_memory_overlap_under_fine_model_only() {
        let m = bx2();
        let g = m.find_file("G").unwrap();
        let mv = BoundOp::new(m.find_template("mov").unwrap())
            .with_dst(RegRef::new(g, 0))
            .with_src(RegRef::new(g, 1));
        let rd = BoundOp::new(m.find_template("read").unwrap());
        let mi = MicroInstr::of(vec![mv, rd]);
        assert!(m.validate_instr(&mi, ConflictModel::Fine).is_ok());
        assert!(m.validate_instr(&mi, ConflictModel::Coarse).is_err());
    }

    #[test]
    fn no_uf_condition_and_no_dispatch() {
        let m = bx2();
        assert!(!m.supports_cond(CondKind::Uf));
        assert!(m.find_template("dispatch").is_none());
    }

    #[test]
    fn eight_registers_only() {
        let m = bx2();
        assert_eq!(m.file(m.find_file("G").unwrap()).count, 8);
    }
}

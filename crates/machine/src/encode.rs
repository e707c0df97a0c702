//! Binary encoding and decoding of microinstructions.
//!
//! Encoding resolves every [`FieldSetting`](crate::template::FieldSetting)
//! of every packed operation into bits of the control word (up to 128 bits
//! wide). Decoding matches templates back against a word — possible because
//! every template carries at least one nonzero constant *selector* field
//! (field value 0 means "unit idle" on all reference machines).

use crate::ids::FieldId;
use crate::machine::MachineDesc;
use crate::op::{BoundOp, MicroInstr, MicroProgram};
use crate::srclist::MAX_SRCS;
use crate::template::{FieldValueSrc, MicroOpTemplate, SrcSpec};

/// Errors during encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EncodeError {
    /// A value does not fit its field.
    ValueTooWide {
        /// Field name.
        field: String,
        /// The offending value.
        value: u64,
    },
    /// Two operations drive the same field with different values.
    FieldCollision {
        /// Field name.
        field: String,
    },
    /// An operand needed by a field setting is missing or unencodable.
    MissingOperand(String),
    /// The control word is wider than 128 bits.
    WordTooWide(u16),
}

impl std::fmt::Display for EncodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EncodeError::ValueTooWide { field, value } => {
                write!(f, "value {value} too wide for field `{field}`")
            }
            EncodeError::FieldCollision { field } => {
                write!(f, "conflicting assignments to field `{field}`")
            }
            EncodeError::MissingOperand(s) => write!(f, "missing operand: {s}"),
            EncodeError::WordTooWide(b) => write!(f, "control word of {b} bits exceeds 128"),
        }
    }
}

impl std::error::Error for EncodeError {}

/// Errors during decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Bits remain set that no template accounts for.
    UnknownBits(u128),
    /// An operand field held an out-of-range encoding.
    BadOperand(String),
    /// A matched template is missing operand metadata (corrupt machine
    /// description rather than corrupt word).
    MalformedTemplate(String),
    /// The parity check word disagrees with the control word.
    EccMismatch {
        /// XOR of stored and recomputed check bits; nonzero by definition.
        syndrome: u8,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::UnknownBits(w) => write!(f, "undecodable bits: {w:#x}"),
            DecodeError::BadOperand(s) => write!(f, "bad operand encoding: {s}"),
            DecodeError::MalformedTemplate(s) => {
                write!(f, "template `{s}` lacks operand metadata")
            }
            DecodeError::EccMismatch { syndrome } => {
                write!(f, "control-word parity mismatch (syndrome {syndrome:#04x})")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Eight-way interleaved parity over a control word: check bit `j` is the
/// XOR of word bits `i` with `i ≡ j (mod 8)`. Any single-bit upset in the
/// word (or in the check byte itself) flips exactly one syndrome bit, so
/// single-event upsets are always detected; correction is not attempted —
/// recovery re-fetches from a golden copy.
pub fn ecc_of(word: u128) -> u8 {
    word.to_le_bytes().iter().fold(0, |acc, b| acc ^ b)
}

/// The parity syndrome of a stored `(word, check)` pair; zero means clean.
pub fn ecc_syndrome(word: u128, check: u8) -> u8 {
    ecc_of(word) ^ check
}

/// Decodes a control word after verifying its parity check byte.
///
/// # Errors
///
/// Returns [`DecodeError::EccMismatch`] when the check byte disagrees with
/// the word, otherwise behaves as [`decode_instr`].
pub fn decode_checked(m: &MachineDesc, word: u128, check: u8) -> Result<MicroInstr, DecodeError> {
    let syndrome = ecc_syndrome(word, check);
    if syndrome != 0 {
        return Err(DecodeError::EccMismatch { syndrome });
    }
    decode_instr(m, word)
}

/// The `n`th register class among `t`'s sources (immediates skipped).
fn src_class(t: &MicroOpTemplate, n: u8) -> Option<crate::ids::ClassId> {
    t.srcs
        .iter()
        .filter_map(|s| match s {
            SrcSpec::Class(c) => Some(*c),
            SrcSpec::Imm { .. } => None,
        })
        .nth(n as usize)
}

/// The value `src` puts in its field for `op`, whose branch target (if
/// any) is already resolved to `target`.
fn field_value(
    m: &MachineDesc,
    t: &MicroOpTemplate,
    op: &BoundOp,
    target: Option<u32>,
    src: FieldValueSrc,
) -> Result<u64, EncodeError> {
    match src {
        FieldValueSrc::Const(v) => Ok(v),
        FieldValueSrc::Dst => {
            let class = t
                .dst
                .ok_or_else(|| EncodeError::MissingOperand(format!("`{}`: dst class", t.name)))?;
            let reg = op
                .dst
                .ok_or_else(|| EncodeError::MissingOperand(format!("`{}`: dst reg", t.name)))?;
            m.class(class)
                .encoding_of(reg)
                .ok_or_else(|| EncodeError::MissingOperand(format!("`{}`: dst not in class", t.name)))
        }
        FieldValueSrc::Src(n) => {
            let class = src_class(t, n).ok_or_else(|| {
                EncodeError::MissingOperand(format!("`{}`: src {n} class", t.name))
            })?;
            let reg = *op.srcs.get(n as usize).ok_or_else(|| {
                EncodeError::MissingOperand(format!("`{}`: src {n} reg", t.name))
            })?;
            m.class(class)
                .encoding_of(reg)
                .ok_or_else(|| EncodeError::MissingOperand(format!("`{}`: src not in class", t.name)))
        }
        FieldValueSrc::Imm => op
            .imm
            .ok_or_else(|| EncodeError::MissingOperand(format!("`{}`: immediate", t.name))),
        FieldValueSrc::Target => target
            .map(u64::from)
            .ok_or_else(|| EncodeError::MissingOperand(format!("`{}`: target", t.name))),
        FieldValueSrc::Cond => {
            let c = op
                .cond
                .ok_or_else(|| EncodeError::MissingOperand(format!("`{}`: condition", t.name)))?;
            m.cond_encoding(c)
                .ok_or_else(|| EncodeError::MissingOperand(format!("`{}`: condition {c:?}", t.name)))
        }
    }
}

/// Encodes one microinstruction into a control word.
///
/// # Errors
///
/// Fails when a value overflows its field, when two packed operations drive
/// a field inconsistently, or when the word exceeds 128 bits.
pub fn encode_instr(m: &MachineDesc, mi: &MicroInstr) -> Result<u128, EncodeError> {
    encode_resolved(m, mi, |t| t)
}

/// Encodes `mi` with each branch target mapped through `resolve`. Fields
/// do not overlap, so a field is already assigned exactly when one of its
/// bits is claimed, and its value is then read back from the word.
fn encode_resolved(
    m: &MachineDesc,
    mi: &MicroInstr,
    resolve: impl Fn(u32) -> u32,
) -> Result<u128, EncodeError> {
    let bits = m.control_word_bits();
    if bits > 128 {
        return Err(EncodeError::WordTooWide(bits));
    }
    let mut word: u128 = 0;
    let mut claimed: u128 = 0;
    for op in &mi.ops {
        let t = m.template(op.template);
        let target = op.target.map(&resolve);
        for fs in &t.fields {
            let field = m.control.get(fs.field).expect("validated field");
            let v = field_value(m, t, op, target, fs.value)?;
            if v > field.max_value() {
                return Err(EncodeError::ValueTooWide {
                    field: field.name.clone(),
                    value: v,
                });
            }
            let mask = u128::from(field.max_value()) << field.offset;
            if claimed & mask == 0 {
                claimed |= mask;
                word |= (v as u128) << field.offset;
            } else if extract(word, m, fs.field) != v {
                return Err(EncodeError::FieldCollision {
                    field: field.name.clone(),
                });
            }
        }
    }
    Ok(word)
}

fn extract(word: u128, m: &MachineDesc, f: FieldId) -> u64 {
    let field = m.control.get(f).expect("field");
    ((word >> field.offset) as u64) & field.max_value()
}

/// Whether `t`'s constant selectors match the word, with at least one
/// nonzero constant (so idle units never match).
fn template_matches(m: &MachineDesc, t: &MicroOpTemplate, word: u128) -> bool {
    let mut nonzero = false;
    for fs in &t.fields {
        if let FieldValueSrc::Const(v) = fs.value {
            if extract(word, m, fs.field) != v {
                return false;
            }
            if v != 0 {
                nonzero = true;
            }
        }
    }
    nonzero
}

/// Decodes a control word back into a set of bound operations.
///
/// Templates are matched most-specific-first (most constant fields), and
/// each control field may be claimed by at most one operation.
///
/// # Errors
///
/// Returns [`DecodeError::BadOperand`] when an operand field holds an
/// encoding outside its register class.
pub fn decode_instr(m: &MachineDesc, word: u128) -> Result<MicroInstr, DecodeError> {
    let mut order: Vec<usize> = (0..m.templates.len()).collect();
    order.sort_by_key(|&i| {
        std::cmp::Reverse(
            m.templates[i]
                .fields
                .iter()
                .filter(|f| matches!(f.value, FieldValueSrc::Const(_)))
                .count(),
        )
    });

    let mut claimed = vec![false; m.control.len()];
    let mut ops = Vec::new();
    for i in order {
        let t = &m.templates[i];
        if !template_matches(m, t, word) {
            continue;
        }
        if t.fields.iter().any(|f| claimed[f.field.index()]) {
            continue;
        }
        // Reconstruct operands.
        let mut op = BoundOp::new(crate::ids::TemplateId(i as u16));
        let mut ok = true;
        for fs in &t.fields {
            match fs.value {
                FieldValueSrc::Const(_) => {}
                FieldValueSrc::Dst => {
                    let Some(class) = t.dst else {
                        return Err(DecodeError::MalformedTemplate(t.name.clone()));
                    };
                    match m.class(class).member_at(extract(word, m, fs.field)) {
                        Some(r) => op.dst = Some(r),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                FieldValueSrc::Src(n) => {
                    let Some(class) = src_class(t, n).filter(|_| usize::from(n) < MAX_SRCS)
                    else {
                        return Err(DecodeError::MalformedTemplate(t.name.clone()));
                    };
                    match m.class(class).member_at(extract(word, m, fs.field)) {
                        Some(r) => {
                            while op.srcs.len() <= n as usize {
                                op.srcs.push(r);
                            }
                            op.srcs[n as usize] = r;
                        }
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
                FieldValueSrc::Imm => op.imm = Some(extract(word, m, fs.field)),
                FieldValueSrc::Target => {
                    // Reject, never truncate: a >32-bit target field could
                    // otherwise decode to a silently wrapped address.
                    match u32::try_from(extract(word, m, fs.field)) {
                        Ok(t) => op.target = Some(t),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                FieldValueSrc::Cond => {
                    let code = extract(word, m, fs.field) as usize;
                    match m.conditions.get(code) {
                        Some(&c) => op.cond = Some(c),
                        None => {
                            ok = false;
                            break;
                        }
                    }
                }
            }
        }
        if !ok {
            return Err(DecodeError::BadOperand(t.name.clone()));
        }
        for fs in &t.fields {
            claimed[fs.field.index()] = true;
        }
        ops.push(op);
    }
    // Restore a canonical order (template id) so decode is deterministic.
    ops.sort_by_key(|o| o.template);
    let mi = MicroInstr::of(ops);
    // Strict inverse check: bits no template claimed (or claimed
    // inconsistently) would otherwise be dropped silently — exactly the
    // failure mode a fault campaign must detect, not mask.
    let back = encode_instr(m, &mi).map_err(|e| DecodeError::BadOperand(e.to_string()))?;
    if back != word {
        return Err(DecodeError::UnknownBits(word ^ back));
    }
    Ok(mi)
}

/// Encodes a whole program into a control store image (one word per
/// microinstruction, symbolic targets resolved to absolute addresses).
///
/// # Errors
///
/// Propagates any [`EncodeError`] from the individual instructions.
pub fn encode_program(m: &MachineDesc, p: &MicroProgram) -> Result<Vec<u128>, EncodeError> {
    let addrs = p.block_addresses();
    p.blocks
        .iter()
        .flat_map(|b| &b.instrs)
        .map(|mi| encode_resolved(m, mi, |t| addrs[t as usize]))
        .collect()
}

/// Encodes a whole program into `(control word, parity check)` pairs, the
/// image a fault-tolerant control store loads (see [`ecc_of`]).
///
/// # Errors
///
/// Propagates any [`EncodeError`] from the individual instructions.
pub fn encode_program_ecc(
    m: &MachineDesc,
    p: &MicroProgram,
) -> Result<Vec<(u128, u8)>, EncodeError> {
    Ok(encode_program(m, p)?
        .into_iter()
        .map(|w| (w, ecc_of(w)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::hm1;
    use crate::op::{MicroBlock, MicroProgram};
    use crate::regs::RegRef;
    use crate::semantic::CondKind;

    #[test]
    fn encode_empty_is_zero() {
        let m = hm1();
        let w = encode_instr(&m, &MicroInstr::new()).unwrap();
        assert_eq!(w, 0, "an empty microinstruction is the all-idle word");
    }

    #[test]
    fn a_fourth_register_source_is_a_malformed_template() {
        use crate::regs::{RegClass, RegisterFile};
        use crate::semantic::{AluOp, Semantic};
        // `validate` refuses this machine; decoding must not rely on it.
        let mut m = MachineDesc::new("wide", 16, 1);
        let r = m.add_file(RegisterFile::new("R", 4, 16, true));
        let gp = m.add_class(RegClass::whole_file("gp", r, 4));
        let f_op = m.control.push("op", 2);
        let mut t = MicroOpTemplate::new("sum4", Semantic::Alu(AluOp::Add))
            .set(f_op, FieldValueSrc::Const(1));
        for n in 0..=MAX_SRCS as u8 {
            let f = m.control.push(format!("s{n}"), 2);
            t = t.with_src(gp).set(f, FieldValueSrc::Src(n));
        }
        m.add_template(t);
        assert!(m.validate().is_err());
        assert_eq!(
            decode_checked(&m, 1, ecc_of(1)),
            Err(DecodeError::MalformedTemplate("sum4".into()))
        );
    }

    #[test]
    fn roundtrip_single_add() {
        let m = hm1();
        let add = m.find_template("add").unwrap();
        let gp = m.find_file("R").unwrap();
        let op = BoundOp::new(add)
            .with_dst(RegRef::new(gp, 1))
            .with_src(RegRef::new(gp, 2))
            .with_src(RegRef::new(gp, 3));
        let mi = MicroInstr::single(op);
        let w = encode_instr(&m, &mi).unwrap();
        let back = decode_instr(&m, w).unwrap();
        assert_eq!(back, mi);
    }

    #[test]
    fn roundtrip_parallel_pack() {
        let m = hm1();
        let add = m.find_template("add").unwrap();
        let mov = m.find_template("mov").unwrap();
        let gp = m.find_file("R").unwrap();
        let a = BoundOp::new(add)
            .with_dst(RegRef::new(gp, 1))
            .with_src(RegRef::new(gp, 2))
            .with_src(RegRef::new(gp, 3));
        let b = BoundOp::new(mov)
            .with_dst(RegRef::new(gp, 4))
            .with_src(RegRef::new(gp, 5));
        let mi = MicroInstr::of(vec![a, b]);
        let w = encode_instr(&m, &mi).unwrap();
        let mut back = decode_instr(&m, w).unwrap();
        back.ops.sort_by_key(|o| o.template);
        let mut want = mi.clone();
        want.ops.sort_by_key(|o| o.template);
        assert_eq!(back, want);
    }

    #[test]
    fn roundtrip_branch() {
        let m = hm1();
        let br = m.find_template("br").unwrap();
        let op = BoundOp::new(br).with_cond(CondKind::Zero).with_target(7);
        let mi = MicroInstr::single(op);
        let w = encode_instr(&m, &mi).unwrap();
        let back = decode_instr(&m, w).unwrap();
        assert_eq!(back, mi);
    }

    #[test]
    fn collision_detected() {
        let m = hm1();
        let add = m.find_template("add").unwrap();
        let sub = m.find_template("sub").unwrap();
        let gp = m.find_file("R").unwrap();
        let a = BoundOp::new(add)
            .with_dst(RegRef::new(gp, 1))
            .with_src(RegRef::new(gp, 2))
            .with_src(RegRef::new(gp, 3));
        let b = BoundOp::new(sub)
            .with_dst(RegRef::new(gp, 4))
            .with_src(RegRef::new(gp, 5))
            .with_src(RegRef::new(gp, 6));
        let mi = MicroInstr::of(vec![a, b]);
        assert!(matches!(
            encode_instr(&m, &mi),
            Err(EncodeError::FieldCollision { .. })
        ));
    }

    #[test]
    fn ecc_detects_every_single_bit_flip() {
        let m = hm1();
        let add = m.find_template("add").unwrap();
        let gp = m.find_file("R").unwrap();
        let op = BoundOp::new(add)
            .with_dst(RegRef::new(gp, 1))
            .with_src(RegRef::new(gp, 2))
            .with_src(RegRef::new(gp, 3));
        let w = encode_instr(&m, &MicroInstr::single(op)).unwrap();
        let check = ecc_of(w);
        assert_eq!(ecc_syndrome(w, check), 0);
        for bit in 0..128 {
            let flipped = w ^ (1u128 << bit);
            assert_ne!(
                ecc_syndrome(flipped, check),
                0,
                "flip of word bit {bit} must raise a nonzero syndrome"
            );
            assert!(matches!(
                decode_checked(&m, flipped, check),
                Err(DecodeError::EccMismatch { .. })
            ));
        }
        for bit in 0..8 {
            assert_ne!(
                ecc_syndrome(w, check ^ (1 << bit)),
                0,
                "flip of check bit {bit} must raise a nonzero syndrome"
            );
        }
    }

    #[test]
    fn decode_checked_round_trips_clean_words() {
        let m = hm1();
        let mov = m.find_template("mov").unwrap();
        let gp = m.find_file("R").unwrap();
        let op = BoundOp::new(mov)
            .with_dst(RegRef::new(gp, 4))
            .with_src(RegRef::new(gp, 5));
        let mi = MicroInstr::single(op);
        let w = encode_instr(&m, &mi).unwrap();
        assert_eq!(decode_checked(&m, w, ecc_of(w)).unwrap(), mi);
    }

    #[test]
    fn corrupted_words_error_or_roundtrip_without_panicking() {
        let m = hm1();
        let add = m.find_template("add").unwrap();
        let gp = m.find_file("R").unwrap();
        let op = BoundOp::new(add)
            .with_dst(RegRef::new(gp, 1))
            .with_src(RegRef::new(gp, 2))
            .with_src(RegRef::new(gp, 3));
        let w = encode_instr(&m, &MicroInstr::single(op)).unwrap();
        for bit in 0..m.control_word_bits() as u32 {
            let flipped = w ^ (1u128 << bit);
            if let Ok(mi) = decode_instr(&m, flipped) {
                let back = encode_instr(&m, &mi).unwrap();
                assert_eq!(back, flipped, "a decode that succeeds must be exact");
            }
        }
    }

    /// A deliberately skewed machine: every operand field is wider than
    /// the value space behind it (3 registers in 3-bit fields, 2
    /// conditions in a 3-bit field, a 40-bit branch target), so each field
    /// kind has encodings that must be *rejected* on decode, not masked.
    const SKEWED: &str = "\
machine SKEWED width 8 phases 2
file R count 3 width 8
class gp = R[0..3]
resource alu kind alu
resource seq kind sequencer
field alu_op width 4
field alu_a width 3
field alu_d width 3
field imm width 8
field seq_op width 3
field cond width 3
field addr width 40
cond true
cond zero
template pass semantic alu.pass
  dst gp
  src gp
  flags
  set alu_op = const 1
  set alu_a = src 0
  set alu_d = dst
  occupy alu 0..2
end
template ldi semantic loadimm
  dst gp
  imm 8
  set alu_op = const 2
  set alu_d = dst
  set imm = imm
  occupy alu 0..2
end
template br semantic branch
  cond
  target
  set seq_op = const 2
  set cond = cond
  set addr = target
  occupy seq 1..2
end
";

    fn skewed() -> MachineDesc {
        crate::mdl::parse(SKEWED).unwrap()
    }

    /// Overwrites one control field of an encoded word.
    fn poke(m: &MachineDesc, word: u128, field: &str, v: u64) -> u128 {
        let f = m.control.find(field).unwrap();
        let fld = m.control.get(f).unwrap();
        let mask = (fld.max_value() as u128) << fld.offset;
        (word & !mask) | (((v & fld.max_value()) as u128) << fld.offset)
    }

    #[test]
    fn out_of_range_dst_field_rejected() {
        let m = skewed();
        let pass = m.find_template("pass").unwrap();
        let gp = m.find_file("R").unwrap();
        let op = BoundOp::new(pass)
            .with_dst(RegRef::new(gp, 1))
            .with_src(RegRef::new(gp, 2));
        let w = encode_instr(&m, &MicroInstr::single(op)).unwrap();
        // Encodings 3..=7 name no register in the 3-member class.
        let bad = poke(&m, w, "alu_d", 5);
        assert!(matches!(decode_instr(&m, bad), Err(DecodeError::BadOperand(_))));
    }

    #[test]
    fn out_of_range_src_field_rejected() {
        let m = skewed();
        let pass = m.find_template("pass").unwrap();
        let gp = m.find_file("R").unwrap();
        let op = BoundOp::new(pass)
            .with_dst(RegRef::new(gp, 1))
            .with_src(RegRef::new(gp, 2));
        let w = encode_instr(&m, &MicroInstr::single(op)).unwrap();
        let bad = poke(&m, w, "alu_a", 7);
        assert!(matches!(decode_instr(&m, bad), Err(DecodeError::BadOperand(_))));
    }

    #[test]
    fn out_of_range_cond_field_rejected() {
        let m = skewed();
        let br = m.find_template("br").unwrap();
        let op = BoundOp::new(br).with_cond(CondKind::Zero).with_target(3);
        let w = encode_instr(&m, &MicroInstr::single(op)).unwrap();
        // Only two conditions are declared; code 6 names none.
        let bad = poke(&m, w, "cond", 6);
        assert!(matches!(decode_instr(&m, bad), Err(DecodeError::BadOperand(_))));
    }

    #[test]
    fn overwide_target_field_rejected_not_truncated() {
        let m = skewed();
        let br = m.find_template("br").unwrap();
        let op = BoundOp::new(br).with_cond(CondKind::Zero).with_target(3);
        let w = encode_instr(&m, &MicroInstr::single(op)).unwrap();
        // 2^33 fits the 40-bit addr field but overflows the u32 target; a
        // truncating decode would report target 0 and mask the corruption.
        let bad = poke(&m, w, "addr", 1 << 33);
        assert!(matches!(decode_instr(&m, bad), Err(DecodeError::BadOperand(_))));
    }

    #[test]
    fn full_width_imm_field_round_trips_exactly() {
        let m = skewed();
        let ldi = m.find_template("ldi").unwrap();
        let gp = m.find_file("R").unwrap();
        // Every bit pattern of an immediate field is a legal value; the
        // full-width one must survive decode unmasked.
        let op = BoundOp::new(ldi).with_dst(RegRef::new(gp, 0)).with_imm(0xFF);
        let mi = MicroInstr::single(op);
        let w = encode_instr(&m, &mi).unwrap();
        let back = decode_instr(&m, w).unwrap();
        assert_eq!(back.ops[0].imm, Some(0xFF));
    }

    #[test]
    fn program_encoding_resolves_block_targets() {
        let m = hm1();
        let jmp = m.find_template("jmp").unwrap();
        let mut p = MicroProgram::new();
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(BoundOp::new(jmp).with_target(1))],
        });
        p.blocks.push(MicroBlock {
            instrs: vec![MicroInstr::single(BoundOp::new(jmp).with_target(1))],
        });
        let words = encode_program(&m, &p).unwrap();
        assert_eq!(words.len(), 2);
        let mi0 = decode_instr(&m, words[0]).unwrap();
        assert_eq!(mi0.ops[0].target, Some(1), "block 1 starts at address 1");
    }
}

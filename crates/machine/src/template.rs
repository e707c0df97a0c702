//! Micro-operation templates: how a machine realises each primitive.
//!
//! A template says *what* a micro-operation does (its [`Semantic`]), *which
//! registers* it may touch (operand classes), *which control fields* it
//! drives, and *which resources* it occupies during which phases. Binding a
//! template to concrete operands yields a [`BoundOp`](crate::op::BoundOp) —
//! the unit of microinstruction composition.

use crate::ids::{ClassId, FieldId};
use crate::regs::RegRef;
use crate::resource::ResourceUse;
use crate::semantic::Semantic;

/// What a source operand of a template may be.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SrcSpec {
    /// A register drawn from the given class.
    Class(ClassId),
    /// An immediate constant of at most `bits` bits, carried in the
    /// control word's immediate field.
    Imm {
        /// Maximum width of the constant.
        bits: u16,
    },
}

/// Where the value written into a control field comes from when a template
/// is bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FieldValueSrc {
    /// A fixed value (typically the unit's opcode selector).
    Const(u64),
    /// The class encoding of the destination register.
    Dst,
    /// The class encoding of source operand `n`.
    Src(u8),
    /// The bound immediate value.
    Imm,
    /// The branch target (a control-store address, resolved at emission).
    Target,
    /// The encoding of the bound condition.
    Cond,
}

/// One field driven by a template.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldSetting {
    /// Which control field.
    pub field: FieldId,
    /// What goes into it.
    pub value: FieldValueSrc,
}

impl FieldSetting {
    /// Convenience constructor.
    pub fn new(field: FieldId, value: FieldValueSrc) -> Self {
        FieldSetting { field, value }
    }
}

/// A micro-operation template.
#[derive(Debug, Clone, PartialEq)]
pub struct MicroOpTemplate {
    /// Template name, e.g. `"add"`, `"shr"`, `"read"`.
    pub name: String,
    /// Architectural meaning.
    pub semantic: Semantic,
    /// Destination register class, when the template writes a register.
    pub dst: Option<ClassId>,
    /// Source operand specifications.
    pub srcs: Vec<SrcSpec>,
    /// Registers read implicitly (e.g. flags by `adc`, MAR by `read`).
    pub implicit_reads: Vec<RegRef>,
    /// Registers written implicitly (e.g. the flags register, MBR).
    pub implicit_writes: Vec<RegRef>,
    /// Whether the template updates the condition flags.
    pub writes_flags: bool,
    /// Whether the template takes a condition operand (branches).
    pub takes_cond: bool,
    /// Whether the template takes a control-store target operand.
    pub takes_target: bool,
    /// Control fields this template drives.
    pub fields: Vec<FieldSetting>,
    /// Resources occupied, with phase intervals.
    pub occupancy: Vec<ResourceUse>,
}

impl MicroOpTemplate {
    /// Creates a template with the given name and semantic; fill the rest
    /// with the builder-style `with_*` methods.
    pub fn new(name: impl Into<String>, semantic: Semantic) -> Self {
        MicroOpTemplate {
            name: name.into(),
            semantic,
            dst: None,
            srcs: Vec::new(),
            implicit_reads: Vec::new(),
            implicit_writes: Vec::new(),
            writes_flags: false,
            takes_cond: false,
            takes_target: false,
            fields: Vec::new(),
            occupancy: Vec::new(),
        }
    }

    /// Sets the destination class.
    pub fn with_dst(mut self, class: ClassId) -> Self {
        self.dst = Some(class);
        self
    }

    /// Appends a register source.
    pub fn with_src(mut self, class: ClassId) -> Self {
        self.srcs.push(SrcSpec::Class(class));
        self
    }

    /// Appends an immediate source of up to `bits` bits.
    pub fn with_imm(mut self, bits: u16) -> Self {
        self.srcs.push(SrcSpec::Imm { bits });
        self
    }

    /// Adds an implicit read.
    pub fn reads(mut self, reg: RegRef) -> Self {
        self.implicit_reads.push(reg);
        self
    }

    /// Adds an implicit write.
    pub fn writes(mut self, reg: RegRef) -> Self {
        self.implicit_writes.push(reg);
        self
    }

    /// Marks the template as updating condition flags.
    pub fn flags(mut self) -> Self {
        self.writes_flags = true;
        self
    }

    /// Marks the template as taking a condition operand.
    pub fn cond(mut self) -> Self {
        self.takes_cond = true;
        self
    }

    /// Marks the template as taking a branch target operand.
    pub fn target(mut self) -> Self {
        self.takes_target = true;
        self
    }

    /// Adds a field setting.
    pub fn set(mut self, field: FieldId, value: FieldValueSrc) -> Self {
        self.fields.push(FieldSetting::new(field, value));
        self
    }

    /// Adds a resource occupancy.
    pub fn occupies(mut self, use_: ResourceUse) -> Self {
        self.occupancy.push(use_);
        self
    }

    /// Number of register sources (excluding immediates).
    pub fn reg_src_count(&self) -> usize {
        self.srcs
            .iter()
            .filter(|s| matches!(s, SrcSpec::Class(_)))
            .count()
    }

    /// Whether the template takes an immediate source.
    pub fn has_imm(&self) -> bool {
        self.srcs.iter().any(|s| matches!(s, SrcSpec::Imm { .. }))
    }

    /// Maximum immediate width accepted, if any.
    pub fn imm_bits(&self) -> Option<u16> {
        self.srcs.iter().find_map(|s| match s {
            SrcSpec::Imm { bits } => Some(*bits),
            SrcSpec::Class(_) => None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ResourceId;
    use crate::semantic::AluOp;

    #[test]
    fn builder_accumulates() {
        let t = MicroOpTemplate::new("add", Semantic::Alu(AluOp::Add))
            .with_dst(ClassId(0))
            .with_src(ClassId(1))
            .with_src(ClassId(2))
            .flags()
            .set(FieldId(0), FieldValueSrc::Const(1))
            .set(FieldId(1), FieldValueSrc::Dst)
            .occupies(ResourceUse::phases(ResourceId(0), 1, 2));
        assert_eq!(t.dst, Some(ClassId(0)));
        assert_eq!(t.reg_src_count(), 2);
        assert!(!t.has_imm());
        assert!(t.writes_flags);
        assert_eq!(t.fields.len(), 2);
        assert_eq!(t.occupancy.len(), 1);
    }

    #[test]
    fn imm_templates_report_width() {
        let t = MicroOpTemplate::new("ldi", Semantic::LoadImm)
            .with_dst(ClassId(0))
            .with_imm(16);
        assert!(t.has_imm());
        assert_eq!(t.imm_bits(), Some(16));
        assert_eq!(t.reg_src_count(), 0);
    }

    #[test]
    fn branch_markers() {
        let t = MicroOpTemplate::new("brz", Semantic::Branch).cond().target();
        assert!(t.takes_cond);
        assert!(t.takes_target);
    }
}

//! The machine description proper, its validation, and the micro-operation
//! conflict oracle.

use crate::field::ControlWordFormat;
use crate::ids::{ClassId, FieldId, FileId, ResourceId, TemplateId};
use crate::op::{BoundOp, MicroInstr};
use crate::regs::{RegClass, RegRef, RegisterFile, SpecialRegs};
use crate::resource::Resource;
use crate::semantic::{CondKind, Semantic};
use crate::srclist::MAX_SRCS;
use crate::template::{FieldValueSrc, MicroOpTemplate, SrcSpec};

/// Which conflict model the compactor uses (experiment E2 compares them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum ConflictModel {
    /// Coarse: two operations touching the same resource conflict no matter
    /// the phases — the classic "one user per unit per cycle" model.
    #[default]
    Coarse,
    /// Fine: occupancies conflict only when their phase intervals overlap
    /// (Tokoro et al.'s resource-occupancy model).
    Fine,
}

/// Which test of the conflict oracle two operations fail.
enum Clash {
    /// Both drive this control field, not with one constant.
    Field(FieldId),
    /// Their occupancies of this resource collide.
    Resource(ResourceId),
    /// Both write this register.
    Register(RegRef),
}

/// Errors found while validating a machine description or a bound
/// operation against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MachineError {
    /// The control word format is malformed.
    BadControlWord(String),
    /// A template references a missing field/class/resource.
    DanglingRef(String),
    /// A constant does not fit the field it is assigned to.
    FieldOverflow(String),
    /// An occupancy extends past the machine's last phase.
    PhaseOutOfRange(String),
    /// A bound op does not match its template's operand specification.
    OperandMismatch(String),
    /// Two operations in one microinstruction conflict.
    Conflict(String),
}

impl std::fmt::Display for MachineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MachineError::BadControlWord(s) => write!(f, "bad control word: {s}"),
            MachineError::DanglingRef(s) => write!(f, "dangling reference: {s}"),
            MachineError::FieldOverflow(s) => write!(f, "field overflow: {s}"),
            MachineError::PhaseOutOfRange(s) => write!(f, "phase out of range: {s}"),
            MachineError::OperandMismatch(s) => write!(f, "operand mismatch: {s}"),
            MachineError::Conflict(s) => write!(f, "microinstruction conflict: {s}"),
        }
    }
}

impl std::error::Error for MachineError {}

/// A complete microarchitecture description.
#[derive(Debug, Clone)]
pub struct MachineDesc {
    /// Machine name, e.g. `"HM-1"`.
    pub name: String,
    /// Datapath width in bits.
    pub word_bits: u16,
    /// Number of phases per microcycle.
    pub phases: u8,
    /// The control word format.
    pub control: ControlWordFormat,
    /// Register files.
    pub files: Vec<RegisterFile>,
    /// Register classes.
    pub classes: Vec<RegClass>,
    /// Hardware resources.
    pub resources: Vec<Resource>,
    /// Micro-operation templates.
    pub templates: Vec<MicroOpTemplate>,
    /// Testable conditions; the encoding of a condition is its index here.
    pub conditions: Vec<CondKind>,
    /// Designated special registers.
    pub special: SpecialRegs,
    /// File used by the register allocator for spills (a local store).
    pub scratch_file: Option<FileId>,
    /// Cycles charged for servicing one interrupt (experiment E7).
    pub interrupt_service_cycles: u64,
    /// Cycles charged for servicing one microtrap/page fault.
    pub trap_service_cycles: u64,
}

impl MachineDesc {
    /// Creates an empty machine with the given name, datapath width and
    /// phase count.
    pub fn new(name: impl Into<String>, word_bits: u16, phases: u8) -> Self {
        MachineDesc {
            name: name.into(),
            word_bits,
            phases,
            control: ControlWordFormat::new(),
            files: Vec::new(),
            classes: Vec::new(),
            resources: Vec::new(),
            templates: Vec::new(),
            conditions: Vec::new(),
            special: SpecialRegs::default(),
            scratch_file: None,
            interrupt_service_cycles: 50,
            trap_service_cycles: 400,
        }
    }

    // ---- construction -----------------------------------------------------

    /// Adds a register file and returns its id.
    pub fn add_file(&mut self, file: RegisterFile) -> FileId {
        let id = FileId(self.files.len() as u16);
        self.files.push(file);
        id
    }

    /// Adds a register class and returns its id.
    pub fn add_class(&mut self, class: RegClass) -> ClassId {
        let id = ClassId(self.classes.len() as u16);
        self.classes.push(class);
        id
    }

    /// Adds a resource and returns its id.
    pub fn add_resource(&mut self, res: Resource) -> ResourceId {
        let id = ResourceId(self.resources.len() as u16);
        self.resources.push(res);
        id
    }

    /// Adds a micro-operation template and returns its id.
    pub fn add_template(&mut self, t: MicroOpTemplate) -> TemplateId {
        let id = TemplateId(self.templates.len() as u16);
        self.templates.push(t);
        id
    }

    /// Declares a testable condition and returns its encoding index.
    pub fn add_condition(&mut self, c: CondKind) -> u64 {
        if let Some(i) = self.conditions.iter().position(|&k| k == c) {
            return i as u64;
        }
        self.conditions.push(c);
        (self.conditions.len() - 1) as u64
    }

    // ---- lookups ----------------------------------------------------------

    /// Control word width in bits.
    pub fn control_word_bits(&self) -> u16 {
        self.control.total_bits()
    }

    /// Looks a template up by id.
    pub fn template(&self, id: TemplateId) -> &MicroOpTemplate {
        &self.templates[id.index()]
    }

    /// Finds a template id by name.
    pub fn find_template(&self, name: &str) -> Option<TemplateId> {
        self.templates
            .iter()
            .position(|t| t.name == name)
            .map(|i| TemplateId(i as u16))
    }

    /// All templates realising the given semantic, in declaration order.
    pub fn templates_for(&self, sem: Semantic) -> impl Iterator<Item = TemplateId> + '_ {
        self.templates
            .iter()
            .enumerate()
            .filter(move |(_, t)| t.semantic == sem)
            .map(|(i, _)| TemplateId(i as u16))
    }

    /// Looks a class up by id.
    pub fn class(&self, id: ClassId) -> &RegClass {
        &self.classes[id.index()]
    }

    /// Finds a class id by name.
    pub fn find_class(&self, name: &str) -> Option<ClassId> {
        self.classes
            .iter()
            .position(|c| c.name == name)
            .map(|i| ClassId(i as u16))
    }

    /// Finds a register file id by name.
    pub fn find_file(&self, name: &str) -> Option<FileId> {
        self.files
            .iter()
            .position(|f| f.name == name)
            .map(|i| FileId(i as u16))
    }

    /// Looks a file up by id.
    pub fn file(&self, id: FileId) -> &RegisterFile {
        &self.files[id.index()]
    }

    /// Width in bits of the given register.
    pub fn reg_width(&self, reg: RegRef) -> u16 {
        self.file(reg.file).width
    }

    /// The encoding of a condition, if the machine can test it.
    pub fn cond_encoding(&self, c: CondKind) -> Option<u64> {
        self.conditions.iter().position(|&k| k == c).map(|i| i as u64)
    }

    /// Whether the machine can test the given condition.
    pub fn supports_cond(&self, c: CondKind) -> bool {
        self.cond_encoding(c).is_some()
    }

    /// Resolves a register name of the form `FILE<index>` (`R3`, `G2`,
    /// `LS7`) or a special-role name (`ACC`, `MAR`, `MBR`), as used by the
    /// register-oriented frontends. Case-insensitive.
    pub fn resolve_reg_name(&self, name: &str) -> Option<RegRef> {
        let upper = name.to_ascii_uppercase();
        match upper.as_str() {
            "ACC" => return self.special.acc,
            "MAR" => return self.special.mar,
            "MBR" => return self.special.mbr,
            _ => {}
        }
        let mut files: Vec<(usize, &str)> = self
            .files
            .iter()
            .enumerate()
            .map(|(i, f)| (i, f.name.as_str()))
            .collect();
        files.sort_by_key(|(_, n)| std::cmp::Reverse(n.len()));
        for (fi, fname) in files {
            if let Some(rest) = upper.strip_prefix(&fname.to_ascii_uppercase()) {
                if let Ok(idx) = rest.parse::<u16>() {
                    if idx < self.files[fi].count {
                        return Some(RegRef::new(FileId(fi as u16), idx));
                    }
                }
            }
        }
        None
    }

    // ---- def/use sets -----------------------------------------------------

    /// All registers written by a bound op (explicit destination, implicit
    /// writes, and the flags register when the template updates flags).
    pub fn write_set(&self, op: &BoundOp) -> Vec<RegRef> {
        self.writes(op).collect()
    }

    /// [`write_set`](Self::write_set) without the `Vec`, in the same order.
    pub fn writes<'a>(&'a self, op: &'a BoundOp) -> impl Iterator<Item = RegRef> + 'a {
        let t = self.template(op.template);
        let flags = self.special.flags.filter(|_| t.writes_flags);
        op.dst
            .into_iter()
            .chain(t.implicit_writes.iter().copied())
            .chain(flags)
    }

    /// All registers read by a bound op (explicit sources, implicit reads,
    /// and the flags register for condition-testing templates).
    pub fn read_set(&self, op: &BoundOp) -> Vec<RegRef> {
        self.reads(op).collect()
    }

    /// [`read_set`](Self::read_set) without the `Vec`, in the same order.
    pub fn reads<'a>(&'a self, op: &'a BoundOp) -> impl Iterator<Item = RegRef> + 'a {
        let t = self.template(op.template);
        let flags = self.special.flags.filter(|_| t.takes_cond);
        op.srcs
            .iter()
            .copied()
            .chain(t.implicit_reads.iter().copied())
            .chain(flags)
    }

    // ---- conflict oracle ----------------------------------------------------

    /// Whether two bound operations may share one microinstruction.
    ///
    /// They conflict when (a) they drive the same control field — unless
    /// both drive it with the same constant, (b) their resource occupancies
    /// collide under the chosen [`ConflictModel`], or (c) their write sets
    /// intersect. Allocates nothing: the schedulers ask this for every
    /// placed op and candidate they try.
    pub fn conflicts(&self, a: &BoundOp, b: &BoundOp, model: ConflictModel) -> bool {
        self.clash(a, b, model).is_some()
    }

    /// Like [`conflicts`](Self::conflicts) but reports why.
    pub fn conflict_reason(
        &self,
        a: &BoundOp,
        b: &BoundOp,
        model: ConflictModel,
    ) -> Option<String> {
        let clash = self.clash(a, b, model)?;
        let (ta, tb) = (
            &self.template(a.template).name,
            &self.template(b.template).name,
        );
        Some(match clash {
            Clash::Field(f) => {
                let name = self
                    .control
                    .get(f)
                    .map(|f| f.name.clone())
                    .unwrap_or_else(|| format!("{f}"));
                format!("field `{name}` driven by both `{ta}` and `{tb}`")
            }
            Clash::Resource(r) => {
                let name = self
                    .resources
                    .get(r.index())
                    .map(|r| r.name.clone())
                    .unwrap_or_else(|| format!("{r}"));
                format!("resource `{name}` occupied by both `{ta}` and `{tb}`")
            }
            Clash::Register(r) => format!("register {r} written by both `{ta}` and `{tb}`"),
        })
    }

    /// The first test of the oracle that `a` and `b` fail, in the order
    /// field, occupancy, write set.
    fn clash(&self, a: &BoundOp, b: &BoundOp, model: ConflictModel) -> Option<Clash> {
        let ta = self.template(a.template);
        let tb = self.template(b.template);

        // (a) control-field conflicts (DeWitt's model).
        for fa in &ta.fields {
            for fb in &tb.fields {
                if fa.field == fb.field
                    && !matches!(
                        (fa.value, fb.value),
                        (FieldValueSrc::Const(x), FieldValueSrc::Const(y)) if x == y
                    )
                {
                    return Some(Clash::Field(fa.field));
                }
            }
        }

        // (b) resource occupancy conflicts (Tokoro's model).
        for ua in &ta.occupancy {
            for ub in &tb.occupancy {
                let hit = match model {
                    ConflictModel::Coarse => ua.same_resource(ub),
                    ConflictModel::Fine => ua.overlaps(ub),
                };
                if hit {
                    return Some(Clash::Resource(ua.resource));
                }
            }
        }

        // (c) write/write collisions.
        self.writes(a)
            .find(|&r| self.writes(b).any(|w| w == r))
            .map(Clash::Register)
    }

    // ---- validation ---------------------------------------------------------

    /// Checks the machine description for internal consistency.
    pub fn validate(&self) -> Result<(), MachineError> {
        self.control
            .validate()
            .map_err(MachineError::BadControlWord)?;

        for c in &self.classes {
            for &(f, lo, n) in &c.ranges {
                let file = self
                    .files
                    .get(f.index())
                    .ok_or_else(|| MachineError::DanglingRef(format!("class `{}`: no file {f}", c.name)))?;
                if lo + n > file.count {
                    return Err(MachineError::DanglingRef(format!(
                        "class `{}` range exceeds file `{}`",
                        c.name, file.name
                    )));
                }
            }
        }

        for t in &self.templates {
            if let Some(c) = t.dst {
                self.check_class(c, &t.name)?;
            }
            if t.reg_src_count() > MAX_SRCS {
                return Err(MachineError::OperandMismatch(format!(
                    "template `{}` takes {} register sources, more than {MAX_SRCS}",
                    t.name,
                    t.reg_src_count()
                )));
            }
            for s in &t.srcs {
                if let SrcSpec::Class(c) = s {
                    self.check_class(*c, &t.name)?;
                }
            }
            for fs in &t.fields {
                let field = self.control.get(fs.field).ok_or_else(|| {
                    MachineError::DanglingRef(format!("template `{}`: no field {}", t.name, fs.field))
                })?;
                match fs.value {
                    FieldValueSrc::Const(v) => {
                        if v > field.max_value() {
                            return Err(MachineError::FieldOverflow(format!(
                                "template `{}`: constant {v} too wide for field `{}`",
                                t.name, field.name
                            )));
                        }
                    }
                    FieldValueSrc::Dst => {
                        let c = t.dst.ok_or_else(|| {
                            MachineError::DanglingRef(format!(
                                "template `{}` encodes Dst but has no destination",
                                t.name
                            ))
                        })?;
                        if self.class(c).selector_bits() > field.width {
                            return Err(MachineError::FieldOverflow(format!(
                                "template `{}`: class `{}` needs more bits than field `{}`",
                                t.name,
                                self.class(c).name,
                                field.name
                            )));
                        }
                    }
                    FieldValueSrc::Src(n) => {
                        let regs: Vec<ClassId> = t
                            .srcs
                            .iter()
                            .filter_map(|s| match s {
                                SrcSpec::Class(c) => Some(*c),
                                SrcSpec::Imm { .. } => None,
                            })
                            .collect();
                        let c = *regs.get(n as usize).ok_or_else(|| {
                            MachineError::DanglingRef(format!(
                                "template `{}` encodes Src({n}) but has fewer register sources",
                                t.name
                            ))
                        })?;
                        if self.class(c).selector_bits() > field.width {
                            return Err(MachineError::FieldOverflow(format!(
                                "template `{}`: class `{}` needs more bits than field `{}`",
                                t.name,
                                self.class(c).name,
                                field.name
                            )));
                        }
                    }
                    FieldValueSrc::Imm => {
                        let bits = t.imm_bits().ok_or_else(|| {
                            MachineError::DanglingRef(format!(
                                "template `{}` encodes Imm but takes none",
                                t.name
                            ))
                        })?;
                        if bits > field.width {
                            return Err(MachineError::FieldOverflow(format!(
                                "template `{}`: immediate of {bits} bits exceeds field `{}`",
                                t.name, field.name
                            )));
                        }
                    }
                    FieldValueSrc::Target | FieldValueSrc::Cond => {}
                }
            }
            for u in &t.occupancy {
                if self.resources.get(u.resource.index()).is_none() {
                    return Err(MachineError::DanglingRef(format!(
                        "template `{}`: no resource {}",
                        t.name, u.resource
                    )));
                }
                if u.to_phase > self.phases {
                    return Err(MachineError::PhaseOutOfRange(format!(
                        "template `{}` occupies phase {} of a {}-phase machine",
                        t.name,
                        u.to_phase - 1,
                        self.phases
                    )));
                }
            }
        }
        Ok(())
    }

    fn check_class(&self, c: ClassId, tname: &str) -> Result<(), MachineError> {
        if self.classes.get(c.index()).is_none() {
            return Err(MachineError::DanglingRef(format!(
                "template `{tname}`: no class {c}"
            )));
        }
        Ok(())
    }

    /// Checks a bound operation against its template.
    pub fn validate_op(&self, op: &BoundOp) -> Result<(), MachineError> {
        let t = self
            .templates
            .get(op.template.index())
            .ok_or_else(|| MachineError::DanglingRef(format!("no template {}", op.template)))?;

        match (t.dst, op.dst) {
            (Some(c), Some(r)) => {
                if !self.class(c).contains(r) {
                    return Err(MachineError::OperandMismatch(format!(
                        "`{}`: destination {r} not in class `{}`",
                        t.name,
                        self.class(c).name
                    )));
                }
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(MachineError::OperandMismatch(format!(
                    "`{}`: missing destination",
                    t.name
                )))
            }
            (None, Some(_)) => {
                return Err(MachineError::OperandMismatch(format!(
                    "`{}`: unexpected destination",
                    t.name
                )))
            }
        }

        let reg_specs = t.srcs.iter().filter_map(|s| match s {
            SrcSpec::Class(c) => Some(*c),
            SrcSpec::Imm { .. } => None,
        });
        let expected = reg_specs.clone().count();
        if expected != op.srcs.len() {
            return Err(MachineError::OperandMismatch(format!(
                "`{}`: expected {expected} register sources, got {}",
                t.name,
                op.srcs.len()
            )));
        }
        for (i, (c, &r)) in reg_specs.zip(op.srcs.iter()).enumerate() {
            if !self.class(c).contains(r) {
                return Err(MachineError::OperandMismatch(format!(
                    "`{}`: source {i} register {r} not in class `{}`",
                    t.name,
                    self.class(c).name
                )));
            }
        }

        match (t.imm_bits(), op.imm) {
            (Some(bits), Some(v)) => {
                if bits < 64 && v >= (1u64 << bits) {
                    return Err(MachineError::OperandMismatch(format!(
                        "`{}`: immediate {v} does not fit {bits} bits",
                        t.name
                    )));
                }
            }
            (None, None) => {}
            (Some(_), None) => {
                return Err(MachineError::OperandMismatch(format!(
                    "`{}`: missing immediate",
                    t.name
                )))
            }
            (None, Some(_)) => {
                return Err(MachineError::OperandMismatch(format!(
                    "`{}`: unexpected immediate",
                    t.name
                )))
            }
        }

        if t.takes_target != op.target.is_some() {
            return Err(MachineError::OperandMismatch(format!(
                "`{}`: branch target {}",
                t.name,
                if t.takes_target { "missing" } else { "unexpected" }
            )));
        }
        match (t.takes_cond, op.cond) {
            (true, Some(c)) => {
                if !self.supports_cond(c) {
                    return Err(MachineError::OperandMismatch(format!(
                        "`{}`: machine cannot test condition {c:?}",
                        t.name
                    )));
                }
            }
            (false, None) => {}
            (true, None) => {
                return Err(MachineError::OperandMismatch(format!(
                    "`{}`: missing condition",
                    t.name
                )))
            }
            (false, Some(_)) => {
                return Err(MachineError::OperandMismatch(format!(
                    "`{}`: unexpected condition",
                    t.name
                )))
            }
        }
        Ok(())
    }

    /// Checks a whole microinstruction: every op valid, no pairwise
    /// conflicts, and at most one control-flow operation.
    pub fn validate_instr(&self, mi: &MicroInstr, model: ConflictModel) -> Result<(), MachineError> {
        let mut control_ops = 0;
        for op in &mi.ops {
            self.validate_op(op)?;
            if self.template(op.template).semantic.is_control() {
                control_ops += 1;
            }
        }
        if control_ops > 1 {
            return Err(MachineError::Conflict(
                "more than one control-flow operation in a microinstruction".into(),
            ));
        }
        for i in 0..mi.ops.len() {
            for j in i + 1..mi.ops.len() {
                if let Some(why) = self.conflict_reason(&mi.ops[i], &mi.ops[j], model) {
                    return Err(MachineError::Conflict(why));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regs::RegisterFile;
    use crate::resource::{ResourceKind, ResourceUse};
    use crate::semantic::AluOp;
    use crate::template::FieldValueSrc as V;

    /// A tiny two-unit machine for oracle tests.
    fn toy() -> MachineDesc {
        let mut m = MachineDesc::new("toy", 16, 2);
        let gp = m.add_file(RegisterFile::new("R", 4, 16, true));
        let flags = m.add_file(RegisterFile::new("F", 1, 8, false));
        m.special.flags = Some(RegRef::new(flags, 0));
        let gpc = m.add_class(RegClass::whole_file("gp", gp, 4));
        let alu = m.add_resource(Resource::new("alu", ResourceKind::Alu));
        let bus = m.add_resource(Resource::new("bus", ResourceKind::Bus));
        let f_op = m.control.push("alu_op", 4);
        let f_l = m.control.push("alu_l", 2);
        let f_r = m.control.push("alu_r", 2);
        let f_d = m.control.push("alu_d", 2);
        let f_mv = m.control.push("mv", 1);
        let f_ms = m.control.push("mv_s", 2);
        let f_md = m.control.push("mv_d", 2);
        m.add_template(
            MicroOpTemplate::new("add", Semantic::Alu(AluOp::Add))
                .with_dst(gpc)
                .with_src(gpc)
                .with_src(gpc)
                .flags()
                .set(f_op, V::Const(1))
                .set(f_l, V::Src(0))
                .set(f_r, V::Src(1))
                .set(f_d, V::Dst)
                .occupies(ResourceUse::phases(alu, 0, 2)),
        );
        m.add_template(
            MicroOpTemplate::new("mov", Semantic::Move)
                .with_dst(gpc)
                .with_src(gpc)
                .set(f_mv, V::Const(1))
                .set(f_ms, V::Src(0))
                .set(f_md, V::Dst)
                .occupies(ResourceUse::phases(bus, 0, 1)),
        );
        m
    }

    fn r(i: u16) -> RegRef {
        RegRef::new(FileId(0), i)
    }

    #[test]
    fn toy_validates() {
        assert!(toy().validate().is_ok());
    }

    #[test]
    fn same_unit_conflicts() {
        let m = toy();
        let add = m.find_template("add").unwrap();
        let a = BoundOp::new(add).with_dst(r(0)).with_src(r(1)).with_src(r(2));
        let b = BoundOp::new(add).with_dst(r(3)).with_src(r(1)).with_src(r(2));
        assert!(m.conflicts(&a, &b, ConflictModel::Coarse));
        assert!(m.conflicts(&a, &b, ConflictModel::Fine));
    }

    #[test]
    fn different_units_do_not_conflict() {
        let m = toy();
        let add = m.find_template("add").unwrap();
        let mov = m.find_template("mov").unwrap();
        let a = BoundOp::new(add).with_dst(r(0)).with_src(r(1)).with_src(r(2));
        let b = BoundOp::new(mov).with_dst(r(3)).with_src(r(1));
        assert!(!m.conflicts(&a, &b, ConflictModel::Coarse));
    }

    #[test]
    fn same_destination_conflicts_even_across_units() {
        let m = toy();
        let add = m.find_template("add").unwrap();
        let mov = m.find_template("mov").unwrap();
        let a = BoundOp::new(add).with_dst(r(0)).with_src(r(1)).with_src(r(2));
        let b = BoundOp::new(mov).with_dst(r(0)).with_src(r(1));
        assert!(m.conflicts(&a, &b, ConflictModel::Coarse));
        let why = m.conflict_reason(&a, &b, ConflictModel::Coarse).unwrap();
        assert!(why.contains("written by both"), "{why}");
    }

    #[test]
    fn flag_writers_conflict() {
        let m = toy();
        let add = m.find_template("add").unwrap();
        let a = BoundOp::new(add).with_dst(r(0)).with_src(r(1)).with_src(r(2));
        let b = BoundOp::new(add).with_dst(r(3)).with_src(r(1)).with_src(r(2));
        // Both write flags *and* share the ALU; either way they conflict.
        assert!(m.conflicts(&a, &b, ConflictModel::Fine));
    }

    #[test]
    fn validate_op_checks_operands() {
        let m = toy();
        let add = m.find_template("add").unwrap();
        let good = BoundOp::new(add).with_dst(r(0)).with_src(r(1)).with_src(r(2));
        assert!(m.validate_op(&good).is_ok());
        let missing_src = BoundOp::new(add).with_dst(r(0)).with_src(r(1));
        assert!(m.validate_op(&missing_src).is_err());
        let no_dst = BoundOp::new(add).with_src(r(1)).with_src(r(2));
        assert!(m.validate_op(&no_dst).is_err());
        let stray_imm = good.with_imm(3);
        assert!(m.validate_op(&stray_imm).is_err());
    }

    #[test]
    fn validate_instr_rejects_conflicting_pack() {
        let m = toy();
        let add = m.find_template("add").unwrap();
        let a = BoundOp::new(add).with_dst(r(0)).with_src(r(1)).with_src(r(2));
        let b = BoundOp::new(add).with_dst(r(3)).with_src(r(1)).with_src(r(2));
        let mi = MicroInstr::of(vec![a, b]);
        assert!(m.validate_instr(&mi, ConflictModel::Coarse).is_err());
    }

    #[test]
    fn write_and_read_sets_include_flags() {
        let m = toy();
        let add = m.find_template("add").unwrap();
        let a = BoundOp::new(add).with_dst(r(0)).with_src(r(1)).with_src(r(2));
        let w = m.write_set(&a);
        assert!(w.contains(&r(0)));
        assert!(w.contains(&m.special.flags.unwrap()));
        let rd = m.read_set(&a);
        assert_eq!(rd.len(), 2);
    }

    #[test]
    fn add_condition_dedups() {
        let mut m = toy();
        let a = m.add_condition(CondKind::Zero);
        let b = m.add_condition(CondKind::Zero);
        assert_eq!(a, b);
        let c = m.add_condition(CondKind::Carry);
        assert_ne!(a, c);
        assert_eq!(m.cond_encoding(CondKind::Carry), Some(c));
        assert!(m.supports_cond(CondKind::Zero));
        assert!(!m.supports_cond(CondKind::Uf));
    }

    #[test]
    fn validation_catches_dangling_class() {
        let mut m = toy();
        m.add_template(MicroOpTemplate::new("bad", Semantic::Move).with_dst(ClassId(99)));
        assert!(matches!(m.validate(), Err(MachineError::DanglingRef(_))));
    }

    #[test]
    fn validation_refuses_a_fourth_register_source() {
        let with_srcs = |n: usize| {
            let mut m = toy();
            let gp = m.find_class("gp").unwrap();
            let mut t = MicroOpTemplate::new("wide", Semantic::Alu(AluOp::Add)).with_dst(gp);
            for _ in 0..n {
                t = t.with_src(gp);
            }
            m.add_template(t);
            m.validate()
        };
        assert_eq!(with_srcs(MAX_SRCS), Ok(()));
        let e = with_srcs(MAX_SRCS + 1).unwrap_err();
        assert!(
            matches!(&e, MachineError::OperandMismatch(s) if s.contains("`wide` takes 4")),
            "{e}"
        );
    }

    #[test]
    fn validation_catches_phase_overrun() {
        let mut m = toy();
        let alu = ResourceId(0);
        m.add_template(
            MicroOpTemplate::new("bad", Semantic::Nop).occupies(ResourceUse::phases(alu, 0, 5)),
        );
        assert!(matches!(m.validate(), Err(MachineError::PhaseOutOfRange(_))));
    }
}

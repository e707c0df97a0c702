//! Register files, register references and register classes.
//!
//! The survey stresses (§2.1.3) that "the microregister set is generally not
//! homogeneous": which operations apply to a value depends on where it
//! lives. We model this with *register classes* — each micro-operation
//! template constrains each operand to a class, and the register allocator
//! must honour those classes.

use crate::ids::FileId;

/// A register file: a named, uniformly-sized group of registers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegisterFile {
    /// File name, e.g. `"R"` (general purpose) or `"LS"` (local store).
    pub name: String,
    /// Number of registers in the file.
    pub count: u16,
    /// Register width in bits.
    pub width: u16,
    /// Whether the file is part of the *macro*architecture — i.e. saved at
    /// microprogram entry and restored when a microtrap restarts the
    /// program (see the `incread` example of §2.1.5 of the paper).
    pub macro_visible: bool,
}

impl RegisterFile {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, count: u16, width: u16, macro_visible: bool) -> Self {
        RegisterFile {
            name: name.into(),
            count,
            width,
            macro_visible,
        }
    }
}

/// A reference to one concrete register: a file and an index within it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegRef {
    /// The register file.
    pub file: FileId,
    /// Index within the file.
    pub index: u16,
}

impl RegRef {
    /// Creates a reference to register `index` of `file`.
    pub fn new(file: FileId, index: u16) -> Self {
        RegRef { file, index }
    }
}

impl std::fmt::Display for RegRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}:{}", self.file.0, self.index)
    }
}

/// A register class: the set of registers admissible as a particular
/// operand. Classes are unions of contiguous ranges of register files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegClass {
    /// Class name, e.g. `"gp"`, `"alu_left"`, `"mar_only"`.
    pub name: String,
    /// The member ranges: `(file, first_index, count)`.
    pub ranges: Vec<(FileId, u16, u16)>,
}

impl RegClass {
    /// Creates a class covering one whole file.
    pub fn whole_file(name: impl Into<String>, file: FileId, count: u16) -> Self {
        RegClass {
            name: name.into(),
            ranges: vec![(file, 0, count)],
        }
    }

    /// Creates a class from explicit ranges.
    pub fn from_ranges(name: impl Into<String>, ranges: Vec<(FileId, u16, u16)>) -> Self {
        RegClass {
            name: name.into(),
            ranges,
        }
    }

    /// Whether `reg` belongs to the class.
    pub fn contains(&self, reg: RegRef) -> bool {
        self.ranges
            .iter()
            .any(|&(f, lo, n)| f == reg.file && reg.index >= lo && reg.index < lo + n)
    }

    /// Total number of member registers.
    pub fn size(&self) -> usize {
        self.ranges.iter().map(|&(_, _, n)| n as usize).sum()
    }

    /// Enumerates all member registers in a canonical order (range order).
    /// The position of a register in this enumeration is its *encoding*
    /// when a control field selects among the members of the class.
    pub fn members(&self) -> impl Iterator<Item = RegRef> + '_ {
        self.ranges
            .iter()
            .flat_map(|&(f, lo, n)| (lo..lo + n).map(move |i| RegRef::new(f, i)))
    }

    /// The canonical encoding of `reg` within the class, if it is a member.
    pub fn encoding_of(&self, reg: RegRef) -> Option<u64> {
        self.members().position(|r| r == reg).map(|p| p as u64)
    }

    /// The member register with canonical encoding `code`, if in range.
    pub fn member_at(&self, code: u64) -> Option<RegRef> {
        self.members().nth(code as usize)
    }

    /// Minimum field width (bits) needed to encode a member selector.
    pub fn selector_bits(&self) -> u16 {
        let n = self.size().max(1);
        (usize::BITS - (n - 1).leading_zeros()).max(1) as u16
    }
}

/// Well-known special register roles a machine may designate.
///
/// The simulator and several passes need to find "the MAR", "the flags
/// register", etc. without string matching; machines record them here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpecialRegs {
    /// Memory address register.
    pub mar: Option<RegRef>,
    /// Memory buffer (data) register.
    pub mbr: Option<RegRef>,
    /// Condition flags pseudo-register (Z, N, C, V, UF packed as bits).
    pub flags: Option<RegRef>,
    /// Accumulator, when the machine has a distinguished one.
    pub acc: Option<RegRef>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_membership_and_encoding() {
        let c = RegClass::from_ranges("mix", vec![(FileId(0), 0, 4), (FileId(1), 2, 2)]);
        assert_eq!(c.size(), 6);
        assert!(c.contains(RegRef::new(FileId(0), 3)));
        assert!(!c.contains(RegRef::new(FileId(0), 4)));
        assert!(c.contains(RegRef::new(FileId(1), 2)));
        assert!(!c.contains(RegRef::new(FileId(1), 1)));

        // Canonical encodings walk the ranges in order.
        assert_eq!(c.encoding_of(RegRef::new(FileId(0), 0)), Some(0));
        assert_eq!(c.encoding_of(RegRef::new(FileId(1), 2)), Some(4));
        assert_eq!(c.member_at(5), Some(RegRef::new(FileId(1), 3)));
        assert_eq!(c.member_at(6), None);
    }

    #[test]
    fn selector_bits_rounds_up() {
        let c1 = RegClass::whole_file("r16", FileId(0), 16);
        assert_eq!(c1.selector_bits(), 4);
        let c2 = RegClass::whole_file("r17", FileId(0), 17);
        assert_eq!(c2.selector_bits(), 5);
        let c3 = RegClass::from_ranges("one", vec![(FileId(0), 0, 1)]);
        assert_eq!(c3.selector_bits(), 1);
    }

    #[test]
    fn whole_file_and_singleton() {
        let f = RegClass::whole_file("gp", FileId(2), 8);
        assert_eq!(f.size(), 8);
        assert!(f.contains(RegRef::new(FileId(2), 7)));
        let s = RegClass::from_ranges("acc", vec![(FileId(3), 0, 1)]);
        assert_eq!(s.size(), 1);
        assert_eq!(s.encoding_of(RegRef::new(FileId(3), 0)), Some(0));
    }

    #[test]
    fn display_of_regref() {
        assert_eq!(RegRef::new(FileId(1), 9).to_string(), "f1:9");
    }
}

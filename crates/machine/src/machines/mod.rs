//! The reference machine descriptions.
//!
//! | Machine | Plays the role of | Character |
//! |---|---|---|
//! | [`hm1`] | Tucker–Flynn processor / HP300 | clean horizontal, 5 units |
//! | [`vm1`] | Burroughs B1700 class | vertical, 1 op per instruction |
//! | [`bx2`] | VAX-11 microarchitecture | baroque: shared bus, shared fields |
//! | [`wm64`] | Control Data 480 class | wide: 256 registers, two ALUs |
//!
//! All four expose the same abstract [`Semantic`](crate::Semantic) space, so
//! the same IR compiles to each — with very different results, which is the
//! point of experiments E2–E4.

mod bx2;
mod hm1;
mod vm1;
mod wm64;

pub use bx2::bx2;
pub use hm1::hm1;
pub use vm1::vm1;
pub use wm64::wm64;

use crate::machine::MachineDesc;

/// The reference machines' constructors, in canonical order: the
/// order of [`all`] and the indices [`index_of`] returns.
const BUILD: [fn() -> MachineDesc; 4] = [hm1, vm1, bx2, wm64];

/// Every accepted name of each reference machine, lowercase, in
/// [`BUILD`] order.
const NAMES: [[&str; 3]; 4] = [
    ["hm-1", "hm1", "horizon"],
    ["vm-1", "vm1", "vertica"],
    ["bx-2", "bx2", "baroque"],
    ["wm-64", "wm64", "wide"],
];

/// All reference machines, in a canonical order.
pub fn all() -> Vec<MachineDesc> {
    BUILD.iter().map(|build| build()).collect()
}

/// The index in [`all`] of the machine a name denotes (case-insensitive),
/// found without building the description or allocating — the lookup
/// behind [`by_name`] and behind tables indexed by machine.
pub fn index_of(name: &str) -> Option<usize> {
    NAMES
        .iter()
        .position(|names| names.iter().any(|n| n.eq_ignore_ascii_case(name)))
}

/// Builds the machine at `index` in [`all`].
pub fn by_index(index: usize) -> Option<MachineDesc> {
    BUILD.get(index).map(|build| build())
}

/// Looks a reference machine up by name (case-insensitive).
pub fn by_name(name: &str) -> Option<MachineDesc> {
    by_index(index_of(name)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_reference_machines_validate() {
        for m in all() {
            m.validate().unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(by_name("hm-1").unwrap().name, "HM-1");
        assert_eq!(by_name("VERTICA").unwrap().name, "VM-1");
        assert_eq!(by_name("bx2").unwrap().name, "BX-2");
        assert_eq!(by_name("wide").unwrap().name, "WM-64");
        assert!(by_name("pdp-11").is_none());
        let all = all();
        for name in ["hm-1", "HM1", "horizon", "vm1", "vertica", "bx-2", "Baroque", "wm64", "WIDE"] {
            let i = index_of(name).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(by_name(name).unwrap().name, all[i].name, "{name}");
        }
        assert_eq!(index_of("pdp-11"), None);
        assert!(by_index(all.len()).is_none());
    }

    #[test]
    fn horizontal_machines_have_wider_words_than_vertical() {
        let h = hm1().control_word_bits();
        let v = vm1().control_word_bits();
        assert!(
            h > 2 * v,
            "HM-1 ({h} bits) should dwarf VM-1 ({v} bits)"
        );
    }

    #[test]
    fn every_template_has_a_nonzero_selector() {
        // Decoding relies on "all fields zero" meaning idle.
        for m in all() {
            for t in &m.templates {
                let has = t.fields.iter().any(|f| {
                    matches!(f.value, crate::template::FieldValueSrc::Const(v) if v != 0)
                });
                assert!(has, "{}: template `{}` lacks a nonzero selector", m.name, t.name);
            }
        }
    }

    #[test]
    fn machines_declare_special_registers() {
        for m in all() {
            assert!(m.special.mar.is_some(), "{} lacks MAR", m.name);
            assert!(m.special.mbr.is_some(), "{} lacks MBR", m.name);
            assert!(m.special.flags.is_some(), "{} lacks flags", m.name);
        }
    }
}

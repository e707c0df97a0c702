//! The control word format: named bit fields of a horizontal control word.
//!
//! A horizontal microinstruction is, physically, one wide word whose bit
//! fields directly drive datapath selectors. Two micro-operations that want
//! to drive the same field with different values cannot live in the same
//! microinstruction — this is DeWitt's control-word conflict model, and it
//! is one half of the conflict oracle in
//! [`MachineDesc::conflicts`](crate::MachineDesc::conflicts).

use crate::ids::FieldId;

/// One named bit field of the control word.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ControlField {
    /// Field name, e.g. `"alu_op"` or `"next_addr"`.
    pub name: String,
    /// Bit offset of the least significant bit of the field within the word.
    pub offset: u16,
    /// Width of the field in bits (1..=64).
    pub width: u16,
}

impl ControlField {
    /// Creates a field. Offsets are assigned by
    /// [`ControlWordFormat::push`]; use that in preference to filling
    /// `offset` by hand.
    pub fn new(name: impl Into<String>, offset: u16, width: u16) -> Self {
        ControlField {
            name: name.into(),
            offset,
            width,
        }
    }

    /// Largest value representable in this field.
    pub fn max_value(&self) -> u64 {
        if self.width >= 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }
}

/// The complete control word format of a machine: an ordered list of
/// non-overlapping fields.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ControlWordFormat {
    fields: Vec<ControlField>,
}

impl ControlWordFormat {
    /// Creates an empty format.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a field of `width` bits immediately after the previous field
    /// and returns its id.
    pub fn push(&mut self, name: impl Into<String>, width: u16) -> FieldId {
        let offset = self.total_bits();
        let id = FieldId(self.fields.len() as u16);
        self.fields.push(ControlField::new(name, offset, width));
        id
    }

    /// Total number of bits of the control word.
    pub fn total_bits(&self) -> u16 {
        self.fields.iter().map(|f| f.width).sum()
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the format has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Looks a field up by id.
    pub fn get(&self, id: FieldId) -> Option<&ControlField> {
        self.fields.get(id.index())
    }

    /// Finds a field id by name.
    pub fn find(&self, name: &str) -> Option<FieldId> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .map(|i| FieldId(i as u16))
    }

    /// Iterates over `(id, field)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FieldId, &ControlField)> {
        self.fields
            .iter()
            .enumerate()
            .map(|(i, f)| (FieldId(i as u16), f))
    }

    /// Checks structural validity: unique names, no overlapping bit ranges,
    /// nonzero widths.
    pub fn validate(&self) -> Result<(), String> {
        let mut names = std::collections::HashSet::new();
        for f in &self.fields {
            if f.width == 0 {
                return Err(format!("field `{}` has zero width", f.name));
            }
            if f.width > 64 {
                return Err(format!("field `{}` is wider than 64 bits", f.name));
            }
            if !names.insert(f.name.as_str()) {
                return Err(format!("duplicate field name `{}`", f.name));
            }
        }
        let mut sorted: Vec<_> = self.fields.iter().collect();
        sorted.sort_by_key(|f| f.offset);
        for w in sorted.windows(2) {
            if w[0].offset + w[0].width > w[1].offset {
                return Err(format!(
                    "fields `{}` and `{}` overlap",
                    w[0].name, w[1].name
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fmt3() -> ControlWordFormat {
        let mut f = ControlWordFormat::new();
        f.push("alu_op", 4);
        f.push("alu_left", 5);
        f.push("next_addr", 12);
        f
    }

    #[test]
    fn push_assigns_consecutive_offsets() {
        let f = fmt3();
        assert_eq!(f.total_bits(), 21);
        assert_eq!(f.get(FieldId(0)).unwrap().offset, 0);
        assert_eq!(f.get(FieldId(1)).unwrap().offset, 4);
        assert_eq!(f.get(FieldId(2)).unwrap().offset, 9);
        assert!(f.validate().is_ok());
    }

    #[test]
    fn find_by_name() {
        let f = fmt3();
        assert_eq!(f.find("alu_left"), Some(FieldId(1)));
        assert_eq!(f.find("nope"), None);
    }

    #[test]
    fn max_value_fills_the_width() {
        let f = ControlField::new("x", 3, 4);
        assert_eq!(f.max_value(), 15);
    }

    #[test]
    fn validate_rejects_duplicates_and_overlap() {
        let mut f = ControlWordFormat::new();
        f.push("a", 4);
        f.push("a", 4);
        assert!(f.validate().is_err());

        let mut g = ControlWordFormat::new();
        g.push("a", 4);
        // Hand-craft an overlapping field.
        g.fields.push(ControlField::new("b", 2, 4));
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_width() {
        let mut f = ControlWordFormat::new();
        f.push("z", 0);
        assert!(f.validate().is_err());
    }
}

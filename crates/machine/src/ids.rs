//! Typed indices into the tables of a [`MachineDesc`](crate::MachineDesc).
//!
//! Every table in a machine description (control fields, register files,
//! register classes, resources, micro-operation templates) is indexed by its
//! own newtype id so that the indices cannot be confused with one another
//! (C-NEWTYPE).

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub u16);

        impl $name {
            /// Returns the raw table index.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl From<u16> for $name {
            fn from(v: u16) -> Self {
                $name(v)
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), "({})"), self.0)
            }
        }
    };
}

id_type!(
    /// Index of a control word field.
    FieldId
);
id_type!(
    /// Index of a register file.
    FileId
);
id_type!(
    /// Index of a register class.
    ClassId
);
id_type!(
    /// Index of a hardware resource (functional unit, bus, port).
    ResourceId
);
id_type!(
    /// Index of a micro-operation template.
    TemplateId
);
id_type!(
    /// Index of a testable machine condition.
    CondId
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_distinct_types_with_indices() {
        let f = FieldId(3);
        assert_eq!(f.index(), 3);
        assert_eq!(FieldId::from(3u16), f);
        assert_eq!(format!("{f}"), "FieldId(3)");
    }

    #[test]
    fn ids_order_and_hash() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(TemplateId(1));
        s.insert(TemplateId(1));
        s.insert(TemplateId(2));
        assert_eq!(s.len(), 2);
        assert!(TemplateId(1) < TemplateId(2));
    }
}

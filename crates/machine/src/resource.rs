//! Hardware resources (functional units, buses, ports) and their
//! per-phase occupancy.
//!
//! Sint's §2.1.4 names *resource dependence* — "statements S1 and S2 cannot
//! be executed in parallel if their resource usage may lead to conflicts" —
//! as one of the two dependences a compacting compiler must honour. Tokoro
//! et al. refined this with a model in which each micro-operation occupies
//! resources only during certain *phases* of the microcycle; two operations
//! sharing a resource can still be packed together when their occupancies
//! are phase-disjoint.

use crate::ids::ResourceId;

/// The broad kind of a hardware resource, used for reporting only (the
/// conflict model treats all resources uniformly).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResourceKind {
    /// An arithmetic/logic unit.
    Alu,
    /// A barrel or serial shifter.
    Shifter,
    /// The main memory interface.
    Memory,
    /// The microinstruction sequencer.
    Sequencer,
    /// A data bus.
    Bus,
    /// A register file read/write port.
    Port,
    /// Anything else.
    Other,
}

impl std::fmt::Display for ResourceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ResourceKind::Alu => "alu",
            ResourceKind::Shifter => "shifter",
            ResourceKind::Memory => "memory",
            ResourceKind::Sequencer => "sequencer",
            ResourceKind::Bus => "bus",
            ResourceKind::Port => "port",
            ResourceKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// One hardware resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// Resource name, e.g. `"alu0"` or `"main_bus"`.
    pub name: String,
    /// Kind, for diagnostics.
    pub kind: ResourceKind,
}

impl Resource {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, kind: ResourceKind) -> Self {
        Resource {
            name: name.into(),
            kind,
        }
    }
}

/// Occupancy of one resource over a half-open phase interval
/// `[from_phase, to_phase)` of the microcycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ResourceUse {
    /// Which resource.
    pub resource: ResourceId,
    /// First phase occupied.
    pub from_phase: u8,
    /// One past the last phase occupied.
    pub to_phase: u8,
}

impl ResourceUse {
    /// Occupancy of `resource` during `[from, to)`.
    pub fn phases(resource: ResourceId, from: u8, to: u8) -> Self {
        debug_assert!(from < to, "empty occupancy interval");
        ResourceUse {
            resource,
            from_phase: from,
            to_phase: to,
        }
    }

    /// Occupancy of `resource` for the whole microcycle of a machine with
    /// `phases` phases.
    pub fn whole(resource: ResourceId, phases: u8) -> Self {
        Self::phases(resource, 0, phases)
    }

    /// Whether two uses conflict under the *fine* (phase-aware) model:
    /// same resource and overlapping phase intervals.
    pub fn overlaps(&self, other: &ResourceUse) -> bool {
        self.resource == other.resource
            && self.from_phase < other.to_phase
            && other.from_phase < self.to_phase
    }

    /// Whether two uses conflict under the *coarse* model: same resource,
    /// regardless of phases.
    pub fn same_resource(&self, other: &ResourceUse) -> bool {
        self.resource == other.resource
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlap_is_half_open() {
        let r = ResourceId(0);
        let a = ResourceUse::phases(r, 0, 2);
        let b = ResourceUse::phases(r, 2, 3);
        let c = ResourceUse::phases(r, 1, 3);
        assert!(!a.overlaps(&b), "touching intervals do not overlap");
        assert!(a.overlaps(&c));
        assert!(a.same_resource(&b));
    }

    #[test]
    fn different_resources_never_overlap() {
        let a = ResourceUse::phases(ResourceId(0), 0, 3);
        let b = ResourceUse::phases(ResourceId(1), 0, 3);
        assert!(!a.overlaps(&b));
        assert!(!a.same_resource(&b));
    }

    #[test]
    fn whole_covers_all_phases() {
        let u = ResourceUse::whole(ResourceId(2), 3);
        assert_eq!((u.from_phase, u.to_phase), (0, 3));
    }
}

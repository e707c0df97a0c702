//! # `mcc-machine` — the microarchitecture substrate
//!
//! This crate models *horizontal microprogrammable machines* in the sense of
//! Sint's 1980 survey of high level microprogramming languages: a machine is
//! a fixed **control word format** (a set of bit fields), a set of
//! **register files** (deliberately non-homogeneous: different operations
//! accept different register classes), a set of **functional units and
//! buses** (resources occupied during specific phases of the microcycle),
//! and a set of **micro-operation templates** describing which field
//! settings, operand classes and resource occupancies realise each abstract
//! operation.
//!
//! The conflict model combines DeWitt's control-word model (two
//! micro-operations conflict when they drive the same control field) with
//! Tokoro's resource-occupancy model (two micro-operations conflict when
//! their unit/bus occupancies overlap in time). Both a coarse, whole-cycle
//! variant and a fine, per-phase variant are provided — the difference is
//! the subject of experiment E2.
//!
//! Four reference machines are included (see [`machines`]):
//!
//! * [`machines::hm1`] — **HM-1 "Horizon"**, a clean horizontal machine
//!   (stands in for the Tucker–Flynn processor / HP300 of the paper),
//! * [`machines::vm1`] — **VM-1 "Vertica"**, a vertical machine (one
//!   micro-operation per microinstruction, Burroughs B1700 class),
//! * [`machines::bx2`] — **BX-2 "Baroque"**, an irregular shared-bus machine
//!   (stands in for the VAX-11 microarchitecture),
//! * [`machines::wm64`] — **WM-64 "Wide"**, a very wide machine with 256
//!   microregisters and two ALUs (Control Data 480 class).
//!
//! Machines can also be described textually in **MDL**, a small machine
//! description language in the spirit of MPGL's machine specification
//! (see [`mdl`]).
//!
//! ```
//! use mcc_machine::machines::hm1;
//!
//! let m = hm1();
//! assert!(m.validate().is_ok());
//! assert!(m.control_word_bits() > 32, "HM-1 is horizontal: a wide word");
//! ```

pub mod encode;
pub mod field;
pub mod ids;
pub mod machine;
pub mod machines;
pub mod mdl;
pub mod op;
pub mod pretty;
pub mod regs;
pub mod resource;
pub mod semantic;
pub mod srclist;
pub mod template;

pub use encode::{
    decode_checked, decode_instr, ecc_of, ecc_syndrome, encode_instr, encode_program,
    encode_program_ecc, DecodeError, EncodeError,
};
pub use field::{ControlField, ControlWordFormat};
pub use ids::{ClassId, CondId, FieldId, FileId, ResourceId, TemplateId};
pub use machine::{ConflictModel, MachineDesc, MachineError};
pub use op::{BoundOp, MicroInstr, MicroProgram};
pub use pretty::{format_instr, format_op, format_program};
pub use regs::{RegClass, RegRef, RegisterFile};
pub use resource::{Resource, ResourceKind, ResourceUse};
pub use semantic::{AluOp, CondKind, Semantic, ShiftOp};
pub use srclist::{SrcList, MAX_SRCS};
pub use template::{FieldSetting, FieldValueSrc, MicroOpTemplate, SrcSpec};

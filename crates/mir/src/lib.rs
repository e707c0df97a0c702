//! # `mcc-mir` — the machine-independent micro-IR
//!
//! Every frontend in the toolkit (SIMPL, EMPL, S\*, YALLL) lowers to this
//! IR: a control-flow graph of basic blocks holding abstract micro-operations
//! over *operands* that are either virtual registers (symbolic variables,
//! §2.1.3 of Sint's survey) or physical machine registers (the
//! "variables are machine registers" view most surveyed languages take).
//!
//! The crate provides:
//!
//! * the IR itself ([`MirFunction`], [`MirBlock`], [`MirOp`], [`Term`]),
//! * a [`FuncBuilder`] for frontends,
//! * liveness analysis, as sparse bitsets over a per-function numbering
//!   of the operands ([`liveness`]),
//! * the data-dependence DAG over selected operations ([`dep`]) — flow,
//!   anti and output dependences exactly as §2.1.4 defines them,
//! * instruction selection ([`select`]): matching abstract operations
//!   against machine templates, *expanding* what the machine lacks
//!   (wide constants, long shifts, memory access through MAR/MBR).

pub mod build;
pub mod dep;
pub mod func;
pub mod legalize;
pub mod liveness;
pub mod op;
pub mod operand;
pub mod select;

pub use build::FuncBuilder;
pub use legalize::{legalize, LegalizeError};
pub use dep::{DepEdge, DepGraph, DepKind};
pub use func::{BlockId, MirBlock, MirFunction, Term};
pub use liveness::{Bits, Liveness, Numbering, OperandSet};
pub use op::MirOp;
pub use operand::{Operand, RegOrImm, VReg};
pub use select::{
    select_function, SelectError, SelectedBlock, SelectedFunction, SelectedOp, SelectedTerm,
};

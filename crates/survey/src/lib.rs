//! # `mcc-survey` — the survey itself, as data
//!
//! Sint's paper closes with a set of quantitative observations about the
//! ten languages it reviews ("from the ten languages reviewed …, eight
//! allow complete sequential specification while only two leave
//! composition of microinstructions to the programmer…"). This crate
//! encodes the ten languages against the paper's §2.1 design issues, so
//! those observations become *checkable assertions* and the comparison
//! matrix becomes a generated artifact (experiment E8).

/// How a language treats primitive operations (§2.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrimitiveStyle {
    /// A fixed machine-independent set (SIMPL, YALLL).
    FixedSet,
    /// A small base set plus user-declared operators (EMPL).
    Extensible,
    /// The micro-operations of the target machine (S\*, MPGL, Strum).
    MachineOps,
}

/// How variables relate to machine registers (§2.1.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariableView {
    /// Each variable *is* a specific machine register.
    Registers,
    /// Symbolic variables allocated by the compiler.
    Symbolic,
    /// Mixed or partially bound (YALLL's optional binding).
    Mixed,
}

/// Who composes microinstructions (§2.1.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parallelism {
    /// Fully sequential source; the compiler packs.
    CompilerImplicit,
    /// The programmer writes the microinstructions (S\*, CHAMIL).
    ProgrammerExplicit,
}

/// Implementation status as reported by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ImplStatus {
    /// A working compiler existed.
    Implemented,
    /// Partially implemented (one pass, or a fragment).
    Partial,
    /// Paper design only.
    DesignOnly,
}

/// One surveyed language, scored on the §2.1 design issues.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Language {
    /// Name as the survey gives it.
    pub name: &'static str,
    /// Publication year.
    pub year: u16,
    /// Reference number(s) in the paper's bibliography.
    pub reference: &'static str,
    /// §2.1.2 — primitive operations.
    pub primitives: PrimitiveStyle,
    /// §2.1.3 — variables vs registers.
    pub variables: VariableView,
    /// §2.1.4 — who composes microinstructions.
    pub parallelism: Parallelism,
    /// §2.1.5 — interrupt/trap handling addressed at all.
    pub handles_interrupts: bool,
    /// §2.1.6 — procedures with parameter passing.
    pub parameter_passing: bool,
    /// §2.1.6 — multiway branch / case construct.
    pub multiway_branch: bool,
    /// §2.1.7 — data structuring beyond one scalar type.
    pub data_structures: bool,
    /// §2.1.1 — verification support (assertions/proofs).
    pub verification: bool,
    /// §2.1.8 — implementation status.
    pub status: ImplStatus,
    /// Whether this toolkit implements a frontend for it.
    pub in_toolkit: bool,
}

/// The ten languages of the survey, in its order of presentation.
pub fn languages() -> Vec<Language> {
    vec![
        Language {
            name: "SIMPL",
            year: 1974,
            reference: "[18]",
            primitives: PrimitiveStyle::FixedSet,
            variables: VariableView::Registers,
            parallelism: Parallelism::CompilerImplicit,
            handles_interrupts: false,
            parameter_passing: false,
            multiway_branch: true, // case construct
            data_structures: false,
            verification: false,
            status: ImplStatus::Implemented,
            in_toolkit: true,
        },
        Language {
            name: "EMPL",
            year: 1976,
            reference: "[8]",
            primitives: PrimitiveStyle::Extensible,
            variables: VariableView::Symbolic,
            parallelism: Parallelism::CompilerImplicit,
            handles_interrupts: false,
            parameter_passing: false, // operators take params but are inlined; procedures do not
            multiway_branch: false,   // the paper criticises the lack of case
            data_structures: true,    // extension statements
            verification: false,
            status: ImplStatus::Partial,
            in_toolkit: true,
        },
        Language {
            name: "S*",
            year: 1978,
            reference: "[4]",
            primitives: PrimitiveStyle::MachineOps,
            variables: VariableView::Registers,
            parallelism: Parallelism::ProgrammerExplicit,
            handles_interrupts: false,
            parameter_passing: false,
            multiway_branch: false,
            data_structures: true, // seq/array/tuple/stack
            verification: true,    // pre/postconditions
            status: ImplStatus::DesignOnly,
            in_toolkit: true,
        },
        Language {
            name: "YALLL",
            year: 1979,
            reference: "[16]",
            primitives: PrimitiveStyle::FixedSet,
            variables: VariableView::Mixed,
            parallelism: Parallelism::CompilerImplicit,
            handles_interrupts: false,
            parameter_passing: false,
            multiway_branch: true, // masked multiway branch facility
            data_structures: false,
            verification: false,
            status: ImplStatus::Implemented, // on two machines!
            in_toolkit: true,
        },
        Language {
            name: "MPL",
            year: 1971,
            reference: "[10]",
            primitives: PrimitiveStyle::FixedSet,
            variables: VariableView::Registers,
            parallelism: Parallelism::CompilerImplicit,
            handles_interrupts: false,
            parameter_passing: false,
            multiway_branch: false,
            data_structures: true, // 1-D arrays, concatenated registers
            verification: false,
            status: ImplStatus::Partial,
            in_toolkit: false,
        },
        Language {
            name: "Strum",
            year: 1976,
            reference: "[17]",
            primitives: PrimitiveStyle::MachineOps,
            variables: VariableView::Registers,
            parallelism: Parallelism::CompilerImplicit,
            handles_interrupts: false,
            parameter_passing: false,
            multiway_branch: false,
            data_structures: false,
            verification: true, // assertions + automatic verifier
            status: ImplStatus::Implemented,
            in_toolkit: false, // covered by mcc-verify machinery
        },
        Language {
            name: "MPGL",
            year: 1977,
            reference: "[1]",
            primitives: PrimitiveStyle::MachineOps,
            variables: VariableView::Registers,
            parallelism: Parallelism::CompilerImplicit,
            handles_interrupts: false,
            parameter_passing: false,
            multiway_branch: false,
            data_structures: false,
            verification: false,
            status: ImplStatus::Implemented,
            in_toolkit: false, // its machine-spec idea lives on as MDL
        },
        Language {
            name: "Malik-Lewis",
            year: 1978,
            reference: "[14]",
            primitives: PrimitiveStyle::Extensible,
            variables: VariableView::Registers, // declares the *emulated* machine's registers
            parallelism: Parallelism::CompilerImplicit,
            handles_interrupts: false,
            parameter_passing: false,
            multiway_branch: false,
            data_structures: true, // declared registers/stacks of emulated machine
            verification: false,
            status: ImplStatus::DesignOnly,
            in_toolkit: false,
        },
        Language {
            name: "CHAMIL",
            year: 1980,
            reference: "[23]",
            primitives: PrimitiveStyle::MachineOps,
            variables: VariableView::Registers,
            parallelism: Parallelism::ProgrammerExplicit,
            handles_interrupts: false,
            parameter_passing: false,
            multiway_branch: false,
            data_structures: true,
            verification: false,
            status: ImplStatus::Implemented,
            in_toolkit: false,
        },
        Language {
            name: "PL/MP",
            year: 1978,
            reference: "[20,12]",
            primitives: PrimitiveStyle::FixedSet,
            variables: VariableView::Symbolic,
            parallelism: Parallelism::CompilerImplicit,
            handles_interrupts: false,
            parameter_passing: false,
            multiway_branch: false,
            data_structures: false, // too little information, per the paper
            verification: false,
            status: ImplStatus::Partial,
            in_toolkit: false,
        },
    ]
}

/// The §3 summary statistics the paper states in prose.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SurveyStats {
    /// Languages allowing fully sequential specification.
    pub sequential: usize,
    /// Languages leaving composition to the programmer.
    pub explicit_composition: usize,
    /// Languages with symbolic (or partially symbolic) variables.
    pub symbolic_variables: usize,
    /// Languages supporting parameter passing to subroutines.
    pub parameter_passing: usize,
    /// Languages addressing interrupt/trap handling.
    pub interrupts: usize,
    /// Total languages surveyed.
    pub total: usize,
}

/// Computes the summary statistics from the encoded languages.
pub fn stats() -> SurveyStats {
    let ls = languages();
    SurveyStats {
        sequential: ls
            .iter()
            .filter(|l| l.parallelism == Parallelism::CompilerImplicit)
            .count(),
        explicit_composition: ls
            .iter()
            .filter(|l| l.parallelism == Parallelism::ProgrammerExplicit)
            .count(),
        symbolic_variables: ls
            .iter()
            .filter(|l| matches!(l.variables, VariableView::Symbolic | VariableView::Mixed))
            .count(),
        parameter_passing: ls.iter().filter(|l| l.parameter_passing).count(),
        interrupts: ls.iter().filter(|l| l.handles_interrupts).count(),
        total: ls.len(),
    }
}

/// Renders the feature matrix as an aligned text table (experiment E8's
/// artifact).
pub fn feature_matrix() -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<5} {:<7} {:<11} {:<9} {:<9} {:<6} {:<7} {:<7} {:<7} {:<12}",
        "language",
        "year",
        "ref",
        "primitives",
        "vars",
        "compose",
        "case",
        "structs",
        "verify",
        "params",
        "status"
    );
    let _ = writeln!(out, "{}", "-".repeat(100));
    for l in languages() {
        let prim = match l.primitives {
            PrimitiveStyle::FixedSet => "fixed",
            PrimitiveStyle::Extensible => "extensible",
            PrimitiveStyle::MachineOps => "machine",
        };
        let vars = match l.variables {
            VariableView::Registers => "regs",
            VariableView::Symbolic => "symbolic",
            VariableView::Mixed => "mixed",
        };
        let par = match l.parallelism {
            Parallelism::CompilerImplicit => "compiler",
            Parallelism::ProgrammerExplicit => "explicit",
        };
        let status = match l.status {
            ImplStatus::Implemented => "implemented",
            ImplStatus::Partial => "partial",
            ImplStatus::DesignOnly => "design-only",
        };
        let yn = |b: bool| if b { "yes" } else { "-" };
        let _ = writeln!(
            out,
            "{:<12} {:<5} {:<7} {:<11} {:<9} {:<9} {:<6} {:<7} {:<7} {:<7} {:<12}",
            l.name,
            l.year,
            l.reference,
            prim,
            vars,
            par,
            yn(l.multiway_branch),
            yn(l.data_structures),
            yn(l.verification),
            yn(l.parameter_passing),
            status
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper, §3: "From the ten languages reviewed in the previous
    /// paragraphs, eight allow complete sequential specification while
    /// only two (S* and CHAMIL) leave composition of microinstructions to
    /// the programmer."
    #[test]
    fn eight_sequential_two_explicit() {
        let s = stats();
        assert_eq!(s.total, 10);
        assert_eq!(s.sequential, 8);
        assert_eq!(s.explicit_composition, 2);
        let explicit: Vec<&str> = languages()
            .into_iter()
            .filter(|l| l.parallelism == Parallelism::ProgrammerExplicit)
            .map(|l| l.name)
            .collect();
        assert_eq!(explicit, vec!["S*", "CHAMIL"]);
    }

    /// "only two or three (EMPL, PL/MP and in a certain sense YALLL) allow
    /// the programmer to work with symbolic variables instead of physical
    /// registers."
    #[test]
    fn two_or_three_symbolic() {
        let s = stats();
        assert_eq!(s.symbolic_variables, 3);
        let symbolic: Vec<&str> = languages()
            .into_iter()
            .filter(|l| matches!(l.variables, VariableView::Symbolic | VariableView::Mixed))
            .map(|l| l.name)
            .collect();
        assert_eq!(symbolic, vec!["EMPL", "YALLL", "PL/MP"]);
    }

    /// "No language supports the passing of parameters to subroutines."
    #[test]
    fn no_parameter_passing() {
        assert_eq!(stats().parameter_passing, 0);
    }

    /// "Another substantial problem, the incorporation of interrupt and
    /// trap handling, has even been completely neglected."
    #[test]
    fn interrupts_completely_neglected() {
        assert_eq!(stats().interrupts, 0);
    }

    /// The toolkit implements the four principal languages.
    #[test]
    fn four_frontends_in_toolkit() {
        let n = languages().iter().filter(|l| l.in_toolkit).count();
        assert_eq!(n, 4);
    }

    #[test]
    fn matrix_lists_all_languages() {
        let m = feature_matrix();
        for l in languages() {
            assert!(m.contains(l.name), "matrix missing {}", l.name);
        }
        assert!(m.lines().count() >= 12);
    }

    #[test]
    fn verification_languages() {
        let v: Vec<&str> = languages()
            .into_iter()
            .filter(|l| l.verification)
            .map(|l| l.name)
            .collect();
        assert_eq!(v, vec!["S*", "Strum"]);
    }
}

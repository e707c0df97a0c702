//! Property-based tests over the pipeline's core invariants (proptest).

use proptest::prelude::*;

use mcc::compact::{compact_degrading, Algorithm, BB_DEFAULT_BUDGET};
use mcc::core::{Compiler, CompilerOptions};
use mcc::machine::machines::{bx2, hm1, vm1, wm64};
use mcc::machine::{AluOp, ConflictModel, MachineDesc, RegRef, ShiftOp};
use mcc::mir::select::select_op;
use mcc::mir::{FuncBuilder, Operand, Term};

/// A randomly generated straight-line operation over registers R0..R7.
#[derive(Debug, Clone)]
enum GenOp {
    Ldi { d: u16, v: u16 },
    Mov { d: u16, s: u16 },
    Alu { op: u8, d: u16, a: u16, b: u16 },
    AluImm { op: u8, d: u16, a: u16, v: u16 },
    Shift { op: u8, d: u16, a: u16, n: u8 },
}

fn alu_of(code: u8) -> AluOp {
    match code % 7 {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::And,
        3 => AluOp::Or,
        4 => AluOp::Xor,
        5 => AluOp::Inc,
        _ => AluOp::Not,
    }
}

fn shift_of(code: u8) -> ShiftOp {
    match code % 5 {
        0 => ShiftOp::Shl,
        1 => ShiftOp::Shr,
        2 => ShiftOp::Sar,
        3 => ShiftOp::Rol,
        _ => ShiftOp::Ror,
    }
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (0u16..8, any::<u16>()).prop_map(|(d, v)| GenOp::Ldi { d, v }),
        (0u16..8, 0u16..8).prop_map(|(d, s)| GenOp::Mov { d, s }),
        (any::<u8>(), 0u16..8, 0u16..8, 0u16..8)
            .prop_map(|(op, d, a, b)| GenOp::Alu { op, d, a, b }),
        (any::<u8>(), 0u16..8, 0u16..8, any::<u16>())
            .prop_map(|(op, d, a, v)| GenOp::AluImm { op, d, a, v }),
        (any::<u8>(), 0u16..8, 0u16..8, 0u8..15)
            .prop_map(|(op, d, a, n)| GenOp::Shift { op, d, a, n }),
    ]
}

fn build(m: &MachineDesc, ops: &[GenOp]) -> mcc::mir::MirFunction {
    let file = m.find_file("R").unwrap();
    let r = |i: u16| Operand::Reg(RegRef::new(file, i));
    let mut b = FuncBuilder::new("prop");
    for op in ops {
        match *op {
            GenOp::Ldi { d, v } => b.ldi(r(d), v as u64),
            GenOp::Mov { d, s } => b.mov(r(d), r(s)),
            GenOp::Alu { op, d, a, b: bb } => {
                let op = alu_of(op);
                if op.is_unary() {
                    b.alu_un(op, r(d), r(a));
                } else {
                    b.alu(op, r(d), r(a), r(bb));
                }
            }
            GenOp::AluImm { op, d, a, v } => {
                let op = alu_of(op);
                if op.is_unary() {
                    b.alu_un(op, r(d), r(a));
                } else {
                    b.alu_imm(op, r(d), r(a), v as u64);
                }
            }
            GenOp::Shift { op, d, a, n } => b.shift(shift_of(op), r(d), r(a), n as u64),
        }
    }
    // The harness seeds and reads R0..R7 externally: they are observable,
    // so compiler temporaries must not be allocated over them.
    for i in 0..8 {
        b.mark_live_out(r(i));
    }
    b.terminate(Term::Halt);
    b.finish()
}

fn run_regs(m: &MachineDesc, f: mcc::mir::MirFunction, algo: Algorithm, model: ConflictModel) -> Vec<u64> {
    let opts = CompilerOptions {
        algorithm: algo,
        model,
        ..Default::default()
    };
    let art = Compiler::with_options(m.clone(), opts).compile_mir(f).unwrap();
    let mut sim = art.simulator();
    let file = m.find_file("R").unwrap();
    for i in 0..8 {
        sim.set_reg(RegRef::new(file, i), 0x1111u64.wrapping_mul(i as u64 + 1) & 0xFFFF);
    }
    sim.run(&Default::default()).unwrap();
    (0..8).map(|i| sim.reg(RegRef::new(file, i))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every compaction algorithm, under both conflict models, preserves
    /// the architectural semantics of a random straight-line block.
    #[test]
    fn compaction_preserves_semantics(ops in proptest::collection::vec(gen_op(), 1..14)) {
        let m = hm1();
        let reference = run_regs(&m, build(&m, &ops), Algorithm::Linear, ConflictModel::Coarse);
        for algo in Algorithm::ALL {
            for model in [ConflictModel::Coarse, ConflictModel::Fine] {
                let got = run_regs(&m, build(&m, &ops), algo, model);
                prop_assert_eq!(&got, &reference, "{} / {:?}", algo.name(), model);
            }
        }
    }

    /// The same programs run identically on the vertical machine (one op
    /// per instruction): machine choice must not change semantics.
    #[test]
    fn machines_agree_on_semantics(ops in proptest::collection::vec(gen_op(), 1..10)) {
        let h = run_regs(&hm1(), build(&hm1(), &ops), Algorithm::CriticalPath, ConflictModel::Fine);
        let v = run_regs(&vm1(), build(&vm1(), &ops), Algorithm::CriticalPath, ConflictModel::Fine);
        prop_assert_eq!(h, v);
    }

    /// Compaction never emits more instructions than operations, and the
    /// optimal schedule is at most as long as every heuristic's.
    #[test]
    fn optimal_is_a_lower_bound(ops in proptest::collection::vec(gen_op(), 1..10)) {
        let m = hm1();
        let f = build(&m, &ops);
        let mut f2 = f.clone();
        mcc::mir::legalize(&m, &mut f2).unwrap();
        let sel: Vec<_> = f2.blocks[0]
            .ops
            .iter()
            .map(|o| select_op(&m, o).unwrap())
            .collect();
        let len = |algo| {
            compact_degrading(&m, &sel, algo, ConflictModel::Fine, BB_DEFAULT_BUDGET)
                .compaction
                .len()
        };
        let best = len(Algorithm::BranchBound);
        for algo in [Algorithm::Linear, Algorithm::CriticalPath, Algorithm::LevelPack, Algorithm::Tokoro] {
            let c = len(algo);
            prop_assert!(c <= sel.len());
            prop_assert!(best <= c, "{} beat optimal", algo.name());
        }
    }

    /// encode → decode is the identity on every microinstruction of a
    /// compiled random block, on every machine.
    #[test]
    fn encoding_roundtrips(ops in proptest::collection::vec(gen_op(), 1..8)) {
        for m in [hm1(), vm1(), wm64(), bx2()] {
            // BX-2 has no "R" file; map register indices into G0..G7.
            let f = if m.find_file("R").is_some() {
                build(&m, &ops)
            } else {
                // Rebuild over the G file.
                let file = m.find_file("G").unwrap();
                let r = |i: u16| Operand::Reg(RegRef::new(file, i % 8));
                let mut b = FuncBuilder::new("prop");
                for op in &ops {
                    match *op {
                        GenOp::Ldi { d, v } => b.ldi(r(d), (v & 0xFF) as u64),
                        GenOp::Mov { d, s } => b.mov(r(d), r(s)),
                        GenOp::Alu { op, d, a, b: bb } => {
                            let op = alu_of(op);
                            if op.is_unary() {
                                b.alu_un(op, r(d), r(a));
                            } else {
                                b.alu(op, r(d), r(a), r(bb));
                            }
                        }
                        GenOp::AluImm { op, d, a, v } => {
                            let op = alu_of(op);
                            if op.is_unary() {
                                b.alu_un(op, r(d), r(a));
                            } else {
                                b.alu_imm(op, r(d), r(a), (v & 0xFF) as u64);
                            }
                        }
                        GenOp::Shift { op, d, a, n } => {
                            b.shift(shift_of(op), r(d), r(a), (n % 4) as u64)
                        }
                    }
                }
                b.terminate(Term::Halt);
                b.finish()
            };
            let art = Compiler::new(m.clone()).compile_mir(f).unwrap();
            for mi in art.program.flatten() {
                let w = mcc::machine::encode_instr(&m, &mi).unwrap();
                let mut back = mcc::machine::decode_instr(&m, w).unwrap();
                back.ops.sort_by_key(|o| o.template);
                let mut want = mi.clone();
                want.ops.sort_by_key(|o| o.template);
                prop_assert_eq!(back, want, "machine {}", m.name);
            }
        }
    }

    /// Decoding a bit-flipped control word either fails cleanly or yields
    /// an instruction that re-encodes to exactly the flipped word — it
    /// never panics and never silently drops the upset. With the parity
    /// check byte attached, every single-bit flip is detected outright.
    #[test]
    fn corrupted_decode_never_panics(
        ops in proptest::collection::vec(gen_op(), 1..8),
        bit in 0u32..128,
    ) {
        let m = hm1();
        let art = Compiler::new(m.clone()).compile_mir(build(&m, &ops)).unwrap();
        let bits = m.control_word_bits() as u32;
        for mi in art.program.flatten() {
            let w = mcc::machine::encode_instr(&m, &mi).unwrap();
            let flipped = w ^ (1u128 << (bit % bits));
            if let Ok(back) = mcc::machine::decode_instr(&m, flipped) {
                let again = mcc::machine::encode_instr(&m, &back).unwrap();
                prop_assert_eq!(again, flipped, "decode must be a strict inverse");
            }
            prop_assert!(matches!(
                mcc::machine::decode_checked(&m, flipped, mcc::machine::ecc_of(w)),
                Err(mcc::machine::DecodeError::EccMismatch { .. })
            ));
        }
    }

    /// Register allocation under a starvation budget computes the same
    /// values as with all registers available.
    #[test]
    fn spilling_preserves_values(
        ops in proptest::collection::vec(gen_op(), 1..12),
        budget in 3u16..6,
    ) {
        // Rebuild over virtual registers: v0..v7.
        let m = hm1();
        let mk = |_budget: Option<u16>| {
            let mut b = FuncBuilder::new("prop");
            let vs: Vec<_> = (0..8).map(|_| b.vreg()).collect();
            // Seed every vreg so results are deterministic.
            for (i, &v) in vs.iter().enumerate() {
                b.ldi(v, (0x1111 * (i as u64 + 1)) & 0xFFFF);
            }
            let r = |i: u16| Operand::Vreg(vs[i as usize]);
            for op in &ops {
                match *op {
                    GenOp::Ldi { d, v } => b.ldi(r(d), v as u64),
                    GenOp::Mov { d, s } => b.mov(r(d), r(s)),
                    GenOp::Alu { op, d, a, b: bb } => {
                        let op = alu_of(op);
                        if op.is_unary() {
                            b.alu_un(op, r(d), r(a));
                        } else {
                            b.alu(op, r(d), r(a), r(bb));
                        }
                    }
                    GenOp::AluImm { op, d, a, v } => {
                        let op = alu_of(op);
                        if op.is_unary() {
                            b.alu_un(op, r(d), r(a));
                        } else {
                            b.alu_imm(op, r(d), r(a), v as u64);
                        }
                    }
                    GenOp::Shift { op, d, a, n } => b.shift(shift_of(op), r(d), r(a), n as u64),
                }
            }
            for &v in &vs {
                b.mark_live_out(v);
            }
            b.terminate(Term::Halt);
            (b.finish(), vs)
        };

        let read = |budget: Option<u16>| -> Vec<u64> {
            let (f, vs) = mk(budget);
            let mut opts = CompilerOptions::default();
            opts.alloc.budget = budget;
            let art = Compiler::with_options(m.clone(), opts).compile_mir(f).unwrap();
            let (sim, _) = art.run().unwrap();
            vs.iter()
                .map(|&v| match art.locations.get(&v) {
                    Some(mcc::regalloc::Location::Reg(r))
                    | Some(mcc::regalloc::Location::Scratch(r)) => sim.reg(*r),
                    Some(mcc::regalloc::Location::Mem(a)) => sim.mem(*a),
                    None => 0,
                })
                .collect()
        };

        let ample = read(None);
        let tight = read(Some(budget));
        prop_assert_eq!(ample, tight);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Weakest preconditions are sound: `wp(assigns, post)` holds in a
    /// state iff `post` holds after executing the assignments.
    #[test]
    fn wp_is_sound(
        seed_x in any::<u16>(),
        seed_y in any::<u16>(),
        k in any::<u16>(),
    ) {
        use mcc::verify::{parse_expr, parse_pred, wp, Assign};
        let assigns = vec![
            Assign::new("x", parse_expr("x + y").unwrap()),
            Assign::new("y", parse_expr(&format!("y ^ {k}")).unwrap()),
            Assign::new("x", parse_expr("x & y").unwrap()),
        ];
        let post = parse_pred("x <= y or x = 0").unwrap();
        let pre = wp(&assigns, &post);

        let mut env = std::collections::BTreeMap::new();
        env.insert("x".to_string(), seed_x as u64);
        env.insert("y".to_string(), seed_y as u64);
        let pre_holds = pre.eval(&env, 16);

        // Execute.
        let mut st = env.clone();
        for a in &assigns {
            let v = a.expr.eval(&st, 16);
            st.insert(a.var.clone(), v);
        }
        let post_holds = post.eval(&st, 16);
        prop_assert_eq!(pre_holds, post_holds);
    }

    /// ALU semantics agree with Rust's wrapping u16 arithmetic.
    #[test]
    fn alu_matches_u16(a in any::<u16>(), b in any::<u16>()) {
        use mcc::machine::AluOp as A;
        let cases: Vec<(A, u16)> = vec![
            (A::Add, a.wrapping_add(b)),
            (A::Sub, a.wrapping_sub(b)),
            (A::And, a & b),
            (A::Or, a | b),
            (A::Xor, a ^ b),
            (A::Nand, !(a & b)),
            (A::Nor, !(a | b)),
        ];
        for (op, want) in cases {
            let (got, _, _) = op.apply(a as u64, b as u64, false, 16);
            prop_assert_eq!(got, want as u64, "{:?}", op);
        }
        let (inc, _, _) = A::Inc.apply(a as u64, 0, false, 16);
        prop_assert_eq!(inc, a.wrapping_add(1) as u64);
        let (neg, _, _) = A::Neg.apply(a as u64, 0, false, 16);
        prop_assert_eq!(neg, a.wrapping_neg() as u64);
    }

    /// Shift semantics agree with Rust, including the UF bit.
    #[test]
    fn shifts_match_u16(a in any::<u16>(), n in 1u32..16) {
        use mcc::machine::ShiftOp as S;
        let (shl, uf) = S::Shl.apply(a as u64, n, 16);
        prop_assert_eq!(shl, (a << n) as u64);
        prop_assert_eq!(uf, (a >> (16 - n)) & 1 == 1);
        let (shr, uf) = S::Shr.apply(a as u64, n, 16);
        prop_assert_eq!(shr, (a >> n) as u64);
        prop_assert_eq!(uf, (a >> (n - 1)) & 1 == 1);
        let (rol, _) = S::Rol.apply(a as u64, n, 16);
        prop_assert_eq!(rol, a.rotate_left(n) as u64);
        let (ror, _) = S::Ror.apply(a as u64, n, 16);
        prop_assert_eq!(ror, a.rotate_right(n) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Compilation is deterministic: the same generated source, compiled
    /// twice, encodes to bit-identical control-store words — for every
    /// frontend. Build caching, artifact diffing, and the differential
    /// oracle all lean on this.
    #[test]
    fn compilation_is_deterministic(seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let m = hm1();
        let c = Compiler::new(m.clone());
        for lang in mcc::core::SourceLang::ALL {
            let src = mcc::fuzz::gen::generate(lang, &m, &mut StdRng::seed_from_u64(seed));
            let a = c.compile_contained(lang, &src);
            let b = c.compile_contained(lang, &src);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    let wa = a.encode().unwrap();
                    let wb = b.encode().unwrap();
                    prop_assert_eq!(wa, wb, "{} artifact bytes differ across runs", lang);
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(ea.to_string(), eb.to_string()),
                (a, b) => prop_assert!(false, "{}: accept/reject flipped: {:?} vs {:?}",
                    lang, a.is_ok(), b.is_ok()),
            }
        }
    }

    /// The shrinker's output always still satisfies the predicate it was
    /// shrinking against, and never grows the input.
    #[test]
    fn shrinker_preserves_the_failure(
        prefix in proptest::collection::vec(0u16..1000, 0..6),
        suffix in proptest::collection::vec(0u16..1000, 0..6),
        budget in 10usize..200,
    ) {
        let line = |ns: &[u16]| ns.iter()
            .map(|n| format!("word{n};"))
            .collect::<Vec<_>>()
            .join("\n");
        let src = format!("{}\nNEEDLE\n{}\n", line(&prefix), line(&suffix));
        let out = mcc::fuzz::shrink::shrink(&src, |s| s.contains("NEEDLE"), budget);
        prop_assert!(out.contains("NEEDLE"));
        prop_assert!(out.len() <= src.len());
    }

    /// Mutated (possibly wildly malformed) inputs never panic a frontend
    /// and always produce a span that fits the source.
    #[test]
    fn mutants_get_clean_diagnostics(seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let m = hm1();
        let mut rng = StdRng::seed_from_u64(seed);
        for lang in mcc::core::SourceLang::ALL {
            let base = mcc::fuzz::gen::generate(lang, &m, &mut rng);
            let src = mcc::fuzz::mutate::mutate(&base, &mut rng);
            if let Err(d) = mcc::fuzz::oracle::frontend_diag(lang, &m, &src) {
                prop_assert!(!d.message.trim().is_empty(), "{}: empty diagnostic", lang);
                prop_assert!(d.span.start <= d.span.end && d.span.end <= src.len(),
                    "{}: span {}..{} outside {} bytes", lang, d.span.start, d.span.end, src.len());
            }
        }
    }
}

/// Named replays of every `cc` seed committed in
/// `tests/properties.proptest-regressions`.
///
/// The vendored proptest stub (see `vendor/proptest/src/lib.rs`) does
/// **not** read regressions files, so each saved failure case is pinned
/// here as an ordinary unit test on its recorded shrunk input, exercising
/// the same cross-algorithm / cross-machine agreement the original
/// property asserted. `regressions_file_is_fully_pinned` fails whenever a
/// new `cc` line lands without a matching named test.
mod regressions {
    use super::*;

    /// The agreement checks of `compaction_preserves_semantics` and
    /// `machines_agree_on_semantics`, on one concrete op vector.
    fn assert_semantics_agree(ops: &[GenOp]) {
        let m = hm1();
        let reference = run_regs(&m, build(&m, ops), Algorithm::Linear, ConflictModel::Coarse);
        for algo in Algorithm::ALL {
            for model in [ConflictModel::Coarse, ConflictModel::Fine] {
                let got = run_regs(&m, build(&m, ops), algo, model);
                assert_eq!(got, reference, "{} / {model:?}", algo.name());
            }
        }
        let v = run_regs(&vm1(), build(&vm1(), ops), Algorithm::CriticalPath, ConflictModel::Fine);
        assert_eq!(v, reference, "vm1 diverges from hm1");
    }

    /// cc e0dc8d20… — an ALU op whose dead result was overwritten by an
    /// immediate load reordered above it.
    #[test]
    fn cc_e0dc8d20_alu_then_ldi_reorder() {
        assert_semantics_agree(&[
            GenOp::Alu { op: 0, d: 0, a: 0, b: 0 },
            GenOp::Ldi { d: 1, v: 0 },
        ]);
    }

    /// cc 7d911b03… — a shift whose op code folds to `Sar` (52 % 5 = 2);
    /// sign-extension behaviour differed across machines.
    #[test]
    fn cc_7d911b03_sar_by_zero() {
        assert_semantics_agree(&[GenOp::Shift { op: 52, d: 0, a: 0, n: 0 }]);
    }

    /// cc a1481d30… — a move web with one register written three times;
    /// copy coalescing collapsed two distinct values.
    #[test]
    fn cc_a1481d30_move_web_coalescing() {
        assert_semantics_agree(&[
            GenOp::Mov { d: 5, s: 0 },
            GenOp::Mov { d: 5, s: 2 },
            GenOp::Mov { d: 4, s: 1 },
            GenOp::Alu { op: 0, d: 1, a: 0, b: 0 },
            GenOp::AluImm { op: 0, d: 0, a: 0, v: 0 },
            GenOp::Alu { op: 0, d: 0, a: 0, b: 0 },
            GenOp::Mov { d: 1, s: 5 },
        ]);
    }

    /// Every `cc` line in the committed regressions file has a named
    /// replay above. The count is the contract: saving a new failure case
    /// without pinning it here fails this test, because the proptest stub
    /// will never replay the file itself.
    #[test]
    fn regressions_file_is_fully_pinned() {
        const NAMED_REPLAYS: usize = 3;
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/properties.proptest-regressions");
        let text = std::fs::read_to_string(path)
            .expect("tests/properties.proptest-regressions must stay committed");
        let cc_lines = text.lines().filter(|l| l.starts_with("cc ")).count();
        assert_eq!(
            cc_lines, NAMED_REPLAYS,
            "regressions file has {cc_lines} `cc` seeds but {NAMED_REPLAYS} named \
             replays; add a unit test for the new shrunk case"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Wire-path integrity: flipping any single byte of a checksummed
    /// envelope frame (anywhere but the frame terminator) must never be
    /// accepted as a valid frame with altered content. The only survivors
    /// allowed are content-identical ones — e.g. a hex-digit case flip in
    /// the checksum field, which parses to the same value.
    #[test]
    fn single_byte_corruption_of_an_envelope_never_changes_accepted_content(
        rid in 0u64..1_000_000u64,
        pos_pick in 0usize..100_000usize,
        xor in 1u8..=255u8,
    ) {
        use mcc::serve::proto::{parse_request, unwrap_envelope, wrap_envelope, Envelope};

        let cid = "client-7";
        let body = "{\"op\":\"compile\",\"id\":\"x\",\"machine\":\"hm1\",\"lang\":\"yalll\",\"src\":\"exit\"}";
        let frame = wrap_envelope(cid, rid, body);

        // Corrupt one byte anywhere except the trailing newline (losing
        // the terminator is a framing concern, not a checksum one), then
        // deliver what the framing layer would: the first '\n'-terminated
        // segment of the corrupted bytes.
        let mut bytes = frame.clone().into_bytes();
        let pos = pos_pick % (bytes.len() - 1);
        bytes[pos] ^= xor;
        let delivered: Vec<u8> = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]).to_vec();
        let line = String::from_utf8_lossy(&delivered).into_owned();

        match unwrap_envelope(&line) {
            Envelope::Corrupt(reason) => {
                prop_assert!(reason.starts_with("corrupt frame:"), "{reason}");
            }
            Envelope::Bare => {
                // The prefix was mangled: the line must not pass for a
                // valid bare request either.
                prop_assert!(parse_request(line.trim_end()).is_err(), "{line}");
            }
            Envelope::Enveloped { cid: c, rid: r, body: b } => {
                // Only content-identical frames may survive (e.g. a case
                // flip inside the hex checksum).
                prop_assert_eq!(c, cid.to_string());
                prop_assert_eq!(r, rid);
                prop_assert_eq!(b, body.to_string());
            }
        }
    }
}

//! Fidelity of the benchmark's own machinery: its drawn programs, its
//! schedules and its outside replay of the compile pipeline.

use std::collections::HashSet;
use std::path::PathBuf;

use perfbench::bench;
use perfbench::draw::{self, Params, Program, Req, Rng, Schedule, Workload};
use perfbench::probe;
use perfbench::replay;
use perfbench::span::Tracer;

fn ctx() -> bench::Ctx {
    bench::context(Workload::CompileCold, 1, 1, PathBuf::new(), PathBuf::new())
}

fn colds(s: &Schedule) -> Vec<Program> {
    s.warmup
        .iter()
        .chain(&s.measured)
        .filter_map(|r| match r {
            Req::Cold(p) => Some(*p),
            Req::Hot(_) => None,
        })
        .collect()
}

#[test]
fn suite_constants_reproduce_the_suite_sources() {
    let suite = mcc_bench::kernels::suite();
    for mi in 0..draw::MACHINES.len() {
        let m = draw::machine(mi);
        for (k, kernel) in suite.iter().enumerate() {
            let p = Params::suite(k);
            assert_eq!(draw::KERNELS[k], kernel.name);
            assert_eq!(
                p.source(&m),
                (kernel.source)(&m),
                "{} on {}",
                kernel.name,
                m.name
            );
        }
    }
}

#[test]
fn every_drawn_program_simulates_to_its_reference_everywhere() {
    let mut rng = Rng::new(7, 99);
    for k in 0..draw::KERNELS.len() {
        for _ in 0..8 {
            let params = Params::draw(k, &mut rng);
            for machine in 0..draw::MACHINES.len() {
                for algo in 0..draw::ALGOS.len() {
                    let p = Program {
                        params,
                        machine,
                        algo,
                    };
                    let c = draw::compiler(draw::machine(machine), algo);
                    let art = c
                        .compile_contained(params.lang(), &params.source(c.machine()))
                        .unwrap_or_else(|e| panic!("{}: {e}", p.describe()));
                    p.run_checked(&art).unwrap_or_else(|e| panic!("{e}"));
                }
            }
        }
    }
}

#[test]
fn the_outside_replay_matches_the_pipeline_word_for_word() {
    let ctx = ctx();
    let mut t = Tracer::new("test");
    // Fails on any reference program whose replay encodes differently.
    let total = probe::replay_reference(&ctx, &mut t).unwrap_or_else(|e| panic!("{e}"));
    let mut want = replay::Counts::default();
    for p in draw::reference_programs() {
        let c = ctx.compiler(&p);
        let art = c
            .compile_contained(p.params.lang(), &ctx.source(&p))
            .expect("reference compiles");
        p.run_checked(&art).unwrap_or_else(|e| panic!("{e}"));
        want.mir_ops += art.stats.mir_ops as u64;
        want.dead_flags += art.stats.dead_flags as u64;
        want.spills += art.stats.spills as u64;
        want.degradations += art.stats.degradations.len() as u64;
    }
    assert_eq!(
        (
            total.mir_ops,
            total.dead_flags,
            total.spills,
            total.degradations
        ),
        (
            want.mir_ops,
            want.dead_flags,
            want.spills,
            want.degradations
        )
    );
    assert_eq!(t.per_request("replay").len(), draw::REFERENCE_COUNT);
}

#[test]
fn the_schedule_is_a_pure_function_of_the_seed_and_differs_between_seeds() {
    for w in Workload::ALL {
        let a = Schedule::new(w, 5, 100, 2_000);
        assert_eq!(a, Schedule::new(w, 5, 100, 2_000), "{}", w.name());
        assert_ne!(a, Schedule::new(w, 6, 100, 2_000), "{}", w.name());
        assert_eq!((a.warmup.len(), a.measured.len()), (100, 2_000));
    }
}

#[test]
fn draws_never_repeat_within_a_run() {
    let refs: HashSet<Program> = draw::reference_programs().into_iter().collect();
    for w in [Workload::CompileCold, Workload::FleetMixed] {
        let s = Schedule::new(w, 9, bench::warmup_len(w), 20_000);
        let drawn = colds(&s);
        let programs: HashSet<Program> = drawn.iter().copied().collect();
        assert_eq!(
            programs.len(),
            drawn.len(),
            "{}: a program repeats",
            w.name()
        );
        assert!(
            programs.is_disjoint(&refs),
            "{}: a draw is a reference program",
            w.name()
        );
        // Distinct programs are distinct requests on the wire, so no draw
        // can be a cache hit for another.
        let requests: HashSet<(usize, usize, String)> = drawn
            .iter()
            .map(|p| {
                (
                    p.machine,
                    p.algo,
                    p.params.source(&draw::machine(p.machine)),
                )
            })
            .collect();
        assert_eq!(
            requests.len(),
            drawn.len(),
            "{}: two draws render the same request",
            w.name()
        );
    }
}

#[test]
fn every_run_draws_the_same_mix_of_kernels_machines_and_algorithms() {
    let refs = draw::reference_programs();
    let mut d = draw::Drawer::new(4);
    for (class, like) in refs.iter().enumerate() {
        let p = d.draw_class(class);
        assert_eq!(
            (p.params.kernel(), p.machine, p.algo),
            (like.params.kernel(), like.machine, like.algo)
        );
    }
    let count = |seed| {
        let mut n = vec![0usize; draw::REFERENCE_COUNT];
        for p in colds(&Schedule::new(Workload::CompileCold, seed, 0, 64 * 30)) {
            n[refs
                .iter()
                .position(|r| {
                    (r.params.kernel(), r.machine, r.algo) == (p.params.kernel(), p.machine, p.algo)
                })
                .expect("a class")] += 1;
        }
        n
    };
    assert_eq!(count(1), vec![30; draw::REFERENCE_COUNT]);
    assert_eq!(count(1), count(2));
}

#[test]
fn workloads_send_the_mix_they_name() {
    let s = Schedule::new(Workload::FleetHot, 3, 50, 1_000);
    assert!(s.measured.iter().all(|r| matches!(r, Req::Hot(_))));
    let s = Schedule::new(Workload::CompileCold, 3, 50, 1_000);
    assert!(s.measured.iter().all(|r| matches!(r, Req::Cold(_))));
    let s = Schedule::new(Workload::FleetMixed, 3, 50, 1_000);
    for block in s.measured.chunks(draw::MIXED_COLD_EVERY) {
        assert_eq!(
            block.iter().filter(|r| matches!(r, Req::Cold(_))).count(),
            1
        );
    }
}

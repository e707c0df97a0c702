//! Property-based tests over the WFQ intake queue (proptest): work
//! conservation, per-tenant FIFO, convergence to weighted shares under
//! an adversarial mix, and a starvation regression.

use proptest::prelude::*;

use mcc::serve::{Class, WfqQueue};

/// One adversarial push: which tenant, which class.
#[derive(Debug, Clone)]
struct Push {
    tenant: usize,
    class: Class,
}

fn gen_class() -> impl Strategy<Value = Class> {
    prop_oneof![
        Just(Class::Interactive),
        Just(Class::Batch),
        Just(Class::Background),
    ]
}

fn gen_push(tenants: usize) -> impl Strategy<Value = Push> {
    (0..tenants, gen_class()).prop_map(|(tenant, class)| Push { tenant, class })
}

/// Builds a queue with tenants `t0..tn` at the given weights.
fn queue(weights: &[u32]) -> WfqQueue<usize> {
    let named: Vec<(String, u32)> = weights
        .iter()
        .enumerate()
        .map(|(i, w)| (format!("t{i}"), *w))
        .collect();
    WfqQueue::new(&named)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Work conservation: as long as anything is queued, `pop` yields it;
    /// every push comes back out exactly once.
    #[test]
    fn wfq_is_work_conserving(
        pushes in proptest::collection::vec(gen_push(4), 1..200),
        weights in proptest::collection::vec(1u32..16, 4..5),
    ) {
        let mut q = queue(&weights);
        for (i, p) in pushes.iter().enumerate() {
            q.push(&format!("t{}", p.tenant), p.class, i as u64, i);
        }
        let mut seen = vec![false; pushes.len()];
        while !q.is_empty() {
            let (_, payload) = q.pop().expect("non-empty queue pops");
            prop_assert!(!seen[payload], "payload {payload} popped twice");
            seen[payload] = true;
        }
        prop_assert!(q.pop().is_none());
        prop_assert!(seen.iter().all(|s| *s), "a push never popped");
    }

    /// Within one tenant, service order is arrival order — across classes
    /// too: a tenant's background request enqueued first still precedes
    /// its later interactive request (WFQ is fair *between* tenants; a
    /// tenant's own lane is strict FIFO).
    #[test]
    fn wfq_never_reorders_within_a_tenant(
        pushes in proptest::collection::vec(gen_push(3), 1..150),
        weights in proptest::collection::vec(1u32..8, 3..4),
    ) {
        let mut q = queue(&weights);
        for (i, p) in pushes.iter().enumerate() {
            q.push(&format!("t{}", p.tenant), p.class, i as u64, i);
        }
        let mut last: Vec<Option<usize>> = vec![None; 3];
        while let Some((_, payload)) = q.pop() {
            let t = pushes[payload].tenant;
            if let Some(prev) = last[t] {
                prop_assert!(prev < payload, "tenant {t} served {payload} after {prev}");
            }
            last[t] = Some(payload);
        }
    }

    /// Under full backlog, service converges to shares proportional to
    /// `weight / cost`: each tenant pushes one class exclusively, all
    /// demand is queued up front, and after `N` pops every tenant's
    /// service count is within 25% (± a constant floor for small `N`) of
    /// its analytic share.
    #[test]
    fn wfq_converges_to_weighted_shares(
        seed in 0u64..1_000,
        weights in proptest::collection::vec(1u32..8, 2..5),
    ) {
        let classes = [Class::Interactive, Class::Batch, Class::Background];
        let n = weights.len();
        let mut q = queue(&weights);
        // Adversarial arrival order: seed-shuffled round-robin so no
        // tenant gets all its pushes contiguously.
        let per_tenant = 400usize;
        let mut order: Vec<usize> = (0..n * per_tenant).map(|i| i % n).collect();
        for i in (1..order.len()).rev() {
            let j = (seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(i as u64)
                .wrapping_mul(0x2545_F491_4F6C_DD1D)
                >> 33) as usize
                % (i + 1);
            order.swap(i, j);
        }
        let mut counters = vec![0u64; n];
        for t in &order {
            let k = counters[*t];
            counters[*t] += 1;
            q.push(&format!("t{t}"), classes[*t % classes.len()], (*t as u64) << 32 | k, *t);
        }
        // Pop while every tenant is still backlogged: stop at half the
        // smallest entitlement so nobody drains dry mid-measurement.
        let rate =
            |t: usize| f64::from(weights[t]) / classes[t % classes.len()].cost() as f64;
        let total_rate: f64 = (0..n).map(rate).sum();
        let rate_max = (0..n).map(rate).fold(0.0f64, f64::max);
        let pops = (per_tenant as f64 / 2.0 * total_rate / rate_max) as usize;
        let pops = pops.min(n * per_tenant / 2).max(n * 8);
        let mut served = vec![0u64; n];
        for _ in 0..pops {
            let (_, t) = q.pop().expect("backlogged queue pops");
            served[t] += 1;
        }
        for (t, &count) in served.iter().enumerate() {
            let expect = pops as f64 * rate(t) / total_rate;
            let got = count as f64;
            let tol = (expect * 0.25).max(3.0);
            prop_assert!(
                (got - expect).abs() <= tol,
                "tenant {t}: served {got}, analytic {expect:.1} ± {tol:.1} (weights {weights:?})"
            );
        }
    }
}

/// Starvation regression: a weight-7 interactive flood (cheapest class,
/// heaviest weight) against a single weight-1 background tenant. The
/// victim's first request must still be served within one full virtual
/// round — `cost/weight / (cost/weight of the flood)` flood services —
/// not pushed behind the flood forever.
#[test]
fn background_tenant_is_never_starved() {
    let mut q = queue(&[7, 1]);
    // The victim arrives first with one background request…
    q.push("t1", Class::Background, u64::MAX, usize::MAX);
    // …then the flood swamps the queue.
    for k in 0..10_000u64 {
        q.push("t0", Class::Interactive, k, 0);
    }
    // Victim finish = 4/1 = 4 virtual units; flood spacing = 1/7. The
    // victim must surface within ceil(4 × 7) + 1 = 29 pops.
    let mut pops = 0;
    loop {
        let (_, payload) = q.pop().expect("queue is backlogged");
        pops += 1;
        if payload == usize::MAX {
            break;
        }
        assert!(pops <= 29, "background request starved past {pops} pops");
    }
    assert!(pops <= 29, "background request starved: served after {pops} pops");
}

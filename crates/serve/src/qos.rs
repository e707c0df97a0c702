//! Per-tenant quality of service: priority classes, class-aware shed
//! thresholds, and the weighted-fair queue that the worker pool pops.
//!
//! ## Why a fair queue
//!
//! Admission (the bounded `inflight` counter) decides *whether* a
//! request gets in; it says nothing about *order*. A FIFO queue would
//! let a flooding tenant that kept the queue legally below the bound
//! serialise everyone else behind its backlog. The WFQ holds
//! admitted-but-undispatched jobs in per-tenant queues, and it is the
//! server's one ready queue: a free worker of the pool pops it
//! directly, smallest virtual finish first.
//!
//! ## Virtual-time math
//!
//! Classic WFQ (a.k.a. packetised GPS): the queue keeps a virtual clock
//! `V` that advances to the finish tag of each dispatched job. A job of
//! class cost `c` arriving at tenant `t` with weight `w` is stamped
//!
//! ```text
//! start(j)  = max(V, finish(previous job of t))
//! finish(j) = start(j) + SCALE · c / w
//! ```
//!
//! and dispatch always picks the smallest `finish` across tenant queue
//! heads (ties broken by tenant name, so the schedule is deterministic).
//! Two properties fall out:
//!
//! * **weighted shares** — tenants with backlogs receive service in
//!   proportion to `w / c`; a flooder is throttled to its share, never
//!   starved, never able to starve;
//! * **memoryless idleness** — `max(V, …)` means an idle tenant earns no
//!   credit: its next job competes from the current clock, it cannot
//!   burst ahead on banked time.
//!
//! ## Classes
//!
//! The three priority classes map onto both knobs:
//!
//! | class       | WFQ cost | shed bound      | extra tier |
//! |-------------|----------|-----------------|------------|
//! | interactive | 1        | `bound`         | —          |
//! | batch       | 2        | `bound − bound/8` | —        |
//! | background  | 4        | `bound − bound/4` | +1       |
//!
//! Cost scales a job's virtual length, so at equal weight an
//! interactive tenant outpaces a batch one 2:1 and a background one
//! 4:1. The shed bound shrinks for lower classes — background sheds
//! first, interactive last — and background additionally enters the
//! degradation ladder one tier early. Bare peers that never send a
//! class land on `interactive`, which reproduces the pre-QoS behaviour
//! exactly.

use std::collections::{BTreeMap, VecDeque};

/// Fixed-point scale for virtual time: one unit of service cost at
/// weight 1 advances the clock by this much. Large enough that integer
/// division by any sane weight keeps plenty of resolution.
const SCALE: u64 = 1 << 20;

/// Upper bound on a configured tenant weight; keeps `SCALE / w` well
/// away from zero so finish tags always advance.
pub const MAX_WEIGHT: u32 = 1 << 16;

/// The weight of a tenant that the configured weights do not name.
const DEFAULT_WEIGHT: u32 = 1;

/// A request's priority class. Order matters: the discriminant indexes
/// per-class counter arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Class {
    /// Latency-sensitive traffic: full shed bound, unit cost.
    Interactive = 0,
    /// Throughput traffic: slightly earlier shed, double cost.
    Batch = 1,
    /// Best-effort traffic: sheds first, degrades a tier early,
    /// quadruple cost.
    Background = 2,
}

impl Class {
    /// Every class, in discriminant order.
    pub const ALL: [Class; 3] = [Class::Interactive, Class::Batch, Class::Background];

    /// Parses a wire class name. `None` is the absent field (defaults to
    /// interactive, the pre-QoS behaviour); `Some(Err)` is a `400`.
    pub fn parse(name: Option<&str>) -> Result<Class, String> {
        match name {
            None => Ok(Class::Interactive),
            Some("interactive") => Ok(Class::Interactive),
            Some("batch") => Ok(Class::Batch),
            Some("background") => Ok(Class::Background),
            Some(other) => Err(format!("unknown class `{other}`")),
        }
    }

    /// The wire / metrics-label name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Interactive => "interactive",
            Class::Batch => "batch",
            Class::Background => "background",
        }
    }

    /// The WFQ service cost multiplier.
    pub fn cost(self) -> u64 {
        match self {
            Class::Interactive => 1,
            Class::Batch => 2,
            Class::Background => 4,
        }
    }

    /// Index into per-class counter arrays.
    pub fn idx(self) -> usize {
        self as usize
    }
}

/// The pressure tier for a queue depth under a bound, *per class*: the
/// effective bound shrinks for lower classes (background sheds first)
/// and background enters the degradation ladder one tier early.
/// `Class::Interactive` reproduces [`super::tier_for_depth`] exactly.
pub fn tier_for_class(depth: usize, bound: usize, class: Class) -> Option<u8> {
    let eff = match class {
        Class::Interactive => bound,
        Class::Batch => bound - bound / 8,
        Class::Background => bound - bound / 4,
    }
    .max(1);
    let tier = super::tier_for_depth(depth, eff)?;
    Some(match class {
        Class::Background => (tier + 1).min(3),
        _ => tier,
    })
}

/// One queued job: the pool token it was admitted under, its virtual
/// finish tag, and the payload a worker runs once it pops the item.
struct Item<T> {
    token: u64,
    finish: u64,
    payload: T,
}

/// One tenant's FIFO backlog plus its WFQ state.
struct TenantQ<T> {
    weight: u32,
    last_finish: u64,
    q: VecDeque<Item<T>>,
}

/// The weighted-fair queue. Generic over the payload so the scheduler
/// is testable (and property-testable) without a worker pool behind it.
///
/// `BTreeMap` rather than `HashMap`: dispatch scans tenant heads for the
/// minimum finish tag, and the ordered map makes tie-breaks (and thus
/// the whole schedule) deterministic across runs and platforms.
pub struct WfqQueue<T> {
    vtime: u64,
    weights: BTreeMap<String, u32>,
    tenants: BTreeMap<String, TenantQ<T>>,
    len: usize,
}

impl<T> WfqQueue<T> {
    /// An empty queue. Tenants not named in `weights` get
    /// `DEFAULT_WEIGHT`; named weights are clamped to `1..=MAX_WEIGHT`.
    pub fn new(weights: &[(String, u32)]) -> WfqQueue<T> {
        WfqQueue {
            vtime: 0,
            weights: weights
                .iter()
                .map(|(t, w)| (t.clone(), (*w).clamp(1, MAX_WEIGHT)))
                .collect(),
            tenants: BTreeMap::new(),
            len: 0,
        }
    }

    /// The configured weight for `tenant`.
    pub fn weight_of(&self, tenant: &str) -> u32 {
        self.weights.get(tenant).copied().unwrap_or(DEFAULT_WEIGHT)
    }

    /// Queued (not yet dispatched) jobs across all tenants.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued jobs for one tenant — the quota gate reads this.
    pub fn queued_of(&self, tenant: &str) -> usize {
        self.tenants.get(tenant).map_or(0, |t| t.q.len())
    }

    /// Enqueues a job, stamping its virtual finish tag. Within a tenant
    /// the queue is strictly FIFO: `last_finish` is monotone, so a later
    /// push can never be tagged earlier than the tenant's backlog.
    pub fn push(&mut self, tenant: &str, class: Class, token: u64, payload: T) {
        let weight = self.weight_of(tenant);
        let tq = self.tenants.entry(tenant.to_string()).or_insert(TenantQ {
            weight,
            last_finish: 0,
            q: VecDeque::new(),
        });
        tq.weight = weight;
        let start = self.vtime.max(tq.last_finish);
        let finish = start + SCALE.saturating_mul(class.cost()) / u64::from(tq.weight);
        tq.last_finish = finish;
        tq.q.push_back(Item { token, finish, payload });
        self.len += 1;
    }

    /// Dispatches the job with the smallest virtual finish tag (ties by
    /// tenant name), advancing the virtual clock to its tag.
    pub fn pop(&mut self) -> Option<(u64, T)> {
        let tenant = self
            .tenants
            .iter()
            .filter_map(|(name, tq)| tq.q.front().map(|item| (item.finish, name)))
            .min()?
            .1
            .clone();
        let tq = self.tenants.get_mut(&tenant).expect("tenant with a queued head");
        let item = tq.q.pop_front().expect("non-empty head");
        if tq.q.is_empty() {
            // Retire the empty per-tenant queue but keep its weight
            // binding in `weights`; `max(V, last_finish)` on the next
            // push makes the retired `last_finish` irrelevant.
            self.tenants.remove(&tenant);
        }
        self.len -= 1;
        self.vtime = self.vtime.max(item.finish);
        Some((item.token, item.payload))
    }

    /// Removes a still-queued job by token (deadline condemnation of a
    /// job that never reached a worker). `None` when the token is not
    /// queued here — i.e. it was already dispatched.
    pub fn remove(&mut self, token: u64) -> Option<T> {
        let mut hit: Option<(String, usize)> = None;
        for (name, tq) in &self.tenants {
            if let Some(pos) = tq.q.iter().position(|item| item.token == token) {
                hit = Some((name.clone(), pos));
                break;
            }
        }
        let (name, pos) = hit?;
        let tq = self.tenants.get_mut(&name).expect("tenant just seen");
        let item = tq.q.remove(pos).expect("position just found");
        if tq.q.is_empty() {
            self.tenants.remove(&name);
        }
        self.len -= 1;
        Some(item.payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_parse_defaults_bare_to_interactive() {
        assert_eq!(Class::parse(None), Ok(Class::Interactive));
        assert_eq!(Class::parse(Some("interactive")), Ok(Class::Interactive));
        assert_eq!(Class::parse(Some("batch")), Ok(Class::Batch));
        assert_eq!(Class::parse(Some("background")), Ok(Class::Background));
        assert!(Class::parse(Some("platinum")).is_err());
    }

    #[test]
    fn interactive_tier_ladder_matches_legacy() {
        for depth in 0..70 {
            assert_eq!(
                tier_for_class(depth, 64, Class::Interactive),
                super::super::tier_for_depth(depth, 64),
                "depth {depth}"
            );
        }
    }

    #[test]
    fn background_sheds_first_and_degrades_early() {
        let bound = 32;
        // Background's effective bound is 24: sheds while interactive
        // still serves.
        assert_eq!(tier_for_class(24, bound, Class::Background), None);
        assert_eq!(tier_for_class(24, bound, Class::Batch), Some(3));
        assert_eq!(tier_for_class(24, bound, Class::Interactive), Some(3));
        // Batch sheds at 28; interactive holds to the full bound.
        assert_eq!(tier_for_class(28, bound, Class::Batch), None);
        assert_eq!(tier_for_class(28, bound, Class::Interactive), Some(3));
        assert_eq!(tier_for_class(32, bound, Class::Interactive), None);
        // At zero depth background already runs one tier degraded.
        assert_eq!(tier_for_class(0, bound, Class::Background), Some(1));
        assert_eq!(tier_for_class(0, bound, Class::Interactive), Some(0));
        // Tiny bounds stay shed-correct for every class.
        for class in Class::ALL {
            assert_eq!(tier_for_class(1, 1, class), None, "{class:?}");
        }
    }

    #[test]
    fn equal_weights_round_robin() {
        let mut q: WfqQueue<&str> = WfqQueue::new(&[]);
        for i in 0..3 {
            q.push("a", Class::Interactive, i, "a");
            q.push("b", Class::Interactive, 10 + i, "b");
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, ["a", "b", "a", "b", "a", "b"]);
    }

    #[test]
    fn weights_skew_the_interleave() {
        // Weight 2 vs 1, both backlogged: the heavy tenant gets two
        // dispatches per light dispatch.
        let mut q: WfqQueue<&str> = WfqQueue::new(&[("heavy".to_string(), 2)]);
        for i in 0..8 {
            q.push("heavy", Class::Interactive, i, "h");
            q.push("light", Class::Interactive, 100 + i, "l");
        }
        let first6: Vec<&str> =
            (0..6).map(|_| q.pop().expect("queued").1).collect();
        let heavies = first6.iter().filter(|p| **p == "h").count();
        assert_eq!(heavies, 4, "2:1 weights give a 2:1 interleave, got {first6:?}");
    }

    #[test]
    fn class_cost_throttles_within_equal_weights() {
        // Same weight, interactive vs background backlog: cost 1 vs 4
        // gives the interactive tenant 4 dispatches per background one.
        let mut q: WfqQueue<&str> = WfqQueue::new(&[]);
        for i in 0..10 {
            q.push("fg", Class::Interactive, i, "fg");
            q.push("bg", Class::Background, 100 + i, "bg");
        }
        let first10: Vec<&str> = (0..10).map(|_| q.pop().expect("queued").1).collect();
        let fg = first10.iter().filter(|p| **p == "fg").count();
        assert_eq!(fg, 8, "cost 4:1 gives a 4:1 interleave, got {first10:?}");
    }

    #[test]
    fn within_tenant_order_is_fifo_even_across_classes() {
        let mut q: WfqQueue<u32> = WfqQueue::new(&[]);
        q.push("t", Class::Background, 1, 1);
        q.push("t", Class::Interactive, 2, 2);
        q.push("t", Class::Interactive, 3, 3);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, [1, 2, 3], "a cheaper later job must not overtake");
    }

    #[test]
    fn idle_tenant_earns_no_credit() {
        let mut q: WfqQueue<&str> = WfqQueue::new(&[]);
        // `b` floods and is served for a while; `a` was idle throughout.
        for i in 0..50 {
            q.push("b", Class::Interactive, i, "b");
        }
        for _ in 0..40 {
            q.pop();
        }
        // `a` arrives now: it is next-ish (competes from the current
        // clock), not owed 40 back-dispatches.
        q.push("a", Class::Interactive, 999, "a");
        let rest: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        let pos = rest.iter().position(|&p| p == "a").unwrap();
        assert!(pos <= 1, "idle tenant competes from now, pos {pos}");
        // And conversely `b`'s remaining backlog still drains.
        assert_eq!(rest.len(), 11);
    }

    #[test]
    fn remove_unqueues_only_queued_tokens() {
        let mut q: WfqQueue<&str> = WfqQueue::new(&[]);
        q.push("t", Class::Interactive, 1, "x");
        q.push("t", Class::Interactive, 2, "y");
        let (tok, _) = q.pop().unwrap();
        assert_eq!(tok, 1);
        assert!(q.remove(1).is_none(), "dispatched token is not removable");
        assert_eq!(q.remove(2), Some("y"));
        assert!(q.is_empty());
        assert_eq!(q.queued_of("t"), 0);
    }
}

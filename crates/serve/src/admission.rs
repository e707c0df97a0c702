//! Admission control: the bounded queue, the load-shedding tier ladder,
//! and per-client token-bucket rate limiting.
//!
//! The server's memory is bounded by construction: at most `queue_bound`
//! compile requests may be admitted-but-unresolved at once, and
//! everything past the bound is *shed* with a `503` — the daemon prefers
//! a fast structured no to an unbounded queue. Below the bound, pressure
//! degrades quality before it degrades availability, in the order the
//! survey's compaction chapter suggests (compaction effort is the
//! cheapest thing to trade):
//!
//! | queue depth        | tier | action                                   |
//! |--------------------|------|------------------------------------------|
//! | `< bound/4`        | 0    | full service                             |
//! | `≥ bound/4`        | 1    | shrink the exact-search node budget      |
//! | `≥ bound/2`        | 2    | tier 1 + skip disk persistence           |
//! | `≥ 3·bound/4`      | 3    | tier 2 + sequential-only compaction      |
//! | `≥ bound`          | —    | shed (`503`)                             |
//!
//! Every tier still emits *correct* microcode — the degradation chain in
//! `mcc-compact` guarantees that — so shedding tiers trade packing
//! quality and cache warmth for latency, never correctness.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The pressure tier for a given queue depth under a given bound, or
/// `None` when the request must be shed.
pub fn tier_for_depth(depth: usize, bound: usize) -> Option<u8> {
    if depth >= bound {
        return None;
    }
    if depth * 4 >= bound * 3 {
        Some(3)
    } else if depth * 2 >= bound {
        Some(2)
    } else if depth * 4 >= bound {
        Some(1)
    } else {
        Some(0)
    }
}

/// Monotonic service counters, all relaxed atomics (they feed the
/// `stats` and `metrics` ops and the drain summary, not any control
/// decision that needs ordering).
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Compile requests admitted into the queue.
    pub accepted: AtomicU64,
    /// Admitted requests answered `200`.
    pub completed: AtomicU64,
    /// Admitted requests answered `400` (compile error).
    pub compile_errors: AtomicU64,
    /// Frames rejected `400` before admission (malformed, bad names).
    pub bad_requests: AtomicU64,
    /// Requests rejected `429` by a client's token bucket.
    pub rate_limited: AtomicU64,
    /// Requests shed `503` at the queue bound.
    pub shed: AtomicU64,
    /// Requests rejected `503` by an open breaker.
    pub breaker_rejects: AtomicU64,
    /// Requests rejected `503` while draining.
    pub drain_rejects: AtomicU64,
    /// Admitted requests answered `504` (condemned at the deadline).
    pub deadline_expired: AtomicU64,
    /// Admitted requests answered `500` (contained pipeline panic).
    pub panics: AtomicU64,
    /// Idle connections closed by the reaper (a connected client that
    /// never sent a request must not pin an accept slot forever).
    pub idle_reaped: AtomicU64,
    /// Duplicate enveloped requests answered from the idempotency window
    /// (recorded response replayed, nothing re-executed).
    pub replayed: AtomicU64,
    /// Inbound lines that exceeded `MAX_FRAME_BYTES` (connection closed
    /// after a structured `400`).
    pub oversized_frames: AtomicU64,
    /// Envelope-shaped frames that failed structural or checksum
    /// validation — never executed, answered with a bare `400`. v2
    /// streams that turn structurally corrupt count here too.
    pub corrupt_frames: AtomicU64,
    /// Connections that negotiated up to binary protocol v2.
    pub v2_connections: AtomicU64,
    /// Binary v2 frames decoded (hellos and requests both count).
    pub v2_frames: AtomicU64,
    /// Requests served at pressure tier 1 / 2 / 3.
    pub degraded: [AtomicU64; 3],
    /// Requests shed `503` because their tenant's queued quota was full
    /// (the WFQ refuses to let one tenant own the backlog).
    pub quota_shed: AtomicU64,
    /// Requests shed `503` at the class-scaled bound, by class
    /// (interactive / batch / background) — background sheds first.
    pub shed_by_class: [AtomicU64; 3],
}

impl ServeCounters {
    /// Bumps one counter.
    pub fn bump(&self, c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }
}

/// One client's token bucket.
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// Default cap on distinct client buckets ([`RateLimiter::with_cap`]
/// overrides it). Sized like the dedup window: enough for every live
/// client of a busy shard, small enough that a churn attack tops out in
/// the low megabytes.
pub const RATE_BUCKET_CAP: usize = 4096;

/// A bucket evicted this recently gets a second chance instead (it
/// belongs to a live client; evicting it would hand the client a fresh
/// burst allowance).
const EVICT_IDLE_FLOOR: Duration = Duration::from_secs(1);

/// Per-client token-bucket rate limiting: `rate` tokens per second,
/// burst capacity of `2 × rate`. `None` disables limiting entirely.
///
/// The bucket map is capped (the §6i dedup-window idiom): client ids
/// arrive off the wire, so an adversary churning fresh ids must not
/// grow server memory without bound. Eviction is second-chance FIFO on
/// insertion order — a candidate touched within [`EVICT_IDLE_FLOOR`]
/// rotates to the back (bounded times per insert) instead of being
/// dropped, so live clients keep their debt and only idle buckets fall
/// out. Evictions are counted: a climbing `rate_buckets_evicted` under
/// steady traffic is the signature of an id-churn attack.
pub struct RateLimiter {
    rate: Option<u32>,
    cap: usize,
    evicted: AtomicU64,
    /// Bucket map plus insertion-order queue; both behind one lock so
    /// they can never disagree.
    buckets: Mutex<(HashMap<String, Bucket>, VecDeque<String>)>,
}

impl RateLimiter {
    /// A limiter admitting `rate` requests/second per client id.
    pub fn new(rate: Option<u32>) -> RateLimiter {
        RateLimiter::with_cap(rate, RATE_BUCKET_CAP)
    }

    /// A limiter with an explicit bucket cap (tests use tiny caps).
    pub fn with_cap(rate: Option<u32>, cap: usize) -> RateLimiter {
        RateLimiter {
            rate,
            cap: cap.max(1),
            evicted: AtomicU64::new(0),
            buckets: Mutex::new((HashMap::new(), VecDeque::new())),
        }
    }

    /// Buckets dropped by the cap so far.
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Relaxed)
    }

    /// Takes one token for `client`; `false` means reject with `429`.
    pub fn admit(&self, client: &str) -> bool {
        let Some(rate) = self.rate else {
            return true;
        };
        if rate == 0 {
            return false;
        }
        let burst = f64::from(rate) * 2.0;
        let now = Instant::now();
        let mut guard = self.buckets.lock().unwrap();
        let (buckets, order) = &mut *guard;
        if !buckets.contains_key(client) {
            if buckets.len() >= self.cap {
                self.evict(buckets, order, now);
            }
            buckets.insert(
                client.to_string(),
                Bucket { tokens: burst, last: now },
            );
            order.push_back(client.to_string());
        }
        let b = buckets.get_mut(client).expect("bucket just ensured");
        let elapsed = now.duration_since(b.last).as_secs_f64();
        b.tokens = (b.tokens + elapsed * f64::from(rate)).min(burst);
        b.last = now;
        if b.tokens >= 1.0 {
            b.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Drops one bucket to make room: the oldest insertion whose client
    /// has been idle past the floor. The rotation scan is bounded, so a
    /// pathological all-live map still evicts in O(bound).
    fn evict(&self, buckets: &mut HashMap<String, Bucket>, order: &mut VecDeque<String>, now: Instant) {
        const MAX_ROTATIONS: usize = 8;
        for _ in 0..MAX_ROTATIONS {
            let Some(victim) = order.pop_front() else {
                return;
            };
            // Stale slot: the bucket was already evicted under a later
            // queue entry for the same id; skip without counting.
            let Some(b) = buckets.get(&victim) else {
                continue;
            };
            if now.duration_since(b.last) < EVICT_IDLE_FLOOR && order.len() >= MAX_ROTATIONS {
                // Recently live: second chance.
                order.push_back(victim);
                continue;
            }
            buckets.remove(&victim);
            self.evicted.fetch_add(1, Ordering::Relaxed);
            return;
        }
        // Everything scanned was live: evict the oldest anyway — the cap
        // is a hard bound, fairness to one hot bucket is not.
        while let Some(victim) = order.pop_front() {
            if buckets.remove(&victim).is_some() {
                self.evicted.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct clients currently tracked.
    fn tracked(rl: &RateLimiter) -> usize {
        rl.buckets.lock().unwrap().0.len()
    }

    #[test]
    fn tier_ladder_matches_the_documented_thresholds() {
        let bound = 8;
        assert_eq!(tier_for_depth(0, bound), Some(0));
        assert_eq!(tier_for_depth(1, bound), Some(0));
        assert_eq!(tier_for_depth(2, bound), Some(1));
        assert_eq!(tier_for_depth(3, bound), Some(1));
        assert_eq!(tier_for_depth(4, bound), Some(2));
        assert_eq!(tier_for_depth(5, bound), Some(2));
        assert_eq!(tier_for_depth(6, bound), Some(3));
        assert_eq!(tier_for_depth(7, bound), Some(3));
        assert_eq!(tier_for_depth(8, bound), None, "at the bound: shed");
        assert_eq!(tier_for_depth(99, bound), None);
    }

    #[test]
    fn tiny_bounds_still_shed_at_the_bound() {
        assert_eq!(tier_for_depth(0, 1), Some(0));
        assert_eq!(tier_for_depth(1, 1), None);
    }

    #[test]
    fn unlimited_rate_always_admits() {
        let rl = RateLimiter::new(None);
        for _ in 0..10_000 {
            assert!(rl.admit("c"));
        }
    }

    #[test]
    fn bucket_map_is_capped_and_counts_evictions() {
        let rl = RateLimiter::with_cap(Some(100), 8);
        // Churn 1000 distinct client ids: memory must stay at the cap
        // and the overflow must be counted, not leaked.
        for i in 0..1000 {
            assert!(rl.admit(&format!("churn-{i}")));
        }
        assert!(tracked(&rl) <= 8, "tracked {} exceeds cap", tracked(&rl));
        assert_eq!(rl.evicted(), 1000 - tracked(&rl) as u64);
    }

    #[test]
    fn eviction_resets_a_returning_clients_bucket() {
        // A client whose bucket is evicted and who then returns gets a
        // fresh burst — the documented (and bounded) cost of the cap.
        let rl = RateLimiter::with_cap(Some(1), 2);
        assert!(rl.admit("victim"));
        assert!(rl.admit("victim"));
        assert!(!rl.admit("victim"), "burst of 2 exhausted");
        for i in 0..10 {
            rl.admit(&format!("churn-{i}"));
        }
        assert!(rl.evicted() > 0);
        assert!(rl.admit("victim"), "returning client starts a fresh bucket");
    }

    #[test]
    fn uncapped_clients_within_cap_are_never_evicted() {
        let rl = RateLimiter::with_cap(Some(100), 64);
        for i in 0..64 {
            assert!(rl.admit(&format!("c{i}")));
        }
        assert_eq!(rl.evicted(), 0);
        assert_eq!(tracked(&rl), 64);
    }

    #[test]
    fn bucket_exhausts_at_burst_and_zero_rate_rejects() {
        let rl = RateLimiter::new(Some(5));
        // Burst capacity 10: a tight loop of 40 requests can only be
        // admitted ~10 times (refilling one token takes 200ms).
        let admitted = (0..40).filter(|_| rl.admit("c")).count();
        assert!((10..20).contains(&admitted), "burst ≈ 2×rate, got {admitted}");
        // Independent clients have independent buckets.
        assert!(rl.admit("other"));
        let rl0 = RateLimiter::new(Some(0));
        assert!(!rl0.admit("c"));
    }
}

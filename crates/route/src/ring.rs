//! The consistent-hash ring: backend placement as a pure function of
//! (backend names, vnode count, cache key), so every router instance —
//! and every test, and the bench's analytic placement table — agrees on
//! which shard owns which key without any coordination.
//!
//! Each backend contributes `vnodes` points on a `u64` ring; a key maps
//! to the first point clockwise from its own hash. Virtual nodes smooth
//! the load: with one point per backend the largest arc is expected to
//! be ~`ln n` times the fair share, while 64 vnodes bring the imbalance
//! down to a few percent. Removing one backend moves only the keys that
//! lived on its arcs — everyone else's placement is untouched, which is
//! what makes failover cheap: the ring successor of a dead shard is a
//! deterministic, minimal reassignment.

use mcc_harness::sealed::fnv1a;
use mcc_harness::splitmix64;

/// A consistent-hash ring over named backends.
#[derive(Debug, Clone)]
pub struct Ring {
    /// `(point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
    /// Number of distinct backends.
    n: usize,
}

impl Ring {
    /// Builds the ring: `vnodes` points per backend, placed by mixing
    /// the backend's name hash with the vnode index.
    ///
    /// # Panics
    ///
    /// If `names` is empty or `vnodes` is zero — a router with no
    /// backends is a configuration error, not a runtime state.
    pub fn new(names: &[String], vnodes: usize) -> Ring {
        assert!(!names.is_empty(), "a ring needs at least one backend");
        assert!(vnodes > 0, "a backend needs at least one virtual node");
        let mut points = Vec::with_capacity(names.len() * vnodes);
        for (i, name) in names.iter().enumerate() {
            let base = fnv1a(name.as_bytes());
            for v in 0..vnodes {
                points.push((splitmix64(base ^ splitmix64(v as u64 + 1)), i));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            n: names.len(),
        }
    }

    /// Folds a 128-bit cache key onto the ring's `u64` key space. The
    /// splitmix finisher matters: FNV's low bits are weakly mixed, and
    /// the ring compares points across the whole word.
    pub fn point_of(key: u128) -> u64 {
        #[allow(clippy::cast_possible_truncation)]
        splitmix64((key >> 64) as u64 ^ key as u64)
    }

    /// Number of distinct backends on the ring.
    pub fn backends(&self) -> usize {
        self.n
    }

    /// The backend that owns `point`: the first ring point clockwise.
    pub fn primary(&self, point: u64) -> usize {
        self.successors(point)[0]
    }

    /// All distinct backends in ring order starting at `point`'s owner —
    /// the deterministic failover (and hot-key replication) order.
    pub fn successors(&self, point: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < point);
        let mut seen = vec![false; self.n];
        let mut out = Vec::with_capacity(self.n);
        for i in 0..self.points.len() {
            let (_, b) = self.points[(start + i) % self.points.len()];
            if !seen[b] {
                seen[b] = true;
                out.push(b);
                if out.len() == self.n {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("b{i}")).collect()
    }

    #[test]
    fn placement_is_deterministic_and_covers_every_backend() {
        let ring = Ring::new(&names(4), 64);
        let again = Ring::new(&names(4), 64);
        let mut counts = [0usize; 4];
        for k in 0..4096u64 {
            let p = Ring::point_of(u128::from(k) * 0x9e37_79b9_7f4a_7c15);
            let owner = ring.primary(p);
            assert_eq!(owner, again.primary(p), "same ring, same owner");
            counts[owner] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                c > 4096 / 4 / 3,
                "backend {i} owns a reasonable share with 64 vnodes, got {counts:?}"
            );
        }
    }

    #[test]
    fn successors_are_distinct_and_start_at_the_primary() {
        let ring = Ring::new(&names(5), 16);
        for k in 0..512u64 {
            let p = Ring::point_of(u128::from(k) << 7);
            let succ = ring.successors(p);
            assert_eq!(succ.len(), 5);
            assert_eq!(succ[0], ring.primary(p));
            let mut sorted = succ.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 5, "no duplicates in {succ:?}");
        }
    }

    #[test]
    fn removing_a_backend_only_moves_its_own_keys() {
        let all = names(4);
        let ring4 = Ring::new(&all, 64);
        // The 3-backend ring drops "b3"; indices 0..3 name the same
        // backends in both rings.
        let ring3 = Ring::new(&all[..3], 64);
        let mut moved = 0;
        let mut kept = 0;
        for k in 0..4096u64 {
            let p = Ring::point_of(u128::from(k).wrapping_mul(0x2545_f491_4f6c_dd1d));
            let before = ring4.primary(p);
            let after = ring3.primary(p);
            if before == 3 {
                moved += 1;
                // An orphaned key lands on the dead shard's ring
                // successor among the survivors.
                let expect = *ring4.successors(p).iter().find(|&&b| b != 3).unwrap();
                assert_eq!(after, expect, "orphans go to the ring successor");
            } else {
                kept += 1;
                assert_eq!(before, after, "survivor placement is untouched");
            }
        }
        assert!(moved > 0 && kept > 0);
    }

    #[test]
    fn adding_a_backend_moves_only_its_fair_share() {
        // The join path: a shard (re)joining a 3-backend ring must take
        // ~1/4 of the keys and disturb nobody else's placement — the
        // keys it takes are exactly the keys it owns afterwards.
        let all = names(4);
        let ring3 = Ring::new(&all[..3], 64);
        let ring4 = Ring::new(&all, 64);
        let total = 4096u64;
        let mut moved = 0usize;
        for k in 0..total {
            let p = Ring::point_of(u128::from(k).wrapping_mul(0x2545_f491_4f6c_dd1d));
            let before = ring3.primary(p);
            let after = ring4.primary(p);
            if after == 3 {
                moved += 1;
            } else {
                assert_eq!(
                    before, after,
                    "a key not claimed by the joiner must not move"
                );
            }
        }
        // ~1/N of keys move to the joiner; with 64 vnodes the share is
        // within a factor of two of fair either way.
        let fair = total as usize / 4;
        assert!(
            moved > fair / 2 && moved < fair * 2,
            "joiner claimed {moved} of {total} keys, fair share {fair}"
        );
    }

    #[test]
    fn placement_is_pinned() {
        // Placement is part of every router's contract with its peers and
        // with bench-serve's analytic tables: these literals must not move.
        let ring = Ring::new(&names(3), 64);
        let points = [0u128, 1, 42, 0xdead_beef, u128::MAX, 1 << 100].map(Ring::point_of);
        assert_eq!(points.map(|p| ring.primary(p)), [2, 0, 0, 1, 2, 1]);
        assert_eq!(
            points.map(|p| ring.successors(p)),
            [
                [2, 0, 1],
                [0, 1, 2],
                [0, 1, 2],
                [1, 0, 2],
                [2, 0, 1],
                [1, 0, 2]
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at least one backend")]
    fn empty_ring_is_a_configuration_error() {
        let _ = Ring::new(&[], 8);
    }
}

//! A count-min sketch for hot-key detection: fixed memory, never
//! undercounts, and the overestimate is bounded by the sketch width —
//! exactly the trade a router wants, because the only decision riding
//! on it is "replicate this key to one more shard", where a false
//! positive costs a little cache duplication and a false negative costs
//! a hot shard.

use mcc_harness::splitmix64;

/// A count-min sketch: `depth` rows of `width` counters; each key
/// increments one counter per row and reads back the row minimum.
#[derive(Debug)]
pub struct Sketch {
    width: u64,
    rows: Vec<Vec<u64>>,
    seeds: Vec<u64>,
}

impl Sketch {
    /// A sketch with `depth` independent rows of `width` counters,
    /// hashed by per-row seeds derived from `seed`.
    ///
    /// # Panics
    ///
    /// If `width` or `depth` is zero.
    pub fn new(width: usize, depth: usize, seed: u64) -> Sketch {
        assert!(width > 0 && depth > 0, "sketch dimensions must be nonzero");
        Sketch {
            width: width as u64,
            rows: vec![vec![0; width]; depth],
            seeds: (0..depth as u64).map(|r| splitmix64(seed ^ r)).collect(),
        }
    }

    /// Records one occurrence of `key` and returns its estimated count
    /// (an overestimate, never an undercount).
    pub fn observe(&mut self, key: u64) -> u64 {
        let mut est = u64::MAX;
        for (row, &rs) in self.rows.iter_mut().zip(&self.seeds) {
            #[allow(clippy::cast_possible_truncation)]
            let idx = (splitmix64(key ^ rs) % self.width) as usize;
            row[idx] += 1;
            est = est.min(row[idx]);
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_never_undercount_and_hot_keys_stand_out() {
        let mut s = Sketch::new(256, 4, 7);
        // Background noise: 512 distinct cold keys, once each.
        for k in 0..512u64 {
            s.observe(splitmix64(k));
        }
        // One hot key, 100 times.
        let hot = splitmix64(0xdead_beef);
        let mut last = 0;
        for _ in 0..100 {
            last = s.observe(hot);
        }
        assert!(last >= 100, "count-min never undercounts, got {last}");
        assert!(
            last < 100 + 64,
            "overestimate stays modest at this load, got {last}"
        );
        // A cold key's estimate stays far below the hot key's.
        let cold = s.observe(splitmix64(3));
        assert!(cold < 20, "cold keys stay cold, got {cold}");
    }
}

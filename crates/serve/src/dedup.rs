//! The server-side idempotency window: a bounded LRU keyed on a
//! request's [`Ident`] that makes retries exactly-once.
//!
//! A client that loses a connection after the server executed its request
//! (but before the response arrived) retries with the *same* identity on a
//! fresh connection. The window recognises the key and replays the recorded
//! response instead of re-executing — the reconnect-and-resend path in
//! `TcpBackend::call` is safe because of this window, not in spite of it.
//!
//! Three states per key:
//!
//! * absent — first sighting, the caller executes ([`Claim::Fresh`]);
//! * in flight — a duplicate arrived while the original is still executing
//!   (the chaos proxy's duplicate-delivery fault does exactly this); the
//!   duplicate parks on a channel and receives the original's response
//!   ([`Claim::Wait`]);
//! * done — the response is recorded and replayed verbatim ([`Claim::Replay`]).
//!
//! Transient rejections (`429` rate-limited, `503` shed/draining) are **not**
//! recorded: a retry of a shed request must get a fresh chance at admission,
//! so [`DedupWindow::resolve`] forgets the key.

use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Mutex;

use crate::proto::Ident;

/// The caller's verdict on one identity sighting.
pub enum Claim {
    /// First sighting: execute, then [`DedupWindow::resolve`].
    Fresh,
    /// Seen and finished: send this recorded response line, do not
    /// execute.
    Replay(String),
    /// Seen and still executing: wait for the original's response line.
    Wait(Receiver<String>),
}

enum Entry {
    Inflight(Vec<Sender<String>>),
    Done(String),
}

struct Inner {
    entries: HashMap<Ident, Entry>,
    /// The remembered keys, oldest claim first: exactly the keys of
    /// `entries`, each once.
    order: VecDeque<Ident>,
}

/// Bounded idempotency window. Eviction drops the oldest finished key
/// and scans past in-flight entries (rotating them to the back) with a
/// bounded number of steps.
pub struct DedupWindow {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl DedupWindow {
    /// A window remembering at most `capacity` request keys.
    pub fn new(capacity: usize) -> DedupWindow {
        DedupWindow {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity: capacity.max(1),
        }
    }

    /// Claims one sighting of `ident`.
    pub fn claim(&self, ident: &Ident) -> Claim {
        let mut g = self.inner.lock().unwrap();
        if let Some(entry) = g.entries.get_mut(ident) {
            return match entry {
                Entry::Done(resp) => Claim::Replay(resp.clone()),
                Entry::Inflight(waiters) => {
                    let (tx, rx) = channel();
                    waiters.push(tx);
                    Claim::Wait(rx)
                }
            };
        }
        g.entries.insert(ident.clone(), Entry::Inflight(Vec::new()));
        g.order.push_back(ident.clone());
        self.evict(&mut g);
        Claim::Fresh
    }

    /// Resolves a key claimed [`Claim::Fresh`] with the response line its
    /// client receives, and wakes any parked duplicates with it. The
    /// response is recorded for replay unless its `code` is a transient
    /// `429` or `503`, which forgets the key so a retry re-attempts
    /// admission. A key already resolved is left alone: the first
    /// resolution wins.
    pub fn resolve(&self, ident: &Ident, code: u16, response: &str) {
        let mut g = self.inner.lock().unwrap();
        let waiters = match g.entries.get_mut(ident) {
            Some(Entry::Inflight(w)) => std::mem::take(w),
            _ => return,
        };
        if matches!(code, 429 | 503) {
            g.entries.remove(ident);
            // The key was claimed moments ago, so its slot sits near the
            // back.
            if let Some(i) = g.order.iter().rposition(|k| k == ident) {
                g.order.remove(i);
            }
        } else {
            g.entries.insert(ident.clone(), Entry::Done(response.to_string()));
        }
        drop(g);
        for w in waiters {
            let _ = w.send(response.to_string());
        }
    }

    /// Number of keys currently remembered.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().entries.len()
    }

    /// True when no keys are remembered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn evict(&self, g: &mut Inner) {
        let mut scans = g.order.len();
        while g.entries.len() > self.capacity && scans > 0 {
            scans -= 1;
            let Some(key) = g.order.pop_front() else { break };
            // Never evict a request that is still executing — rotate it
            // to the back and keep scanning.
            if matches!(g.entries.get(&key), Some(Entry::Inflight(_))) {
                g.order.push_back(key);
            } else {
                g.entries.remove(&key);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(rid: u64) -> Ident {
        Ident { cid: "c".to_string(), rid }
    }

    /// Claims `rid` fresh and resolves it with `code`.
    fn run(w: &DedupWindow, rid: u64, code: u16) {
        assert!(matches!(w.claim(&id(rid)), Claim::Fresh), "rid {rid} is fresh");
        w.resolve(&id(rid), code, &format!("resp-{rid}\n"));
    }

    #[test]
    fn replay_returns_recorded_response_without_reexecution() {
        let w = DedupWindow::new(8);
        run(&w, 1, 200);
        match w.claim(&id(1)) {
            Claim::Replay(r) => assert_eq!(r, "resp-1\n"),
            _ => panic!("expected replay"),
        }
        // Replays are repeatable.
        assert!(matches!(w.claim(&id(1)), Claim::Replay(_)));
    }

    #[test]
    fn distinct_request_ids_never_dedup() {
        let w = DedupWindow::new(8);
        run(&w, 1, 200);
        assert!(matches!(w.claim(&id(2)), Claim::Fresh), "new rid executes");
        let other = Ident { cid: "d".to_string(), rid: 1 };
        assert!(matches!(w.claim(&other), Claim::Fresh), "new cid executes");
    }

    #[test]
    fn eviction_at_capacity_drops_oldest_done_entry() {
        let w = DedupWindow::new(3);
        for rid in 0..3 {
            run(&w, rid, 200);
        }
        assert_eq!(w.len(), 3);
        run(&w, 3, 200);
        assert_eq!(w.len(), 3, "window stays bounded");
        // The oldest key (rid 0) was evicted: it executes again.
        assert!(matches!(w.claim(&id(0)), Claim::Fresh));
        // A newer key is still remembered.
        assert!(matches!(w.claim(&id(3)), Claim::Replay(_)));
    }

    #[test]
    fn eviction_skips_inflight_entries() {
        let w = DedupWindow::new(2);
        assert!(matches!(w.claim(&id(0)), Claim::Fresh)); // stays in flight
        run(&w, 1, 200);
        assert!(matches!(w.claim(&id(2)), Claim::Fresh)); // forces eviction
        // rid 1 (done) was evicted, not rid 0 (in flight).
        assert!(matches!(w.claim(&id(0)), Claim::Wait(_)));
        assert!(matches!(w.claim(&id(1)), Claim::Fresh));
    }

    #[test]
    fn duplicate_in_flight_waits_and_gets_the_original_response() {
        let w = DedupWindow::new(8);
        assert!(matches!(w.claim(&id(7)), Claim::Fresh));
        let rx = match w.claim(&id(7)) {
            Claim::Wait(rx) => rx,
            _ => panic!("expected wait"),
        };
        w.resolve(&id(7), 200, "the-answer\n");
        assert_eq!(rx.recv().unwrap(), "the-answer\n");
        // A second resolution of the same claim changes nothing.
        w.resolve(&id(7), 500, "late\n");
        assert!(matches!(w.claim(&id(7)), Claim::Replay(r) if r == "the-answer\n"));
    }

    #[test]
    fn transient_rejections_are_not_recorded() {
        let w = DedupWindow::new(8);
        run(&w, 9, 503);
        assert!(w.is_empty());
        // The retry executes afresh instead of replaying the 503.
        assert!(matches!(w.claim(&id(9)), Claim::Fresh));
    }

    #[test]
    fn sustained_shedding_keeps_the_window_bounded() {
        let w = DedupWindow::new(8);
        for rid in 0..10_000 {
            run(&w, rid, if rid % 2 == 0 { 503 } else { 429 });
        }
        let g = w.inner.lock().unwrap();
        assert!(g.entries.is_empty());
        assert!(g.order.is_empty(), "{} slots left behind", g.order.len());
    }

    #[test]
    fn a_key_reclaimed_after_a_shed_ages_from_its_last_claim() {
        let w = DedupWindow::new(2);
        run(&w, 0, 503);
        run(&w, 1, 200);
        run(&w, 0, 200);
        run(&w, 2, 200);
        // Capacity 2 holds the two newest keys: rid 0 (claimed again
        // after rid 1) and rid 2. The older rid 1 was evicted.
        assert!(matches!(w.claim(&id(0)), Claim::Replay(_)), "rid 0 must not run twice");
        assert!(matches!(w.claim(&id(1)), Claim::Fresh));
    }
}

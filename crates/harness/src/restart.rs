//! Restart supervision: the budgeted, backed-off restart state machine
//! the fleet supervisor runs per child process.
//!
//! A crashed child is not restarted immediately and not restarted
//! forever. Each crash schedules the next spawn attempt after a
//! capped-exponential, deterministically jittered delay ([`backoff`]),
//! and consecutive crashes are fed into a [`Breaker`] whose threshold is
//! the *restart budget*: when the streak reaches the budget the breaker
//! trips and the child is **quarantined** — the supervisor stops
//! spawning it and routes traffic around it — instead of hot-looping a
//! binary that will never come up. A child that comes up and stays up
//! (the supervisor reports stability once a heartbeat succeeds past the
//! stability window) resets the streak, so occasional crashes spread
//! over a long life never exhaust the budget.
//!
//! Time is logical: the caller passes a crash ordinal, not a wall-clock
//! instant, so the decision sequence is a pure function of
//! `(policy, seed, child name, crash history)` and fully unit-testable.

use std::time::Duration;

use crate::backoff::{self, BackoffConfig};
use crate::breaker::{Breaker, BreakerConfig};

/// Restart tuning for one supervised child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartPolicy {
    /// Consecutive failed lives that quarantine the child. A "life"
    /// fails when the process exits (or never produces a banner) before
    /// the supervisor has declared it stable.
    pub budget: u32,
    /// Backoff between a crash and the next spawn attempt.
    pub backoff: BackoffConfig,
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            budget: 5,
            backoff: BackoffConfig::default(),
        }
    }
}

/// What the supervisor should do about a crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartDecision {
    /// Spawn again after `delay`; this will be restart number `attempt`
    /// in the current streak.
    Restart { attempt: u32, delay: Duration },
    /// Budget exhausted: stop restarting, quarantine the child.
    Quarantine,
}

/// The per-child restart state machine. One tracker per supervised
/// process; feed it crashes and stability reports, read back decisions.
#[derive(Debug, Clone)]
pub struct RestartTracker {
    policy: RestartPolicy,
    breaker: Breaker,
    /// Restarts attempted in the current crash streak (resets on
    /// stability).
    streak: u32,
    /// Total restarts attempted over the tracker's life.
    restarts: u64,
    /// Total crashes observed over the tracker's life.
    crashes: u64,
}

impl RestartTracker {
    /// A fresh tracker. The quarantine breaker's cool-down is effectively
    /// infinite: quarantine is sticky until an operator intervenes
    /// (there is no half-open re-probe of a binary that crash-looped).
    pub fn new(policy: RestartPolicy) -> RestartTracker {
        RestartTracker {
            policy,
            // Threshold budget+1: the budget counts *restarts*, and the
            // crash after the last budgeted restart is the one that trips.
            breaker: Breaker::new(BreakerConfig {
                threshold: policy.budget.saturating_add(1),
                cooldown: u64::MAX,
            }),
            streak: 0,
            restarts: 0,
            crashes: 0,
        }
    }

    /// Records one crash (exit, failed spawn, or missing banner) and
    /// decides what to do next. `seed`/`name` feed the deterministic
    /// backoff jitter, so two shards crashing together do not respawn in
    /// lock-step.
    pub fn on_crash(&mut self, seed: u64, name: &str) -> RestartDecision {
        self.crashes += 1;
        if self.breaker.on_failure(self.crashes) || !self.breaker.is_closed() {
            return RestartDecision::Quarantine;
        }
        self.streak += 1;
        self.restarts += 1;
        RestartDecision::Restart {
            attempt: self.streak,
            delay: backoff::delay(&self.policy.backoff, seed, name, self.streak),
        }
    }

    /// Reports that the child has been up and healthy past the stability
    /// window: the crash streak resets and the budget refills.
    pub fn on_stable(&mut self) {
        self.breaker.on_success();
        self.streak = 0;
    }

    /// Restarts attempted over the tracker's life.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Crashes observed over the tracker's life.
    pub fn crashes(&self) -> u64 {
        self.crashes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy(budget: u32) -> RestartPolicy {
        RestartPolicy {
            budget,
            backoff: BackoffConfig {
                base: Duration::from_millis(10),
                cap: Duration::from_millis(1000),
            },
        }
    }

    #[test]
    fn restarts_until_the_budget_then_quarantines() {
        let mut t = RestartTracker::new(policy(3));
        for expect in 1..=3u32 {
            match t.on_crash(7, "b0") {
                RestartDecision::Restart { attempt, .. } => assert_eq!(attempt, expect),
                RestartDecision::Quarantine => panic!("quarantined below budget"),
            }
        }
        assert!(t.breaker.is_closed());
        assert_eq!(t.on_crash(7, "b0"), RestartDecision::Quarantine);
        assert!(!t.breaker.is_closed());
        assert_eq!(t.restarts(), 3, "the budget counts restarts, not crashes");
        // Further crashes (there should be none, but a racing reap may
        // still report one) stay quarantined.
        assert_eq!(t.on_crash(7, "b0"), RestartDecision::Quarantine);
    }

    #[test]
    fn delays_follow_the_seeded_backoff_schedule() {
        let cfg = policy(10);
        let mut t = RestartTracker::new(cfg);
        for attempt in 1..=4u32 {
            match t.on_crash(42, "b1") {
                RestartDecision::Restart { delay, .. } => {
                    assert_eq!(
                        delay,
                        backoff::delay(&cfg.backoff, 42, "b1", attempt),
                        "attempt {attempt} delay is the canonical backoff delay"
                    );
                }
                RestartDecision::Quarantine => panic!("budget 10 not exhausted"),
            }
        }
        // Same history, same seed: identical schedule.
        let mut u = RestartTracker::new(cfg);
        for _ in 0..4 {
            let _ = u.on_crash(42, "b1");
        }
        assert_eq!(t.restarts(), u.restarts());
    }

    #[test]
    fn different_names_decorrelate_their_delays() {
        let cfg = policy(10);
        let delays: std::collections::BTreeSet<Duration> = (0..8)
            .map(|i| {
                let mut t = RestartTracker::new(cfg);
                let mut t4 = Duration::ZERO;
                for _ in 0..4 {
                    if let RestartDecision::Restart { delay, .. } = t.on_crash(7, &format!("b{i}"))
                    {
                        t4 = delay;
                    }
                }
                t4
            })
            .collect();
        assert!(delays.len() > 1, "jitter must spread sibling respawns");
    }

    #[test]
    fn stability_resets_the_streak() {
        let mut t = RestartTracker::new(policy(2));
        assert!(matches!(t.on_crash(7, "b0"), RestartDecision::Restart { .. }));
        t.on_stable();
        // Budget refilled: another lone crash restarts instead of
        // quarantining, and the backoff restarts from attempt 1.
        match t.on_crash(7, "b0") {
            RestartDecision::Restart { attempt, .. } => assert_eq!(attempt, 1),
            RestartDecision::Quarantine => panic!("stable run must refill the budget"),
        }
        assert_eq!(t.crashes(), 2);
    }

    #[test]
    fn budget_zero_is_clamped_to_one_life() {
        let mut t = RestartTracker::new(policy(0));
        assert_eq!(t.on_crash(7, "b0"), RestartDecision::Quarantine);
    }
}

//! The shared worker pool: panic-contained task execution with the
//! condemn-and-replace protocol.
//!
//! Extracted from the campaign supervisor so that long-running services
//! (`mcc serve`) and one-shot campaigns (`run_campaign`) dispatch work
//! through the same machinery. The pool knows nothing about jobs,
//! retries, breakers, or journals — it runs opaque closures and reports
//! `(token, outcome)` pairs; all policy lives in the caller:
//!
//! * every task runs behind [`std::panic::catch_unwind`], so a panicking
//!   task is reported, never fatal;
//! * a **condemned** token ([`WorkerPool::condemn`]) marks an attempt the
//!   caller has given up on (deadline exceeded) while a worker is still
//!   running it: a replacement worker is spawned immediately, and when
//!   the stalled thread eventually finishes it notices the condemnation
//!   and exits without reporting — threads cannot be killed safely, but
//!   they can be made irrelevant;
//! * [`WorkerPool::shutdown`] wakes idle workers and joins them, unless a
//!   condemned thread may still be stalled inside a task, in which case
//!   handles are dropped so shutdown never inherits the stall.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A unit of pool work: an opaque closure producing the caller's result
/// type.
pub type Task<T> = Box<dyn FnOnce() -> T + Send + 'static>;

/// How one task ended.
#[derive(Debug)]
pub enum TaskOutcome<T> {
    /// The task returned normally.
    Done(T),
    /// The task panicked; the payload's text is carried along.
    Panicked(String),
}

/// Renders a panic payload as text (best effort).
pub fn panic_text(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The ready queue plus the shutdown flag, guarded by one lock.
type ReadyQueue<T> = Mutex<(VecDeque<(u64, Task<T>)>, bool)>;

struct PoolShared<T: Send> {
    /// (ready queue, shutdown flag) under one lock, signalled by `cv`.
    queue: ReadyQueue<T>,
    cv: Condvar,
    /// Tokens being run, each with whether it is condemned: a worker
    /// finishing a condemned one exits without reporting (its
    /// replacement is already running). Entered under the queue lock,
    /// so a token is always queued, running or finished.
    running: Mutex<HashMap<u64, bool>>,
}

/// A fixed-size pool of worker threads executing caller-tokenized tasks.
pub struct WorkerPool<T: Send + 'static> {
    shared: Arc<PoolShared<T>>,
    tx: mpsc::Sender<(u64, TaskOutcome<T>)>,
    rx: mpsc::Receiver<(u64, TaskOutcome<T>)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// A cloneable, thread-safe submission handle onto a [`WorkerPool`].
///
/// The pool itself owns the result [`mpsc::Receiver`] and so cannot be
/// shared across threads; a handle carries only the queue side, letting
/// many producers (`mcc serve` connection threads) feed one pool whose
/// results a single supervisor drains.
pub struct PoolHandle<T: Send + 'static> {
    shared: Arc<PoolShared<T>>,
}

impl<T: Send + 'static> Clone for PoolHandle<T> {
    fn clone(&self) -> Self {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Send + 'static> PoolHandle<T> {
    /// Enqueues one task under a caller-chosen token (see
    /// [`WorkerPool::submit`]).
    pub fn submit(&self, token: u64, task: Task<T>) {
        {
            let mut g = self.shared.queue.lock().unwrap();
            g.0.push_back((token, task));
        }
        self.shared.cv.notify_one();
    }
}

fn spawn_worker<T: Send + 'static>(
    shared: Arc<PoolShared<T>>,
    tx: mpsc::Sender<(u64, TaskOutcome<T>)>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || loop {
        let (token, task) = {
            let mut g = shared.queue.lock().unwrap();
            loop {
                if let Some(t) = g.0.pop_front() {
                    shared.running.lock().unwrap().insert(t.0, false);
                    break t;
                }
                if g.1 {
                    return;
                }
                g = shared.cv.wait(g).unwrap();
            }
        };
        let outcome = match catch_unwind(AssertUnwindSafe(task)) {
            Ok(v) => TaskOutcome::Done(v),
            Err(p) => TaskOutcome::Panicked(panic_text(p.as_ref())),
        };
        // A condemned attempt already has a replacement worker and a
        // recorded failure; this thread's job now is only to disappear.
        if shared.running.lock().unwrap().remove(&token) == Some(true) {
            return;
        }
        if tx.send((token, outcome)).is_err() {
            return;
        }
    })
}

impl<T: Send + 'static> WorkerPool<T> {
    /// Spawns a pool of `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> WorkerPool<T> {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new((VecDeque::new(), false)),
            cv: Condvar::new(),
            running: Mutex::new(HashMap::new()),
        });
        let (tx, rx) = mpsc::channel();
        let handles = (0..workers.max(1))
            .map(|_| spawn_worker(Arc::clone(&shared), tx.clone()))
            .collect();
        WorkerPool {
            shared,
            tx,
            rx,
            handles,
        }
    }

    /// Enqueues one task under a caller-chosen token. Tokens must be
    /// unique among in-flight tasks; reuse after resolution is fine.
    pub fn submit(&self, token: u64, task: Task<T>) {
        {
            let mut g = self.shared.queue.lock().unwrap();
            g.0.push_back((token, task));
        }
        self.shared.cv.notify_one();
    }

    /// A cloneable submission handle for producer threads.
    pub fn handle(&self) -> PoolHandle<T> {
        PoolHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Waits up to `timeout` for one task outcome.
    ///
    /// # Errors
    ///
    /// Propagates the underlying channel errors: `Timeout` when nothing
    /// resolved in time, `Disconnected` when every worker died (should be
    /// impossible — panics are contained).
    pub fn recv_timeout(
        &self,
        timeout: Duration,
    ) -> Result<(u64, TaskOutcome<T>), mpsc::RecvTimeoutError> {
        self.rx.recv_timeout(timeout)
    }

    /// Condemns an attempt a worker is still running: its eventual
    /// result will be discarded, and a replacement worker is spawned
    /// immediately so the pool's capacity is unaffected by the stalled
    /// thread. Returns whether it did; a queued or finished token is
    /// left alone and its outcome reported as usual.
    pub fn condemn(&mut self, token: u64) -> bool {
        match self.shared.running.lock().unwrap().get_mut(&token) {
            Some(condemned) if !*condemned => *condemned = true,
            _ => return false,
        }
        self.handles
            .push(spawn_worker(Arc::clone(&self.shared), self.tx.clone()));
        true
    }

    /// Shuts the pool down: wakes idle workers, which exit on the flag.
    /// Workers are joined unless a condemned thread may still be stalled
    /// inside a task — then handles are dropped, so shutdown never
    /// inherits the stall.
    pub fn shutdown(self) {
        {
            let mut g = self.shared.queue.lock().unwrap();
            g.1 = true;
        }
        self.shared.cv.notify_all();
        let none_condemned = !self.shared.running.lock().unwrap().values().any(|&c| c);
        if none_condemned {
            for h in self.handles {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn runs_tasks_and_reports_by_token() {
        let pool: WorkerPool<u64> = WorkerPool::new(3);
        for i in 0..10u64 {
            pool.submit(i, Box::new(move || i * i));
        }
        let mut got = std::collections::HashMap::new();
        for _ in 0..10 {
            let (tok, out) = pool.recv_timeout(Duration::from_secs(5)).unwrap();
            match out {
                TaskOutcome::Done(v) => {
                    got.insert(tok, v);
                }
                TaskOutcome::Panicked(p) => panic!("unexpected panic: {p}"),
            }
        }
        assert_eq!(got.len(), 10);
        assert_eq!(got[&7], 49);
        pool.shutdown();
    }

    #[test]
    fn panics_are_contained_and_reported() {
        let pool: WorkerPool<()> = WorkerPool::new(1);
        pool.submit(1, Box::new(|| panic!("kaboom")));
        pool.submit(2, Box::new(|| ()));
        let mut saw_panic = false;
        let mut saw_ok = false;
        for _ in 0..2 {
            match pool.recv_timeout(Duration::from_secs(5)).unwrap() {
                (1, TaskOutcome::Panicked(msg)) => {
                    assert!(msg.contains("kaboom"));
                    saw_panic = true;
                }
                (2, TaskOutcome::Done(())) => saw_ok = true,
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert!(saw_panic && saw_ok);
        pool.shutdown();
    }

    #[test]
    fn condemned_task_never_reports_and_replacement_serves() {
        let mut pool: WorkerPool<&'static str> = WorkerPool::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        pool.submit(
            1,
            Box::new(move || {
                started_tx.send(()).unwrap();
                std::thread::sleep(Duration::from_millis(150));
                "stalled"
            }),
        );
        // Condemn the stalled attempt once a worker runs it (a queued
        // token is not condemned); the replacement worker picks up the
        // next task even though the first thread is still sleeping.
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(pool.condemn(1));
        pool.submit(2, Box::new(|| "fresh"));
        let (tok, out) = pool.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(tok, 2);
        assert!(matches!(out, TaskOutcome::Done("fresh")));
        // The condemned token must never surface, even after it wakes.
        match pool.recv_timeout(Duration::from_millis(400)) {
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            other => panic!("condemned result leaked: {other:?}"),
        }
        pool.shutdown();
    }

    /// Condemning a token whose outcome is already waiting in the channel
    /// adds no worker: a one-worker pool still runs one task at a time.
    #[test]
    fn condemning_a_finished_task_adds_no_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let mut pool: WorkerPool<()> = WorkerPool::new(1);
        let (started_tx, started_rx) = mpsc::channel();
        pool.submit(1, Box::new(|| ()));
        // The only worker reaches task 2 after reporting task 1.
        pool.submit(2, Box::new(move || started_tx.send(()).unwrap()));
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(!pool.condemn(1), "a finished token is not condemned");
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for token in [3, 4] {
            let (active, peak) = (Arc::clone(&active), Arc::clone(&peak));
            pool.submit(
                token,
                Box::new(move || {
                    let now = active.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(300));
                    active.fetch_sub(1, Ordering::SeqCst);
                }),
            );
        }
        let mut tokens: Vec<u64> = (0..4)
            .map(|_| pool.recv_timeout(Duration::from_secs(5)).unwrap().0)
            .collect();
        tokens.sort_unstable();
        assert_eq!(tokens, [1, 2, 3, 4], "task 1 still reports");
        assert_eq!(
            peak.load(Ordering::SeqCst),
            1,
            "one worker, one task at a time"
        );
        pool.shutdown();
    }
}

//! The shared worker pool: panic-contained task execution with the
//! condemn-and-replace protocol.
//!
//! Extracted from the campaign supervisor so that long-running services
//! (`mcc serve`) and one-shot campaigns (`run_campaign`) run work on the
//! same machinery. The pool knows nothing about jobs, retries, breakers,
//! or journals. Its caller hands it a ready queue and an outcome sink: a
//! free worker pops the queue's next task itself and reports the
//! `(token, outcome)` pair to the sink on its own thread. All policy
//! lives in the caller:
//!
//! * the queue decides the order of service ([`ReadyQueue`]): the
//!   campaign's `VecDeque` is FIFO, the daemon's weighted-fair queue
//!   serves the smallest virtual finish first;
//! * every task runs behind [`std::panic::catch_unwind`], so a panicking
//!   task is reported, never fatal;
//! * a **condemned** token ([`WorkerPool::condemn`]) marks an attempt the
//!   caller has given up on (deadline exceeded) while a worker is still
//!   running it: a replacement worker is spawned immediately, and when
//!   the stalled thread eventually finishes it notices the condemnation
//!   and exits without reaching the sink — threads cannot be killed
//!   safely, but they can be made irrelevant;
//! * [`WorkerPool::shutdown`] wakes idle workers and joins them, unless a
//!   condemned thread may still be stalled inside a task, in which case
//!   handles are dropped so shutdown never inherits the stall.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

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

/// The caller's ready queue, which the pool's workers pop directly.
pub trait ReadyQueue<T>: Send + 'static {
    /// Takes the next task to run, with the token it was queued under.
    fn pop(&mut self) -> Option<(u64, Task<T>)>;
}

/// A FIFO queue: tasks run in the order they were pushed.
impl<T: 'static> ReadyQueue<T> for VecDeque<(u64, Task<T>)> {
    fn pop(&mut self) -> Option<(u64, Task<T>)> {
        self.pop_front()
    }
}

/// Where a worker reports each outcome, on its own thread.
type Sink<T> = Box<dyn Fn(u64, TaskOutcome<T>) + Send + Sync>;

struct PoolShared<T, Q> {
    /// (the caller's ready queue, shutdown flag) under one lock,
    /// signalled by `cv`.
    ready: Mutex<(Q, bool)>,
    cv: Condvar,
    /// Tokens being run, each with whether it is condemned: a worker
    /// finishing a condemned one exits without reporting (its
    /// replacement is already running). Entered under the queue lock,
    /// so a token is always queued, running or finished.
    running: Mutex<HashMap<u64, bool>>,
    sink: Sink<T>,
}

/// A fixed-size pool of worker threads serving one caller-owned ready
/// queue of tokenized tasks.
pub struct WorkerPool<T, Q> {
    shared: Arc<PoolShared<T, Q>>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

fn spawn_worker<T: Send + 'static, Q: ReadyQueue<T>>(
    shared: Arc<PoolShared<T, Q>>,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || loop {
        let (token, task) = {
            let mut g = shared.ready.lock().unwrap();
            loop {
                if let Some(t) = g.0.pop() {
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
        (shared.sink)(token, outcome);
    })
}

impl<T: Send + 'static, Q: ReadyQueue<T>> WorkerPool<T, Q> {
    /// Spawns a pool of `workers` threads (clamped to at least 1) that
    /// pop `queue` and report every outcome to `sink`.
    pub fn new(
        workers: usize,
        queue: Q,
        sink: impl Fn(u64, TaskOutcome<T>) + Send + Sync + 'static,
    ) -> WorkerPool<T, Q> {
        let shared = Arc::new(PoolShared {
            ready: Mutex::new((queue, false)),
            cv: Condvar::new(),
            running: Mutex::new(HashMap::new()),
            sink: Box::new(sink),
        });
        let handles = (0..workers.max(1))
            .map(|_| spawn_worker(Arc::clone(&shared)))
            .collect();
        WorkerPool {
            shared,
            handles: Mutex::new(handles),
        }
    }

    /// Enqueues through `push` under the queue's lock, then wakes one
    /// idle worker. Tokens must be unique among in-flight tasks; reuse
    /// after resolution is fine.
    pub fn submit(&self, push: impl FnOnce(&mut Q)) {
        push(&mut self.shared.ready.lock().unwrap().0);
        self.shared.cv.notify_one();
    }

    /// Reads or edits the queue under its lock without waking a worker:
    /// a depth probe, or the removal of a task no worker has taken.
    pub fn queue<R>(&self, f: impl FnOnce(&mut Q) -> R) -> R {
        f(&mut self.shared.ready.lock().unwrap().0)
    }

    /// Condemns an attempt a worker is still running: its eventual
    /// result never reaches the sink, and a replacement worker is
    /// spawned immediately so the pool's capacity is unaffected by the
    /// stalled thread. Returns whether it did; a queued or finished token
    /// is left alone and its outcome reported as usual.
    pub fn condemn(&self, token: u64) -> bool {
        match self.shared.running.lock().unwrap().get_mut(&token) {
            Some(condemned) if !*condemned => *condemned = true,
            _ => return false,
        }
        let worker = spawn_worker(Arc::clone(&self.shared));
        self.handles.lock().unwrap().push(worker);
        true
    }

    /// Shuts the pool down: wakes idle workers, which drain the queue and
    /// exit on the flag. Workers are joined unless a condemned thread may
    /// still be stalled inside a task — then handles are dropped, so
    /// shutdown never inherits the stall.
    pub fn shutdown(&self) {
        self.shared.ready.lock().unwrap().1 = true;
        self.shared.cv.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().unwrap());
        let none_condemned = !self.shared.running.lock().unwrap().values().any(|&c| c);
        if none_condemned {
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    type FifoPool<T> = WorkerPool<T, VecDeque<(u64, Task<T>)>>;
    type Outcomes<T> = mpsc::Receiver<(u64, TaskOutcome<T>)>;

    /// A pool over a FIFO queue whose sink sends on a channel.
    fn fifo_pool<T: Send + 'static>(workers: usize) -> (FifoPool<T>, Outcomes<T>) {
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::new(workers, VecDeque::new(), move |token, outcome| {
            let _ = tx.send((token, outcome));
        });
        (pool, rx)
    }

    fn push<T: Send + 'static>(pool: &FifoPool<T>, token: u64, task: Task<T>) {
        pool.submit(|q| q.push_back((token, task)));
    }

    #[test]
    fn runs_tasks_and_reports_by_token() {
        let (pool, rx) = fifo_pool::<u64>(3);
        for i in 0..10u64 {
            push(&pool, i, Box::new(move || i * i));
        }
        let mut got = std::collections::HashMap::new();
        for _ in 0..10 {
            let (tok, out) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
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
        let (pool, rx) = fifo_pool::<()>(1);
        push(&pool, 1, Box::new(|| panic!("kaboom")));
        push(&pool, 2, Box::new(|| ()));
        let mut saw_panic = false;
        let mut saw_ok = false;
        for _ in 0..2 {
            match rx.recv_timeout(Duration::from_secs(5)).unwrap() {
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
        let (pool, rx) = fifo_pool::<&'static str>(1);
        let (started_tx, started_rx) = mpsc::channel();
        push(
            &pool,
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
        push(&pool, 2, Box::new(|| "fresh"));
        let (tok, out) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(tok, 2);
        assert!(matches!(out, TaskOutcome::Done("fresh")));
        // The condemned token must never surface, even after it wakes.
        match rx.recv_timeout(Duration::from_millis(400)) {
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            other => panic!("condemned result leaked: {other:?}"),
        }
        pool.shutdown();
    }

    /// Condemning a token whose outcome already reached the sink adds no
    /// worker: a one-worker pool still runs one task at a time.
    #[test]
    fn condemning_a_finished_task_adds_no_worker() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let (pool, rx) = fifo_pool::<()>(1);
        let (started_tx, started_rx) = mpsc::channel();
        push(&pool, 1, Box::new(|| ()));
        // The only worker reaches task 2 after reporting task 1.
        push(&pool, 2, Box::new(move || started_tx.send(()).unwrap()));
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert!(!pool.condemn(1), "a finished token is not condemned");
        let active = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        for token in [3, 4] {
            let (active, peak) = (Arc::clone(&active), Arc::clone(&peak));
            push(
                &pool,
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
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap().0)
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

    /// A last-in, first-out queue.
    impl<T: 'static> ReadyQueue<T> for Vec<(u64, Task<T>)> {
        fn pop(&mut self) -> Option<(u64, Task<T>)> {
            Vec::pop(self)
        }
    }

    /// The pool serves its caller's queue in that queue's order, here a
    /// stack filled while the one worker is held.
    #[test]
    fn workers_serve_the_callers_queue_in_its_order() {
        let (tx, rx) = mpsc::channel();
        let pool = WorkerPool::new(1, Vec::new(), move |token, _| {
            let _ = tx.send(token);
        });
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (started_tx, started_rx) = mpsc::channel();
        pool.submit(|q| {
            q.push((
                0,
                Box::new(move || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                }) as Task<()>,
            ))
        });
        started_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        for token in 1..=5 {
            pool.submit(|q| q.push((token, Box::new(|| ()))));
        }
        assert_eq!(pool.queue(|q| q.len()), 5);
        release_tx.send(()).unwrap();
        let order: Vec<u64> = (0..6)
            .map(|_| rx.recv_timeout(Duration::from_secs(5)).unwrap())
            .collect();
        assert_eq!(order, [0, 5, 4, 3, 2, 1]);
        pool.shutdown();
    }
}

//! Advisory cross-process file locking for the cache's shared logs.
//!
//! Multiple `exp_all --jobs N` (or `mcc serve`) processes share one
//! `.mcc-cache/` directory. Within a process the [`crate::Cache`] mutex
//! serialises writers, but across processes two appends to `stats.log`
//! — or, worse, an eviction rewrite of `cache.log` racing an append —
//! could interleave torn counter deltas or shred the record log. This
//! module wraps BSD `flock(2)` behind an RAII guard: writers take the
//! exclusive lock for the duration of a write, readers of a consistent
//! snapshot may take it too, and on platforms without `flock` the guard
//! degrades to a no-op (the logs' per-record checksums still catch any
//! torn line, so corruption stays detectable — it just becomes possible
//! again).
//!
//! The lock is *advisory*: it only excludes other cooperating
//! `mcc-cache` writers, which is exactly the failure mode being closed.

use std::fs::File;

/// An exclusive advisory lock on a file, released on drop.
#[must_use = "the lock is released when the guard drops"]
pub struct ExclusiveLock<'a> {
    #[cfg_attr(not(unix), allow(dead_code))]
    file: &'a File,
    locked: bool,
}

#[cfg(unix)]
mod sys {
    // `flock` lives in the libc every Rust std binary already links;
    // declaring it directly avoids a dependency the container lacks.
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }

    pub const LOCK_EX: i32 = 2;
    pub const LOCK_UN: i32 = 8;

    /// Calls `flock`, retrying on EINTR. Returns whether the lock (or
    /// unlock) succeeded.
    pub fn flock_retry(fd: i32, op: i32) -> bool {
        loop {
            if unsafe { flock(fd, op) } == 0 {
                return true;
            }
            if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                return false;
            }
        }
    }
}

impl<'a> ExclusiveLock<'a> {
    /// Takes an exclusive advisory lock on `file`, blocking until other
    /// holders release it. Failure to lock (or a platform without
    /// `flock`) yields a no-op guard: writes proceed unlocked, protected
    /// only by their checksums.
    pub fn acquire(file: &'a File) -> ExclusiveLock<'a> {
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            let locked = sys::flock_retry(file.as_raw_fd(), sys::LOCK_EX);
            ExclusiveLock { file, locked }
        }
        #[cfg(not(unix))]
        {
            ExclusiveLock {
                file,
                locked: false,
            }
        }
    }
}

impl Drop for ExclusiveLock<'_> {
    fn drop(&mut self) {
        #[cfg(unix)]
        if self.locked {
            use std::os::unix::io::AsRawFd;
            sys::flock_retry(self.file.as_raw_fd(), sys::LOCK_UN);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    #[test]
    fn lock_round_trips_and_is_reentrant_across_guards() {
        let dir = std::env::temp_dir().join(format!("mcc-lock-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("locked.log");
        let f = File::create(&path).unwrap();
        {
            let g = ExclusiveLock::acquire(&f);
            assert!(cfg!(not(unix)) || g.locked);
            let mut w = &f;
            w.write_all(b"under lock\n").unwrap();
        }
        // A second acquisition after release must not deadlock.
        let g2 = ExclusiveLock::acquire(&f);
        drop(g2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[cfg(unix)]
    #[test]
    fn contended_lock_serialises_writers() {
        use std::sync::{Arc, Barrier};
        let dir = std::env::temp_dir().join(format!("mcc-lock-contend-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("contended.log");
        File::create(&path).unwrap();
        let barrier = Arc::new(Barrier::new(4));
        let mut handles = Vec::new();
        for t in 0..4 {
            let path = path.clone();
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let f = std::fs::OpenOptions::new().append(true).open(&path).unwrap();
                barrier.wait();
                for i in 0..50 {
                    let _g = ExclusiveLock::acquire(&f);
                    let mut w = &f;
                    w.write_all(format!("t{t} line {i}\n").as_bytes()).unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 200, "no torn or lost lines");
        assert!(text.lines().all(|l| l.starts_with('t') && l.contains(" line ")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

//! Host speed. A shared virtual CPU runs the same code at a speed that
//! drifts by tens of percent, at times twofold, over minutes as other
//! tenants load the host, with little of it visible as steal time. A fixed
//! burst of the benchmark's own runs between windows of requests while
//! nothing else is in flight: one-byte round trips between two threads over
//! a socket pair, timed by both threads' CPU time — system calls, context
//! switches and the caches and TLBs they churn. The bursts' trimmed mean
//! against [`REFERENCE_NS`] is the host's speed over the phase. No program
//! code runs in a burst, and CPU time leaves out any other process that
//! runs meanwhile, so a change to the program does not move the factor.

use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

/// A typical burst's CPU time, in ns, on the host the benchmark was written
/// on (a 2-vCPU Intel Xeon guest at 2.0 GHz, pinned to one vCPU): the
/// reference speed that scaled timings are reported at.
pub const REFERENCE_NS: f64 = 1_000_000.0;

/// Round trips between the two threads per burst.
const ROUND_TRIPS: usize = 100;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time of the calling thread, in ns.
fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec that outlives the call,
    // and clock_gettime writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    u64::try_from(ts.tv_sec).unwrap_or(0) * 1_000_000_000 + u64::try_from(ts.tv_nsec).unwrap_or(0)
}

/// CPU time, in ns, that [`ROUND_TRIPS`] one-byte round trips between this
/// thread and a helper over a socket pair take on both threads.
fn ping_pong() -> u64 {
    let Ok((mut near, mut far)) = UnixStream::pair() else {
        return 0;
    };
    let echo = std::thread::spawn(move || {
        let start = thread_cpu_ns();
        let mut b = [0u8; 1];
        for _ in 0..ROUND_TRIPS {
            if far
                .read_exact(&mut b)
                .and_then(|()| far.write_all(&b))
                .is_err()
            {
                break;
            }
        }
        thread_cpu_ns().saturating_sub(start)
    });
    let start = thread_cpu_ns();
    let mut b = [7u8; 1];
    for _ in 0..ROUND_TRIPS {
        if near
            .write_all(&b)
            .and_then(|()| near.read_exact(&mut b))
            .is_err()
        {
            break;
        }
    }
    let near_ns = thread_cpu_ns().saturating_sub(start);
    drop(near);
    near_ns + echo.join().unwrap_or(0)
}

/// The bursts taken over one phase.
#[derive(Debug, Clone, Default)]
pub struct Speed {
    burst_ns: Vec<u64>,
}

impl Speed {
    /// Takes one burst; returns its wall time, which the caller excludes
    /// from the phase it paused.
    pub fn sample(&mut self) -> Duration {
        let wall = Instant::now();
        self.burst_ns.push(ping_pong());
        wall.elapsed()
    }

    /// The host's speed relative to the reference: above 1 when bursts ran
    /// faster. 1 when no burst was taken.
    pub fn factor(&self) -> f64 {
        match trimmed_mean(&self.burst_ns) {
            Some(ns) if ns > 0.0 => REFERENCE_NS / ns,
            _ => 1.0,
        }
    }
}

/// The mean of the middle 80% of `v`.
fn trimmed_mean(v: &[u64]) -> Option<f64> {
    let mut v = v.to_vec();
    v.sort_unstable();
    let cut = v.len() / 10;
    let mid = &v[cut..v.len() - cut];
    (!mid.is_empty()).then(|| mid.iter().sum::<u64>() as f64 / mid.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_compares_the_trimmed_mean_with_the_reference() {
        let mut s = Speed::default();
        assert_eq!(s.factor(), 1.0);
        s.burst_ns = vec![1_000_000; 10];
        assert_eq!(s.factor(), 1.0);
        s.burst_ns = vec![500_000; 9];
        s.burst_ns.push(90_000_000);
        assert_eq!(s.factor(), 2.0);
        assert!(s.sample() > Duration::ZERO);
        assert_eq!(s.burst_ns.len(), 11);
        assert!(s.burst_ns[10] > 0, "a burst takes CPU time");
    }
}

//! What the host says about the benchmark's processes, read from `/proc`:
//! CPU time and peak memory of the benchmark's process tree, steal time of
//! the CPU it is pinned to, and the affinity actually applied.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// `/proc` reports process CPU time in `USER_HZ` ticks, which Linux fixes
/// at 100 per second on every mainstream architecture.
const USER_HZ: u64 = 100;

/// The CPUs this process may run on, from `Cpus_allowed_list`.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let Some(list) = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
    else {
        return Vec::new();
    };
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.trim().parse::<usize>(), hi.trim().parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// The fields of `/proc/<pid>/stat` after the command name, which may
/// itself hold spaces and parentheses.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &stat[stat.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// Whether `pid` is still a live process (a zombie has ended).
pub fn alive(pid: u32) -> bool {
    stat_fields(pid).is_some_and(|f| f.first().map(String::as_str) != Some("Z"))
}

/// Every live descendant of `root`, found by walking parent links.
pub fn descendants(root: u32) -> Vec<u32> {
    let mut parent_of = HashMap::new();
    if let Ok(dir) = std::fs::read_dir("/proc") {
        for entry in dir.flatten() {
            let Some(pid) = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            if let Some(ppid) = stat_fields(pid).and_then(|f| f.get(1)?.parse::<u32>().ok()) {
                parent_of.insert(pid, ppid);
            }
        }
    }
    let mut out = Vec::new();
    let mut frontier = vec![root];
    while let Some(p) = frontier.pop() {
        for (&child, &parent) in &parent_of {
            if parent == p {
                out.push(child);
                frontier.push(child);
            }
        }
    }
    out.sort_unstable();
    out
}

/// The benchmark process and all its live descendants.
fn tree() -> Vec<u32> {
    let me = std::process::id();
    let mut pids = vec![me];
    pids.extend(descendants(me));
    pids
}

/// User plus system CPU time of `pid`, all its threads included, in µs.
fn cpu_us(pid: u32) -> u64 {
    let Some(f) = stat_fields(pid) else { return 0 };
    // utime and stime are fields 14 and 15 of stat; `f` starts at field 3.
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (ticks(11) + ticks(12)) * 1_000_000 / USER_HZ
}

/// CPU time of each process in `pids`, in µs, keyed by pid.
fn cpu_snapshot(pids: &[u32]) -> HashMap<u32, u64> {
    pids.iter().map(|&p| (p, cpu_us(p))).collect()
}

/// CPU spent by `pids` between two snapshots, in µs.
fn cpu_delta(before: &HashMap<u32, u64>, after: &HashMap<u32, u64>) -> u64 {
    after
        .iter()
        .map(|(p, a)| a.saturating_sub(before.get(p).copied().unwrap_or(0)))
        .sum()
}

/// Peak resident set (`VmHWM`) of `pid`, in KiB.
fn peak_rss_kib(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or(0)
}

/// `(total, steal)` jiffies of one CPU's line in `/proc/stat`, or of the
/// all-CPU line when `cpu` is `None`.
fn cpu_jiffies(cpu: Option<usize>) -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let tag = cpu.map_or_else(|| "cpu".to_string(), |c| format!("cpu{c}"));
    for line in stat.lines() {
        let mut it = line.split_whitespace();
        if it.next() != Some(tag.as_str()) {
            continue;
        }
        let v: Vec<u64> = it.filter_map(|x| x.parse().ok()).collect();
        // user nice system idle iowait irq softirq steal [guest guest_nice];
        // guest time is already counted in user.
        let total = v.iter().take(8).sum();
        return (total, v.get(7).copied().unwrap_or(0));
    }
    (0, 0)
}

/// Share of a CPU's time the hypervisor stole between two readings.
fn steal_frac(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    after.1.saturating_sub(before.1) as f64 / total as f64
}

/// A snapshot of the counters a measured phase is judged by.
pub struct Meter {
    pids: Vec<u32>,
    cpu: HashMap<u32, u64>,
    jiffies: (u64, u64),
    pinned: Option<usize>,
    started: Instant,
}

/// What a [`Meter`] saw over a measured phase.
pub struct Reading {
    /// Wall time of the phase.
    pub wall: Duration,
    /// CPU time of the process tree over the phase, in µs.
    pub cpu_us: u64,
    /// Steal share of the pinned CPU (of all CPUs when not pinned).
    pub steal_frac: f64,
    /// Peak resident set summed over the process tree, in MiB.
    pub peak_rss_mb: f64,
}

impl Reading {
    /// Takes a pause out of the phase: its wall time, and the same CPU time,
    /// as the pause ran one thread on the one CPU.
    pub fn exclude(&mut self, pause: Duration) {
        self.wall = self.wall.saturating_sub(pause);
        self.cpu_us = self
            .cpu_us
            .saturating_sub(u64::try_from(pause.as_micros()).unwrap_or(u64::MAX));
    }
}

impl Meter {
    /// Starts metering the benchmark's current process tree.
    pub fn start() -> Meter {
        let pids = tree();
        let cpus = allowed_cpus();
        let pinned = (cpus.len() == 1).then(|| cpus[0]);
        Meter {
            cpu: cpu_snapshot(&pids),
            jiffies: cpu_jiffies(pinned),
            pids,
            pinned,
            started: Instant::now(),
        }
    }

    /// Ends the phase. Call before any process of the tree exits.
    pub fn stop(&self) -> Reading {
        let wall = self.started.elapsed();
        let cpu = cpu_snapshot(&self.pids);
        let jiffies = cpu_jiffies(self.pinned);
        let rss_kib: u64 = self.pids.iter().map(|&p| peak_rss_kib(p)).sum();
        Reading {
            wall,
            cpu_us: cpu_delta(&self.cpu, &cpu),
            steal_frac: steal_frac(self.jiffies, jiffies),
            peak_rss_mb: rss_kib as f64 / 1024.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_visible() {
        assert!(alive(std::process::id()));
        assert!(peak_rss_kib(std::process::id()) > 0);
        assert!(!allowed_cpus().is_empty());
        let (total, _) = cpu_jiffies(None);
        assert!(total > 0);
    }

    #[test]
    fn a_child_is_a_descendant_until_it_ends() {
        let mut child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .expect("sleep runs");
        assert!(descendants(std::process::id()).contains(&child.id()));
        child.kill().expect("kill the sleeper");
        child.wait().expect("reap the sleeper");
        assert!(!alive(child.id()));
    }
}

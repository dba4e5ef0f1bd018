//! This process's thread and file-descriptor counts, read from procfs, for
//! the tests that bound them (`lane_links`, `remote_channel`,
//! `session_poller`). Linux only.
//!
//! Include with `#[path = "support/procfs.rs"] mod procfs;`.

// Each test binary uses the subset its assertions need.
#![allow(dead_code)]

use std::time::{Duration, Instant};

/// The `Threads:` line of `/proc/self/status`.
fn process_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find_map(|l| l.strip_prefix("Threads:"));
    line.and_then(|v| v.trim().parse().ok())
        .expect("Threads: line")
}

/// The thread count once it has stopped changing: two equal reads 10 ms
/// apart. A joined thread leaves the kernel's count a moment after `join`
/// returns, and libtest starts the thread of the next test as the previous
/// one lets go of a shared lock, so a single read can be one off either
/// way. Waits for quiet, not for a value — the caller asserts the value.
pub fn settled_threads() -> usize {
    settled(process_threads)
}

/// The names of this process's threads once they have stopped changing,
/// as [`settled_threads`] waits for the count: a just-spawned thread
/// carries its spawner's name until it first runs and names itself.
pub fn thread_names() -> Vec<String> {
    settled(|| {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        let comm = |t: std::fs::DirEntry| std::fs::read_to_string(t.path().join("comm")).ok();
        let names = tasks.filter_map(|t| t.ok().and_then(comm));
        names.map(|n| n.trim().to_owned()).collect()
    })
}

/// `read()` once two reads 10 ms apart agree, or after 2 s.
fn settled<T: PartialEq>(read: impl Fn() -> T) -> T {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = read();
    loop {
        std::thread::sleep(Duration::from_millis(10));
        let now = read();
        if now == last || Instant::now() >= deadline {
            return now;
        }
        last = now;
    }
}

/// Open file descriptors, from `/proc/self/fd`.
pub fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count()
}

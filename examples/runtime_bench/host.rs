//! What the benchmark asks of the host rather than of Hermes: process CPU
//! and context switches (`getrusage`), peak RSS, thread count, a gated
//! counting allocator, a fixed CPU spin that shows how busy the neighbours
//! are, and the metadata every result file carries.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Process-wide resource usage since start.
#[derive(Clone, Copy, Debug, Default)]
pub struct Rusage {
    pub user_us: u64,
    pub sys_us: u64,
    pub max_rss_kib: u64,
    /// Voluntary + involuntary context switches.
    pub ctx_switches: u64,
}

impl Rusage {
    pub fn cpu_us(&self) -> u64 {
        self.user_us + self.sys_us
    }
}

#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
mod sys {
    /// `struct timeval` on 64-bit Linux: two `long`s.
    #[repr(C)]
    #[derive(Default)]
    pub struct Timeval {
        pub sec: i64,
        pub usec: i64,
    }

    /// `struct rusage` on 64-bit Linux: two `timeval`s, then fourteen
    /// `long`s in the order of `getrusage(2)`.
    #[repr(C)]
    #[derive(Default)]
    pub struct RawRusage {
        pub utime: Timeval,
        pub stime: Timeval,
        pub maxrss: i64,
        pub ixrss: i64,
        pub idrss: i64,
        pub isrss: i64,
        pub minflt: i64,
        pub majflt: i64,
        pub nswap: i64,
        pub inblock: i64,
        pub oublock: i64,
        pub msgsnd: i64,
        pub msgrcv: i64,
        pub nsignals: i64,
        pub nvcsw: i64,
        pub nivcsw: i64,
    }

    extern "C" {
        pub fn getrusage(who: i32, usage: *mut RawRusage) -> i32;
    }

    pub const RUSAGE_SELF: i32 = 0;
}

/// Resource usage of this process (all threads).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn rusage() -> Rusage {
    let mut raw = sys::RawRusage::default();
    // SAFETY: `raw` is a live, writable `struct rusage` with the 64-bit
    // Linux layout declared above, and `getrusage` writes nothing else.
    let rc = unsafe { sys::getrusage(sys::RUSAGE_SELF, &mut raw) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let us = |t: &sys::Timeval| t.sec as u64 * 1_000_000 + t.usec as u64;
    Rusage {
        user_us: us(&raw.utime),
        sys_us: us(&raw.stime),
        max_rss_kib: raw.maxrss as u64,
        ctx_switches: (raw.nvcsw + raw.nivcsw) as u64,
    }
}

/// Off Linux there is no `getrusage` layout to rely on: every CPU metric
/// reads 0 and the run reports itself incorrect (see `main`).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn rusage() -> Rusage {
    Rusage::default()
}

/// Live threads of this process, from `/proc/self/status` (0 if absent).
pub fn proc_threads() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("Threads:"))
                .and_then(|v| v.trim().parse().ok())
        })
        .unwrap_or(0)
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator plus two counters that only move while
/// [`set_alloc_counting`] is on, so the measured window pays one relaxed
/// load per allocation and nothing else.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn note(size: usize) {
        // Relaxed: the counters are statistics and publish no other data.
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(size as u64, Ordering::Relaxed);
        }
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::note(layout.size());
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::note(new_size);
        // SAFETY: `ptr`/`layout` describe a live block of this allocator,
        // as the caller vouched for.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` describe a live block of this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

pub fn set_alloc_counting(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// `(allocations, bytes requested)` counted so far.
pub fn alloc_counts() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

/// Counts the allocations `f` makes on this thread while no other thread
/// allocates (the probes run after the cluster is shut down), so the
/// count repeats exactly.
pub fn count_allocs<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let (before, _) = alloc_counts();
    set_alloc_counting(true);
    let out = f();
    set_alloc_counting(false);
    (out, alloc_counts().0 - before)
}

/// A fixed amount of single-threaded integer work, in milliseconds of wall
/// time. On a quiet host it repeats within a few percent; when a neighbour
/// holds the core it stretches, which is how a bad run is told from a bad
/// change.
pub fn spin_ms() -> f64 {
    const ROUNDS: u64 = 60_000_000;
    let start = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64() * 1e3
}

/// Host facts written into every result file.
#[derive(Clone, Debug)]
pub struct HostMeta {
    pub nproc: usize,
    pub cpu_model: String,
    pub git_sha: String,
    pub rustc: String,
    pub obs_recording: bool,
}

impl HostMeta {
    pub fn gather() -> HostMeta {
        HostMeta {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            cpu_model: cpu_model(),
            git_sha: git_sha(),
            rustc: rustc_version(),
            obs_recording: hermes::obs::recording_enabled(),
        }
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The checked-out commit, read from `.git` by hand (a benchmark checkout
/// may not be a repository at all, and then this is "unknown").
fn git_sha() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
    }
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

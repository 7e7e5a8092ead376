//! What the benchmark reads from the host: a monotonic clock, the process's
//! peak resident memory and CPU time, and a counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call.
#[inline]
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Pass-through allocator counting every allocation and reallocation, so
/// allocations per packet is a measured per-layer metric.
pub struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a relaxed counter that
// publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Peak resident set size (`VmHWM`) in MB; `None` where `/proc` is absent.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// User + system CPU time of the whole process in nanoseconds, at the
/// kernel's 10 ms accounting granularity (`USER_HZ` is 100 on Linux).
pub fn process_cpu_ns() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')')?.1;
    let mut f = rest.split_whitespace().skip(11);
    let utime: u64 = f.next()?.parse().ok()?;
    let stime: u64 = f.next()?.parse().ok()?;
    Some((utime + stime) * 10_000_000)
}

/// Pin the process to the CPU it is running on and return that CPU.
/// Threads spawned later inherit the mask, so the dispatcher and the shard
/// of `wire_par` share one CPU, as a run's slices share one: on a 2-vCPU
/// virtual machine the scheduler otherwise tosses a coin per run between
/// handing packets over by context switch and by inter-processor
/// interrupt, two cost levels a factor of two apart, and migrates
/// single-threaded runs between cores with different neighbours.
/// `None` (and no pinning) where the platform has no such call.
pub fn pin_to_current_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        use std::os::raw::c_int;
        // Declared here as `crates/netdev/src/sys.rs` declares its own:
        // the symbols resolve against the C library `std` already links.
        extern "C" {
            fn sched_getcpu() -> c_int;
            fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
        }
        // SAFETY: `sched_getcpu` takes no arguments and only reads.
        let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
        let mut mask = [0u64; 16];
        *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
        // SAFETY: `mask` is a live, initialised bit set of exactly
        // `size_of_val(&mask)` bytes, which is what the call reads; pid 0
        // names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
        (rc == 0).then_some(cpu)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

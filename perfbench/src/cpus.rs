//! Moving the benchmark's own thread between the CPUs it may run on.
//!
//! On a shared virtual machine each vCPU runs CPU-bound code at one of two
//! speeds, about 2x apart, for spells of a fraction of a second to tens of
//! seconds, and the two vCPUs switch independently.  A pure arithmetic
//! loop keeps its speed meanwhile, so the likely cause is another tenant on
//! the same physical core.  A single-threaded workload that stays on one vCPU
//! can spend a whole run in a slow spell; one that alternates between the
//! vCPUs rarely does.

/// Words of a kernel `cpu_set_t` (1024 CPUs).
const MASK_WORDS: usize = 16;

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

#[cfg(target_os = "linux")]
fn get() -> Option<[u64; MASK_WORDS]> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    (rc == 0).then_some(mask)
}

#[cfg(target_os = "linux")]
fn set(mask: &[u64; MASK_WORDS]) -> bool {
    // SAFETY: `mask` is a readable buffer of the size passed.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
fn get() -> Option<[u64; MASK_WORDS]> {
    None
}

#[cfg(not(target_os = "linux"))]
fn set(_: &[u64; MASK_WORDS]) -> bool {
    false
}

/// The CPUs the calling thread was allowed when created.  Dropping it
/// restores that set.
pub struct Cpus {
    original: Option<[u64; MASK_WORDS]>,
    allowed: Vec<usize>,
}

impl Cpus {
    /// Reads the calling thread's CPU set.  Where it cannot be read, the
    /// set is empty and `pin` does nothing.
    pub fn of_this_thread() -> Cpus {
        let original = get();
        let allowed = original
            .map(|mask| {
                (0..MASK_WORDS * 64)
                    .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
                    .collect()
            })
            .unwrap_or_default();
        Cpus { original, allowed }
    }

    /// The number of CPUs `pin` cycles through (0 if unknown).
    pub fn count(&self) -> usize {
        self.allowed.len()
    }

    /// Pins the calling thread to the `k`-th allowed CPU, cyclically.
    /// Returns whether the thread was moved.
    pub fn pin(&self, k: usize) -> bool {
        if self.allowed.len() < 2 {
            return false;
        }
        let cpu = self.allowed[k % self.allowed.len()];
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] = 1 << (cpu % 64);
        set(&mask)
    }
}

impl Drop for Cpus {
    fn drop(&mut self) {
        if let Some(mask) = &self.original {
            set(mask);
        }
    }
}

//! Spreads a single-threaded loop's work evenly over the CPUs the process
//! may run on.
//!
//! On a shared host each virtual CPU has its own neighbours: in one run
//! proofs took up to 19 % longer on one CPU than on the other. A thread
//! left alone stays on the CPU it started on, so a closed loop's
//! timings rode on whichever CPU it drew and runs differed by that much.
//! Moving the thread to the next CPU before each op gives every run the
//! same even share of each.

/// The CPUs of the process, and the thread's pinning to one of them in
/// turn; dropping it lets the thread run on all of them again.
pub struct Spread {
    cpus: Vec<usize>,
}

impl Spread {
    pub fn new() -> Spread {
        Spread { cpus: affinity::allowed() }
    }

    /// Moves the calling thread to the `k`-th CPU, counted round the set.
    pub fn pin(&self, k: usize) {
        if self.cpus.len() > 1 {
            affinity::set(&[self.cpus[k % self.cpus.len()]]);
        }
    }
}

impl Drop for Spread {
    fn drop(&mut self) {
        if self.cpus.len() > 1 {
            affinity::set(&self.cpus);
        }
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// Mask words: room for 1024 CPUs.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    /// The CPUs the calling thread may run on (empty if unknown).
    pub fn allowed() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is `WORDS * 8` bytes long, the size passed; pid 0
        // is the calling thread.
        if unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) } != 0 {
            return Vec::new();
        }
        (0..WORDS * 64).filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1).collect()
    }

    /// Restricts the calling thread to `cpus`. A failure leaves the thread
    /// where it was, which costs steadiness only.
    pub fn set(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: as in `allowed`.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn set(_: &[usize]) {}
}

//! CPU placement for the single-threaded offline work: the calling
//! thread is pinned to each CPU it may use in turn.
//!
//! Each vCPU of the reference host slows down on its own, by up to half,
//! for seconds to whole runs. A thread the scheduler leaves on one vCPU
//! makes a whole run as slow as that vCPU; moving it from CPU to CPU as
//! the run goes on samples every CPU alike. With fewer than two CPUs
//! nothing is pinned.

/// A CPU affinity mask, laid out as the kernel's `cpu_set_t` (1024 CPUs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mask([u64; 16]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut [u64; 16]) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const [u64; 16]) -> i32;
}

impl Mask {
    /// The calling thread's mask, or `None` if it cannot be read.
    fn current() -> Option<Mask> {
        let mut bits = [0u64; 16];
        // SAFETY: `bits` is a live, writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&bits), &mut bits) };
        (rc == 0).then_some(Mask(bits))
    }

    /// The mask holding only `cpu` (below 1024).
    fn only(cpu: usize) -> Mask {
        let mut bits = [0u64; 16];
        bits[cpu / 64] = 1 << (cpu % 64);
        Mask(bits)
    }

    /// The CPUs in the mask, ascending.
    fn cpus(&self) -> Vec<usize> {
        (0..1024)
            .filter(|c| (self.0[c / 64] >> (c % 64)) & 1 == 1)
            .collect()
    }

    /// Restricts the calling thread to this mask. Best effort: a thread
    /// that cannot be moved stays where the scheduler puts it, which
    /// costs steadiness, not correctness.
    fn apply(&self) {
        // SAFETY: `self.0` is a live buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), &self.0) };
    }
}

/// Runs `f` with the calling thread pinned to the `turn`-th of the CPUs
/// it may use (counting round them), then restores the thread's mask.
pub fn on_cpu<T>(turn: usize, f: impl FnOnce() -> T) -> T {
    let Some(original) = Mask::current() else {
        return f();
    };
    let cpus = original.cpus();
    if cpus.len() < 2 {
        return f();
    }
    Mask::only(cpus[turn % cpus.len()]).apply();
    let out = f();
    original.apply();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_round_trip_their_cpus() {
        assert_eq!(Mask::only(0).cpus(), vec![0]);
        assert_eq!(Mask::only(67).cpus(), vec![67]);
        let mine = Mask::current().expect("the calling thread's mask is readable");
        assert!(!mine.cpus().is_empty());
    }

    #[test]
    fn a_pinned_call_runs_on_its_cpu_and_the_mask_comes_back() {
        let before = Mask::current().expect("readable mask");
        let cpus = before.cpus();
        for turn in 0..3 {
            let inside = on_cpu(turn, || Mask::current().expect("readable mask"));
            if cpus.len() > 1 {
                assert_eq!(inside, Mask::only(cpus[turn % cpus.len()]));
            } else {
                assert_eq!(inside, before);
            }
            assert_eq!(Mask::current(), Some(before));
        }
    }
}

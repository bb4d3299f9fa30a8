//! Machine-speed calibration.
//!
//! Other tenants of the reference machine slow its CPU in episodes lasting
//! from a second to minutes, by up to 70%: over ten back-to-back 6 s runs
//! the simulator's 10th-percentile round time ranged from 8.8 to 15.3 ms.
//! A fixed CPU-bound kernel (sorting 64 Ki pseudo-random `u64`s) slows by
//! the same factor — the round/kernel time ratio stayed within 7.7–8.3 over
//! the same runs — while a memory-latency kernel did not. So every timed
//! operation is bracketed by kernel timings, and its times are scaled by
//! `REFERENCE_S / kernel time`: they read as the time the operation takes on
//! the reference machine when nothing else runs on it.

use std::os::raw::c_int;
use std::time::Instant;

/// Words of a Linux `cpu_set_t` (1024 CPUs).
const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut u64) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const u64) -> c_int;
}

/// Pins the calling thread to the highest-numbered CPU it may run on, and
/// returns that CPU. Call it before any other thread starts: threads and
/// child processes inherit the mask.
///
/// The merge thread and the I/O worker then share one CPU with the
/// calibration kernel, so the kernel sees the same contention they do.
/// Unpinned, a sort's hand-offs between the two threads waited on wake-ups
/// of whichever CPU another tenant held, and the calibrated
/// `sort_mem_1pass` throughput spread 17% between runs; pinned, 5%.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let mut mask = [0u64; CPU_SET_WORDS];
    let bytes = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of exactly `bytes` bytes, the
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..CPU_SET_WORDS * 64)
        .rev()
        .find(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .ok_or("the CPU affinity mask is empty")?;
    let mut one = [0u64; CPU_SET_WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly `bytes` bytes; pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, bytes, one.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

/// Kernel time on the reference machine (2-vCPU Intel Xeon VM) in its
/// uncontended state.
pub const REFERENCE_S: f64 = 1.15e-3;

pub struct Calibration {
    input: Vec<u64>,
    scratch: Vec<u64>,
    last: f64,
}

impl Calibration {
    pub fn new() -> Calibration {
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        let input: Vec<u64> = (0..1 << 16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let scratch = input.clone();
        let mut cal = Calibration {
            input,
            scratch,
            last: 0.0,
        };
        cal.last = cal.kernel_s();
        cal
    }

    /// The faster of two back-to-back kernel runs, in seconds.
    fn kernel_s(&mut self) -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..2 {
            self.scratch.copy_from_slice(&self.input);
            let t = Instant::now();
            self.scratch.sort_unstable();
            std::hint::black_box(&self.scratch);
            best = best.min(t.elapsed().as_secs_f64());
        }
        best
    }

    /// The scale for the operation that ran since the previous call (or
    /// since construction): `REFERENCE_S` over the mean kernel time just
    /// before and just after it.
    pub fn scale(&mut self) -> f64 {
        let now = self.kernel_s();
        let before = std::mem::replace(&mut self.last, now);
        REFERENCE_S / ((before + now) / 2.0)
    }
}

//! Output checks and process measurements shared by the workloads.

use pm_extsort::Record;

/// An order-independent digest of a record multiset: two sums of
/// independent 64-bit mixes of `(key, rid)`, plus the count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest {
    count: u64,
    sum_a: u64,
    sum_b: u64,
}

impl Digest {
    pub const EMPTY: Digest = Digest {
        count: 0,
        sum_a: 0,
        sum_b: 0,
    };

    pub fn add(&mut self, r: &Record) {
        let h = mix(r.key ^ mix(r.rid.wrapping_add(0x9E37_79B9_7F4A_7C15)));
        self.count += 1;
        self.sum_a = self.sum_a.wrapping_add(h);
        self.sum_b = self.sum_b.wrapping_add(mix(h ^ 0xD6E8_FEB8_6659_FD93));
    }

    pub fn of(records: &[Record]) -> Digest {
        let mut d = Digest::EMPTY;
        for r in records {
            d.add(r);
        }
        d
    }
}

/// The splitmix64 finalizer.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Streams over `output` once: keys must never decrease, and the records
/// must be the input's multiset.
pub fn sorted_permutation(output: &[Record], input: Digest) -> Result<(), String> {
    let mut digest = Digest::EMPTY;
    let mut last = 0u64;
    for (i, r) in output.iter().enumerate() {
        if r.key < last {
            return Err(format!("output out of key order at record {i}"));
        }
        last = r.key;
        digest.add(r);
    }
    if digest != input {
        return Err(format!(
            "output is not the input's multiset ({} records out, {} in)",
            digest.count, input.count
        ));
    }
    Ok(())
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// User plus system CPU time of the whole process, every thread (live or
/// joined) included, to the nanosecond.
pub fn process_cpu_s() -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two C longs on
    // Linux), and `clock_gettime` writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return Err(format!(
            "clock_gettime(CLOCK_PROCESS_CPUTIME_ID): {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_ignores_order_but_not_content() {
        let a = [Record::new(3, 0), Record::new(1, 1), Record::new(2, 2)];
        let mut b = a;
        b.reverse();
        assert_eq!(Digest::of(&a), Digest::of(&b));
        let mut c = a;
        c[0].rid = 9;
        assert_ne!(Digest::of(&a), Digest::of(&c));
    }

    #[test]
    fn order_and_multiset_are_checked() {
        let input = [Record::new(3, 0), Record::new(1, 1), Record::new(2, 2)];
        let digest = Digest::of(&input);
        let mut sorted = input;
        sorted.sort();
        assert!(sorted_permutation(&sorted, digest).is_ok());
        assert!(sorted_permutation(&input, digest).is_err());
        assert!(sorted_permutation(&sorted[..2], digest).is_err());
    }

    #[test]
    fn cpu_time_is_readable_and_monotone() {
        let a = process_cpu_s().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(process_cpu_s().unwrap() >= a);
    }
}

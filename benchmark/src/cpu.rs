//! Process CPU time at nanosecond resolution.
//!
//! `/proc/self/stat` counts in 10 ms ticks and `/proc/self/schedstat`
//! covers the main thread only, while the executor's workers are spawned
//! and joined inside every step; `CLOCK_PROCESS_CPUTIME_ID` sums all
//! threads, exited ones included.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

// Linux value; the benchmark box and CI are Linux x86-64/aarch64, where
// `time_t` and `long` are both 64 bits wide.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// User + system CPU seconds consumed by this process so far.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn process_cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call; libc is linked by std.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    #[test]
    fn cpu_clock_advances_with_work() {
        let before = super::process_cpu_seconds();
        let mut x = 1u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(super::process_cpu_seconds() > before);
    }
}

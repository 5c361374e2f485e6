//! Host-side measurements that belong to no layer of the program: the
//! drift probe and the process's peak resident set.

use std::hint::black_box;
use std::time::Instant;

/// Words in the probe's streamed buffer: 8 MiB, four times the 2 MiB L2
/// of the host the bounds were tuned on, so the stream half reaches past
/// the private caches.
const STREAM_WORDS: usize = 1 << 20;

/// The benchmark's own fixed kernel: a dependent integer chain (ALU) then
/// two read-modify-write passes over an 8 MiB buffer (memory stream).
/// No code of the repository runs in it, so its time moves only with the
/// host — a slow phase of the machine shows here as well as in the
/// workload, while a slow change to the program does not.
fn kernel_once(buffer: &mut [u64]) -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..6_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x = x.wrapping_add(i);
    }
    black_box(x);
    for _ in 0..2 {
        for w in buffer.iter_mut() {
            *w = w.wrapping_mul(3).wrapping_add(1);
        }
        black_box(&mut *buffer);
    }
    started.elapsed().as_secs_f64() * 1e3
}

/// Median of five runs of the fixed kernel, in milliseconds.
pub fn ref_kernel_ms() -> f64 {
    let mut buffer: Vec<u64> = (0..STREAM_WORDS as u64).collect();
    let times: Vec<f64> = (0..5).map(|_| kernel_once(&mut buffer)).collect();
    al_linalg::stats::median(&times)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}

//! The reference kernel every host time is calibrated against.
//!
//! The benchmark runs on shared machines whose speed drifts between
//! modes lasting seconds (a reference pass measured 17 ms in one mode
//! and 27 ms in the other on a 2-core box). Timing a fixed, std-only
//! unit of work just before and just after each op and scaling the op
//! by `REF_NOMINAL_MS / (mean of the two reference times)` cancels that
//! drift, so a calibrated time reads in "nominal-machine milliseconds".

use std::hint::black_box;
use std::time::Instant;

/// The reference kernel's time on the nominal machine, in ms. A
/// constant: changing it rescales every calibrated metric, so it is a
/// benchmark change, never part of a program change.
pub const REF_NOMINAL_MS: f64 = 2.5;

const SORT_KEYS: usize = 1 << 13;
const SORT_REPS: usize = 6;
const MATMUL_DIM: usize = 32;
const MATMUL_REPS: usize = 24;

/// One pass of the reference work: six rounds of sorting 8 Ki
/// pseudo-random keys and looking up 8 Ki keys by binary search, then
/// 24 products of two 32 × 32 `f32` matrices — branchy integer and FP
/// work in roughly the mix of the simulator's tree search and MLPs. The
/// buffers are allocated once and stay cache-resident, so the pass
/// measures the core's speed, not where the allocator put its pages.
/// Fully deterministic; the returned checksum keeps the work observable.
#[derive(Debug)]
pub struct Reference {
    keys: Vec<u32>,
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
}

impl Reference {
    /// Allocates the buffers.
    pub fn new() -> Reference {
        let n = MATMUL_DIM * MATMUL_DIM;
        Reference { keys: vec![0; SORT_KEYS], a: vec![0.0; n], b: vec![0.0; n], c: vec![0.0; n] }
    }

    /// Runs one pass of the reference work.
    pub fn run(&mut self) -> u64 {
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut found = 0_u64;
        for _ in 0..SORT_REPS {
            self.keys.iter_mut().for_each(|k| *k = next() as u32);
            self.keys.sort_unstable();
            let keys = black_box(&self.keys);
            for _ in 0..SORT_KEYS {
                let probe = keys[(next() % SORT_KEYS as u64) as usize] ^ (next() & 1) as u32;
                found += u64::from(keys.binary_search(&probe).is_ok());
            }
        }
        let unit = |v: u64| (v >> 40) as f32 / (1_u64 << 24) as f32;
        self.a.iter_mut().chain(self.b.iter_mut()).for_each(|v| *v = unit(next()));
        self.c.iter_mut().for_each(|v| *v = 0.0);
        for _ in 0..MATMUL_REPS {
            let (a, b) = (black_box(&self.a), &self.b);
            for i in 0..MATMUL_DIM {
                let c_row = &mut self.c[i * MATMUL_DIM..(i + 1) * MATMUL_DIM];
                for k in 0..MATMUL_DIM {
                    let aik = a[i * MATMUL_DIM + k];
                    for (cij, &bkj) in
                        c_row.iter_mut().zip(&b[k * MATMUL_DIM..(k + 1) * MATMUL_DIM])
                    {
                        *cij += aik * bkj;
                    }
                }
            }
        }
        found ^ self.c.iter().map(|v| u64::from(v.to_bits())).fold(0, u64::wrapping_add)
    }

    /// Times one pass, in ms.
    pub fn time(&mut self) -> f64 {
        let start = Instant::now();
        black_box(self.run());
        start.elapsed().as_secs_f64() * 1e3
    }
}

/// Times closures between reference passes.
#[derive(Debug)]
pub struct Clock {
    reference: Reference,
    /// The latest reference pass, in ms: the "before" of the next op.
    last_ref_ms: f64,
}

impl Clock {
    /// A clock whose first reference pass has already run (the pass
    /// before it warms the code and the buffers).
    pub fn new() -> Clock {
        let mut reference = Reference::new();
        reference.time();
        let last_ref_ms = reference.time();
        Clock { reference, last_ref_ms }
    }

    /// Re-measures the "before" pass, after untimed work.
    pub fn restart(&mut self) {
        self.last_ref_ms = self.reference.time();
    }

    /// Times `f` between two reference passes (back-to-back ops share
    /// one). Returns its result, its raw wall time in ms, the pass
    /// measured after it in ms, and the calibration factor
    /// `REF_NOMINAL_MS / mean(pass before, pass after)`.
    pub fn bracket<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64, f64, f64) {
        let start = Instant::now();
        let out = f();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        let after = self.reference.time();
        let factor = 2.0 * REF_NOMINAL_MS / (self.last_ref_ms + after);
        self.last_ref_ms = after;
        (out, raw_ms, after, factor)
    }
}

/// Median of `values` (mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Nearest-rank `pct`-th percentile of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], pct: f64) -> f64 {
    let s = sorted(values);
    let rank = ((pct / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "statistic of an empty sample");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_kernel_is_deterministic() {
        let mut r = Reference::new();
        assert_eq!(r.run(), r.run());
    }

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 90.0), 90.0);
        assert_eq!(percentile(&hundred, 50.0), 50.0);
        assert_eq!(percentile(&[7.0], 90.0), 7.0);
    }
}

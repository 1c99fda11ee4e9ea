//! The host-speed probe, and the stopwatch that normalizes every timing by
//! it.
//!
//! On a shared machine the same single-threaded code runs up to 1.8x
//! slower from one second to the next as neighbours load the physical
//! cores, and the slow spells last from seconds to minutes. A wall-clock
//! median over one run then moves by 10–30% between runs of the same
//! code, more than any bound worth setting.
//!
//! The probe is fixed work that belongs to the benchmark, not to the
//! program, in two parts timed apart. The latency part is a scalar
//! `sin`/`sqrt` dependency chain followed by a pointer chase through a
//! 256 KiB ring: it slows when a neighbour shares the core's pipeline or
//! its caches. The throughput part is a multiply-add loop over 8 KiB with
//! eight independent accumulators, which the compiler vectorizes: it
//! slows when a neighbour shares the core's vector units, as the
//! program's SIMD kernels do. The probe's time is the geometric mean of
//! the two parts. It runs on the client thread right before and right
//! after every timed call, and the call's wall time is scaled by
//! `PROBE_REFERENCE_NS / mean(probe before, probe after)`: the time the
//! call would have taken on a host where the probe takes
//! `PROBE_REFERENCE_NS`. The ring is swept once before each timed chase,
//! so what the program left in the caches does not move the probe; a
//! faster program still reads faster. What cancels is the host's speed.

use std::hint::black_box;
use std::time::Instant;

/// Probe time (ns) that normalized timings are expressed against: about
/// what the probe takes on a shared 2-vCPU x86-64 virtual machine in its
/// quieter spells, so normalized and wall figures are of one magnitude.
pub const PROBE_REFERENCE_NS: f64 = 230_000.0;

/// `sin`/`sqrt` steps in one probe.
const COMPUTE_STEPS: u32 = 10_000;
/// Ring entries: 256 KiB of `u32`, a core's private cache or less.
const RING_LEN: u32 = 1 << 16;
/// Pointer-chase steps in one probe.
const CHASE_STEPS: u32 = 20_000;
/// Length of each multiply-add operand: two of them fill 8 KiB.
const LANES_LEN: usize = 512;
/// Passes of the multiply-add loop over its operands in one probe.
const MULADD_PASSES: u32 = 2_000;

/// The probe's fixed work.
#[derive(Debug)]
struct Probe {
    /// `ring[i]` is the next index: one cycle through every entry, in a
    /// scrambled order the prefetchers cannot follow.
    ring: Vec<u32>,
    /// Multiply-add operands.
    a: Vec<f64>,
    b: Vec<f64>,
}

impl Probe {
    /// Builds the ring (Sattolo's shuffle, from a fixed LCG).
    fn new() -> Self {
        let mut ring: Vec<u32> = (0..RING_LEN).collect();
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        for i in (1..RING_LEN as usize).rev() {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let j = (state >> 33) as usize % i;
            ring.swap(i, j);
        }
        Probe {
            ring,
            a: (0..LANES_LEN).map(|i| 1.0 + i as f64 * 1e-3).collect(),
            b: (0..LANES_LEN).map(|i| 0.5 - i as f64 * 1e-4).collect(),
        }
    }

    /// Wall time (ns) of one probe: the geometric mean of its two parts.
    fn ns(&self) -> f64 {
        (self.latency_ns() * self.throughput_ns()).sqrt()
    }

    /// The scalar chain and the pointer chase.
    fn latency_ns(&self) -> f64 {
        // Untimed: bring the whole ring into cache.
        black_box(self.ring.iter().fold(0u32, |a, &b| a ^ b));
        let t = Instant::now();
        let mut x = black_box(0.5f64);
        let mut acc = 0.0f64;
        for k in 0..COMPUTE_STEPS {
            x = (x * 1.000_001 + 0.37).sin();
            acc += (x.abs() + f64::from(k)).sqrt();
        }
        let mut i = black_box(0u32);
        for _ in 0..CHASE_STEPS {
            i = self.ring[i as usize];
        }
        black_box((acc, i));
        t.elapsed().as_nanos() as f64
    }

    /// The multiply-add loop.
    fn throughput_ns(&self) -> f64 {
        let t = Instant::now();
        let mut sums = [0.0f64; 8];
        for _ in 0..MULADD_PASSES {
            let (a, b) = black_box((&self.a, &self.b));
            for (ca, cb) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
                for j in 0..8 {
                    sums[j] += ca[j] * cb[j];
                }
            }
        }
        black_box(sums);
        t.elapsed().as_nanos() as f64
    }
}

/// Times work between probes. Each probe closes one timed span and opens
/// the next, so a loop pays one probe per call.
#[derive(Debug)]
pub struct Stopwatch {
    probe: Probe,
    probes: Vec<f64>,
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Lap {
    /// Wall time, ns.
    pub wall_ns: f64,
    /// Host-speed scale: `PROBE_REFERENCE_NS` over the mean of the probes
    /// around the call.
    pub scale: f64,
}

impl Lap {
    /// Normalized time, ns.
    pub fn ns(&self) -> f64 {
        self.wall_ns * self.scale
    }
}

impl Stopwatch {
    /// Takes the first probe.
    pub fn start() -> Self {
        let probe = Probe::new();
        let first = probe.ns();
        Stopwatch {
            probe,
            probes: vec![first],
        }
    }

    /// Runs `f`, then probes.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> (T, Lap) {
        let t = Instant::now();
        let out = f();
        let wall_ns = t.elapsed().as_nanos() as f64;
        let before = *self.probes.last().expect("the first probe is taken at start");
        let after = self.probe.ns();
        self.probes.push(after);
        let scale = 2.0 * PROBE_REFERENCE_NS / (before + after);
        (out, Lap { wall_ns, scale })
    }

    /// Every probe time (ns) taken so far.
    pub fn probes(&self) -> &[f64] {
        &self.probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_through_every_entry() {
        let probe = Probe::new();
        let mut seen = vec![false; RING_LEN as usize];
        let mut i = 0u32;
        for _ in 0..RING_LEN {
            assert!(!seen[i as usize], "entry {i} visited twice");
            seen[i as usize] = true;
            i = probe.ring[i as usize];
        }
        assert_eq!(i, 0);
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn a_lap_is_scaled_by_the_probes_around_it() {
        let mut watch = Stopwatch::start();
        let (value, lap) = watch.time(|| 7);
        assert_eq!(value, 7);
        assert!(lap.wall_ns >= 0.0 && lap.scale > 0.0 && lap.scale.is_finite());
        let probes = watch.probes();
        assert_eq!(probes.len(), 2);
        let expected = 2.0 * PROBE_REFERENCE_NS / (probes[0] + probes[1]);
        assert_eq!(lap.scale, expected);
        assert_eq!(lap.ns(), lap.wall_ns * expected);
    }
}

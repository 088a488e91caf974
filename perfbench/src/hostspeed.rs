//! A host-speed probe: a fixed memory kernel, timed between
//! repetitions, that says how fast the host runs at the moment.
//!
//! On a shared virtual machine the speed of the caches and memory the
//! simulator leans on drifts by up to ~1.5x, within seconds and over
//! minutes, with user time following wall time. Plain ALU loops do not
//! follow the drift; random reads by several independent streams over
//! a table a few MiB large, past the host's per-core L2, do. The probe
//! is that kernel. It is frozen benchmark code, not program code, so a
//! change to the program never moves it. The time metrics are reported
//! at the probe's nominal host speed: durations divided by its
//! slowdown, rates multiplied by it.

use std::hint::black_box;
use std::time::Instant;

/// Table size: 4 MiB of `u64`, past the host's per-core L2.
const TABLE_WORDS: usize = 1 << 19;
/// Independent read streams, so the kernel is bound by how many
/// misses the memory system overlaps, as the simulator's table walks are.
const STREAMS: usize = 8;
/// Steps of one unit (each step reads once per stream).
const UNIT_STEPS: usize = 1 << 17;
/// A typical unit time on the 2-vCPU AVX2 virtual machine the bounds
/// were set on: the host speed the time metrics are reported at.
pub const NOMINAL_UNIT_S: f64 = 0.005;
/// Share of the measured work's time the probe adds after it.
const SHARE: f64 = 0.05;

/// The probe's table and the time its units took so far.
pub struct HostProbe {
    table: Vec<u64>,
    units: u64,
    secs: f64,
}

impl HostProbe {
    pub fn new() -> Self {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x = xorshift(x);
                x
            })
            .collect();
        HostProbe {
            table,
            units: 0,
            secs: 0.0,
        }
    }

    /// One unit of fixed work: each stream reads the table at the
    /// indices of its own xorshift sequence.
    fn unit(&self) -> u64 {
        let mask = TABLE_WORDS - 1;
        let mut state: [u64; STREAMS] = std::array::from_fn(|s| s as u64 + 1);
        let mut acc = 0u64;
        for _ in 0..UNIT_STEPS {
            for x in state.iter_mut() {
                *x = xorshift(*x);
                acc = acc.wrapping_add(self.table[*x as usize & mask]);
            }
        }
        acc
    }

    /// Runs the probe after `work_secs` of measured work, for about
    /// [`SHARE`] of it and at least one unit, so its samples spread over
    /// the run as the work does.
    pub fn after(&mut self, work_secs: f64) {
        let units = ((work_secs * SHARE / NOMINAL_UNIT_S).round() as u64).max(1);
        let t = Instant::now();
        for _ in 0..units {
            black_box(self.unit());
        }
        self.secs += t.elapsed().as_secs_f64();
        self.units += units;
    }

    /// Memory the probe's table holds resident for the whole run, MiB.
    pub fn resident_mb(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Units run so far.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// How much slower than nominal the host ran while probed: the mean
    /// unit time over [`NOMINAL_UNIT_S`].
    pub fn slowdown(&self) -> f64 {
        self.secs / self.units as f64 / NOMINAL_UNIT_S
    }
}

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

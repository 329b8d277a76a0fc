//! Host-speed calibration.
//!
//! The benchmark host is a shared virtual machine whose speed drifts by
//! ±15–20% over minutes, so two runs of the same code minutes apart differ
//! more than most changes worth measuring. A fixed kernel of the benchmark's
//! own (integer arithmetic, a binary heap, and random reads over 64 MiB, the
//! three things the simulator spends its time on) runs between the measured
//! iterations, and every reported host time is scaled by
//! `REFERENCE_S / median(kernel time)`: a run on a slow spell is scaled up
//! by as much as the kernel slowed down. The kernel is not program code, so
//! a change to the program cannot move it. Raw figures are printed beside
//! the scaled ones.

use crate::stats::median;
use std::collections::BinaryHeap;
use std::time::Instant;

/// Median kernel time on the reference host (2-core Intel Xeon VM), s.
pub const REFERENCE_S: f64 = 0.031;

/// Kernel timings taken so far in this run.
pub struct Calibrator {
    table: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibrator {
    /// Allocate the kernel's 64 MiB table.
    pub fn new() -> Self {
        Self {
            table: (0..8u64 << 20)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect(),
            samples: Vec::new(),
        }
    }

    /// Run the kernel once and record its time.
    pub fn tick(&mut self) {
        let t = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        for _ in 0..2_000_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        let mut heap = BinaryHeap::with_capacity(50_000);
        for _ in 0..50_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            heap.push(std::cmp::Reverse(x >> 16));
        }
        while let Some(std::cmp::Reverse(v)) = heap.pop() {
            x ^= v;
        }
        let mask = self.table.len() - 1;
        for _ in 0..150_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            x ^= self.table[(x >> 24) as usize & mask];
        }
        std::hint::black_box(x);
        self.samples.push(t.elapsed().as_secs_f64());
    }

    /// Median kernel time, s.
    pub fn median_s(&self) -> f64 {
        median(&self.samples)
    }

    /// Factor that maps a host time measured in this run to the reference
    /// host: below 1 when this run's host was slower than the reference.
    pub fn speed(&self) -> f64 {
        REFERENCE_S / self.median_s()
    }

    /// Resident size of the kernel's table, MiB. The table is created
    /// before the workload starts and stays resident, so the workload's own
    /// peak is the process peak minus this.
    pub fn table_mb(&self) -> f64 {
        (self.table.len() * std::mem::size_of::<u64>()) as f64 / (1024.0 * 1024.0)
    }

    /// Kernel samples taken.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

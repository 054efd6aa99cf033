//! Measurement helpers shared by tests, examples, and the bench harness.

use linview_matrix::flops;
use std::time::{Duration, Instant};

/// Wall-clock time plus FLOP count for one measured region.
#[derive(Debug, Clone, Copy, Default)]
pub struct RefreshStats {
    /// Elapsed wall-clock time.
    pub wall: Duration,
    /// Floating-point operations observed by the kernel counters.
    pub flops: u64,
}

impl RefreshStats {
    /// FLOP throughput in GFLOP/s (0 when no time elapsed).
    pub fn gflops(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.flops as f64 / secs / 1e9
        }
    }
}

/// Runs `f`, measuring wall time and FLOPs.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, RefreshStats) {
    let start_flops = flops::read();
    let start = Instant::now();
    let out = f();
    let wall = start.elapsed();
    let flops = flops::read().saturating_sub(start_flops);
    (out, RefreshStats { wall, flops })
}

/// Running sums of refresh stats, reporting averages — the "average view
/// refresh time" metric every figure in §7 plots — in constant space.
#[derive(Debug, Clone, Default)]
pub struct StatsAccumulator {
    count: usize,
    wall: Duration,
    flops: f64,
}

impl StatsAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one refresh.
    pub fn record(&mut self, s: RefreshStats) {
        self.count += 1;
        self.wall += s.wall;
        self.flops += s.flops as f64;
    }

    /// Number of recorded refreshes.
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean wall time per refresh.
    pub fn mean_wall(&self) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        self.wall / self.count as u32
    }

    /// Mean FLOPs per refresh.
    pub fn mean_flops(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.flops / self.count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_captures_flops() {
        let ((), stats) = measure(|| {
            flops::add(1234);
        });
        assert!(stats.flops >= 1234);
    }

    #[test]
    fn accumulator_averages() {
        let mut acc = StatsAccumulator::new();
        assert!(acc.is_empty());
        acc.record(RefreshStats {
            wall: Duration::from_millis(10),
            flops: 100,
        });
        acc.record(RefreshStats {
            wall: Duration::from_millis(30),
            flops: 300,
        });
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.mean_wall(), Duration::from_millis(20));
        assert_eq!(acc.mean_flops(), 200.0);
    }

    #[test]
    fn gflops_handles_zero_duration() {
        let s = RefreshStats {
            wall: Duration::ZERO,
            flops: 100,
        };
        assert_eq!(s.gflops(), 0.0);
    }
}

//! Seeded input generation. Everything a workload feeds the library —
//! base matrices, row-update events, reader access patterns — comes from
//! here and depends only on `--seed`; the library itself never sees the
//! seed (its own `UpdateStream`/`random_*` helpers are not used).

/// SplitMix64: tiny, fast, and good enough for benchmark inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `lane` so the matrices, the
    /// event rows and the reader pattern of one run do not share draws.
    pub fn new(seed: u64, lane: u64) -> Rng {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0xA076_1D64_78BD_642F));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[-1, 1)`.
    pub fn sym(&mut self) -> f64 {
        2.0 * self.unit() - 1.0
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// `len` draws of `scale · U[-1, 1)`.
    pub fn values(&mut self, len: usize, scale: f64) -> Vec<f64> {
        (0..len).map(|_| scale * self.sym()).collect()
    }
}

/// Zipf(`s`) over `0..n` by inverse-CDF lookup; `s = 0` is uniform.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let x = rng.unit();
        self.cdf.partition_point(|&c| c < x).min(self.cdf.len() - 1)
    }
}

/// One rank-1 row event: add `values` to row `row` of input `input`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    pub input: usize,
    pub row: usize,
    pub values: Vec<f64>,
}

/// The update stream of one workload: rows drawn Zipf(`skew`) over
/// `rows`, inputs taken round-robin, `cols[input]` values of magnitude
/// `scale` per event.
#[derive(Debug, Clone)]
pub struct EventStream {
    rng: Rng,
    zipf: Zipf,
    cols: Vec<usize>,
    scale: f64,
    next_input: usize,
}

impl EventStream {
    pub fn new(seed: u64, rows: usize, cols: &[usize], skew: f64, scale: f64) -> EventStream {
        EventStream {
            rng: Rng::new(seed, 2),
            zipf: Zipf::new(rows, skew),
            cols: cols.to_vec(),
            scale,
            next_input: 0,
        }
    }

    pub fn next_event(&mut self) -> Event {
        let input = self.next_input;
        self.next_input = (input + 1) % self.cols.len();
        Event {
            input,
            row: self.zipf.sample(&mut self.rng),
            values: self.rng.values(self.cols[input], self.scale),
        }
    }

    pub fn take(&mut self, count: usize) -> Vec<Event> {
        (0..count).map(|_| self.next_event()).collect()
    }
}

/// Row-major `rows × cols` entries of `scale · U[-1, 1)`.
pub fn dense(seed: u64, lane: u64, rows: usize, cols: usize, scale: f64) -> Vec<f64> {
    Rng::new(seed, lane).values(rows * cols, scale)
}

/// A square matrix whose spectral radius is ≈ `radius`: iid entries of
/// variance σ² give radius σ√n (circular law), and U[-1, 1) has σ² = 1/3.
/// Keeps `A¹⁶` and `(A·B)²` at magnitudes where relative error is meaningful.
pub fn contraction(seed: u64, lane: u64, n: usize, radius: f64) -> Vec<f64> {
    dense(seed, lane, n, n, radius * (3.0 / n as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_other_seed_differs() {
        let take = |seed| EventStream::new(seed, 64, &[8, 4], 1.0, 0.01).take(50);
        assert_eq!(take(7), take(7));
        assert_ne!(take(7), take(8));
        let events = take(7);
        assert!(events.iter().all(|e| e.row < 64));
        // Round-robin inputs with their own widths.
        assert_eq!(events[0].input, 0);
        assert_eq!(events[1].input, 1);
        assert_eq!(events[0].values.len(), 8);
        assert_eq!(events[1].values.len(), 4);
        assert!(events[0].values.iter().all(|v| v.abs() <= 0.01));
    }

    #[test]
    fn zipf_skews_toward_low_ranks_and_zero_is_uniform() {
        let mut rng = Rng::new(1, 0);
        let skewed = Zipf::new(100, 1.5);
        let hits = (0..10_000).filter(|_| skewed.sample(&mut rng) == 0).count();
        assert!(hits > 3000, "rank 0 drew {hits}/10000 at s = 1.5");
        let uniform = Zipf::new(100, 0.0);
        let hits = (0..10_000)
            .filter(|_| uniform.sample(&mut rng) == 0)
            .count();
        assert!(
            (40..250).contains(&hits),
            "rank 0 drew {hits}/10000 at s = 0"
        );
    }
}

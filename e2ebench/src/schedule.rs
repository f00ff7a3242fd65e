//! Seeded randomness: command order, route choice and arrival times all
//! derive from the benchmark's `--seed`, never from the clock.

use std::time::Duration;

/// SplitMix64: small, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`; `stream` separates independent uses of
    /// one seed (command order vs. arrival times) so that adding draws
    /// to one does not shift the other.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One open-loop arrival: when it is due (from the start of the phase)
/// and which route it asks for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Due time, measured from the start of the phase.
    pub due: Duration,
    /// Index into the route table.
    pub route: usize,
}

/// `count` Poisson arrivals at `rate_per_s`, each on a uniformly chosen
/// route of `routes`: exponential gaps, so arrivals never line up with
/// a periodic timer in the server.
pub fn poisson(seed: u64, rate_per_s: f64, count: usize, routes: usize) -> Vec<Arrival> {
    let mut gaps = Rng::new(seed, 1);
    let mut choice = Rng::new(seed, 2);
    let mut t = 0.0;
    (0..count)
        .map(|_| {
            t += -(1.0 - gaps.unit()).ln() / rate_per_s;
            Arrival {
                due: Duration::from_secs_f64(t),
                route: choice.below(routes),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_is_a_function_of_the_seed() {
        let a = poisson(7, 100.0, 500, 41);
        assert_eq!(a, poisson(7, 100.0, 500, 41));
        assert_ne!(a, poisson(8, 100.0, 500, 41));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.route < 41));
    }

    #[test]
    fn poisson_schedule_has_the_requested_rate() {
        let a = poisson(1, 100.0, 20_000, 3);
        let span = a.last().expect("non-empty").due.as_secs_f64();
        let rate = a.len() as f64 / span;
        assert!((rate - 100.0).abs() < 3.0, "rate {rate}");
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..36).collect();
        let mut b = a.clone();
        Rng::new(3, 0).shuffle(&mut a);
        Rng::new(3, 0).shuffle(&mut b);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..36).collect::<Vec<_>>());
        assert_ne!(a, (0..36).collect::<Vec<_>>());
    }
}

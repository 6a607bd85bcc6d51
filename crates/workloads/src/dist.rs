//! Seeded normal-distribution sampling for Table IV.
//!
//! The paper generates the ART segment lengths from a normal distribution
//! with μ = 2048, σ = 128 and seed 5 (Table IV). We implement Box–Muller
//! over a seeded `StdRng` so the sequence is reproducible across runs and
//! identical on every rank.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A seeded N(mu, sigma) sampler.
pub struct Normal {
    rng: StdRng,
    mu: f64,
    sigma: f64,
    /// Box–Muller produces pairs; cache the spare.
    spare: Option<f64>,
}

impl Normal {
    /// No sample lies further than this many `sigma` from `mu`: Box–Muller's
    /// radius is `√(−2 ln u)` with `u > f64::MIN_POSITIVE`, at most 37.64….
    pub const MAX_ABS_Z: f64 = 37.65;

    pub fn new(mu: f64, sigma: f64, seed: u64) -> Normal {
        Normal {
            rng: StdRng::seed_from_u64(seed),
            mu,
            sigma,
            spare: None,
        }
    }

    /// Next sample.
    pub fn sample(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return self.mu + self.sigma * z;
        }
        // Box–Muller transform.
        let u1: f64 = loop {
            let u: f64 = self.rng.random();
            if u > f64::MIN_POSITIVE {
                break u;
            }
        };
        let u2: f64 = self.rng.random();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        let z0 = r * theta.cos();
        let z1 = r * theta.sin();
        self.spare = Some(z1);
        self.mu + self.sigma * z0
    }

    /// `n` samples clamped to positive integers (segment lengths).
    pub fn sample_lengths(&mut self, n: usize) -> Vec<u32> {
        (0..n)
            .map(|_| self.sample().round().max(1.0) as u32)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_for_fixed_seed() {
        let a = Normal::new(2048.0, 128.0, 5).sample_lengths(1024);
        let b = Normal::new(2048.0, 128.0, 5).sample_lengths(1024);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Normal::new(2048.0, 128.0, 5).sample_lengths(64);
        let b = Normal::new(2048.0, 128.0, 6).sample_lengths(64);
        assert_ne!(a, b);
    }

    #[test]
    fn moments_are_roughly_right() {
        let xs = Normal::new(2048.0, 128.0, 5).sample_lengths(20_000);
        let n = xs.len() as f64;
        let mean = xs.iter().map(|&x| x as f64).sum::<f64>() / n;
        let var = xs.iter().map(|&x| (x as f64 - mean).powi(2)).sum::<f64>() / n;
        assert!((mean - 2048.0).abs() < 5.0, "mean {mean}");
        let sd = var.sqrt();
        assert!((sd - 128.0).abs() < 5.0, "sd {sd}");
    }

    #[test]
    fn max_abs_z_bounds_the_box_muller_radius() {
        let radius = (-2.0 * f64::MIN_POSITIVE.ln()).sqrt();
        assert!(radius < Normal::MAX_ABS_Z && Normal::MAX_ABS_Z - radius < 0.01);
    }

    #[test]
    fn lengths_are_positive() {
        // Even with a silly distribution the clamp keeps lengths valid.
        let xs = Normal::new(0.0, 100.0, 42).sample_lengths(1000);
        assert!(xs.iter().all(|&x| x >= 1));
    }
}

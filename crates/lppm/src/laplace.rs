//! The planar (polar) Laplace distribution of Geo-Indistinguishability.
//!
//! Andrés et al. (CCS 2013) perturb a location by a vector drawn from the
//! planar Laplace distribution with density `p(x) ∝ ε² e^(−ε·|x|) / (2π)`.
//! Its direction is uniform and its radius has density `ε²·r·e^(−εr)`, the
//! Gamma(2, ε) law (CDF `C(r) = 1 − (1 + εr)·e^(−εr)`), which is the sum of
//! two independent Exponential(ε) variables: `r = −ln(U₁·U₂)/ε` is exact.
//!
//! [`PlanarLaplace::sample`] draws both the direction and one of the two
//! uniforms with Marsaglia's polar method. It draws `(a, b)` uniform on
//! `[−1, 1)²` until `0 < s = a² + b² < 1`; then `s` is Uniform(0, 1) and
//! independent of the unit direction `(a, b)/√s`. One more uniform `u` on
//! `[0, 1)` completes the radius:
//!
//! ```text
//! r = −ln(s·(1 − u))/ε,   (dx, dy) = (a, b)·r/√s
//! ```
//!
//! One `ln` and one `sqrt` per record, no trigonometry and no `exp`. The
//! draws are the record's `(a, b)` pairs until one is accepted, then `u`.
//! Andrés et al. invert `C` through the `W₋₁` branch of the Lambert W
//! function instead; the tests check that both samplers release one law.

use crate::params::Epsilon;
use rand::Rng;

/// The planar Laplace noise distribution with privacy parameter ε.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{Epsilon, laplace::PlanarLaplace};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let noise = PlanarLaplace::new(Epsilon::new(0.01)?);
/// let (dx, dy) = noise.sample(&mut rng);
/// assert!(dx.is_finite() && dy.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanarLaplace {
    epsilon: Epsilon,
}

impl PlanarLaplace {
    /// Creates the distribution for a given ε.
    pub fn new(epsilon: Epsilon) -> Self {
        Self { epsilon }
    }

    /// The ε parameter.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// Mean noise distance `2/ε` in meters.
    pub fn mean_radius_m(&self) -> f64 {
        self.epsilon.expected_noise_radius_m()
    }

    /// Samples a planar noise vector `(dx, dy)` in meters: `(a, b)` pairs
    /// until one falls strictly inside the unit disc, off its centre, then
    /// one uniform `u`, as the module documentation sets out. With `s` in
    /// `(0, 1)` and `1 − u` in `(0, 1]` the radius is positive and finite.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        loop {
            let a: f64 = rng.gen_range(-1.0..1.0);
            let b: f64 = rng.gen_range(-1.0..1.0);
            let s = a * a + b * b;
            if s > 0.0 && s < 1.0 {
                let u: f64 = rng.gen_range(0.0..1.0);
                let radius = -(s * (1.0 - u)).ln() / self.epsilon.value();
                let scale = radius / s.sqrt();
                return (a * scale, b * scale);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// `W₋₁` on `[−1/e, 0)`, as the crate's former inversion sampler
    /// evaluated it: an asymptotic initial guess (Chapeau-Blondeau & Monir,
    /// 2002), then Halley iterations. Kept only for the reference sampler.
    fn scalar_lambert_w_minus1(x: f64) -> f64 {
        let mut w = if x < -0.25 {
            let p = -(2.0 * (1.0 + std::f64::consts::E * x)).sqrt();
            -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0
        } else {
            let l1 = (-x).ln();
            let l2 = (-l1).ln();
            l1 - l2 + l2 / l1
        };
        for _ in 0..64 {
            let ew = w.exp();
            let f = w * ew - x;
            if f.abs() < 1e-14 {
                break;
            }
            let denominator = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0);
            let step = f / denominator;
            w -= step;
            if step.abs() < 1e-14 * w.abs().max(1.0) {
                break;
            }
        }
        w
    }

    /// The planar Laplace radial CDF, `C(r) = 1 − (1 + εr)·e^(−εr)`.
    fn radial_cdf(epsilon: f64, r: f64) -> f64 {
        1.0 - (1.0 + epsilon * r) * (-epsilon * r).exp()
    }

    /// The one-sample Kolmogorov–Smirnov statistic of `sorted` against `cdf`.
    fn ks_one_sample(sorted: &[f64], cdf: impl Fn(f64) -> f64) -> f64 {
        let n = sorted.len() as f64;
        sorted.iter().enumerate().fold(0.0, |d, (i, &x)| {
            let c = cdf(x);
            d.max((i + 1) as f64 / n - c).max(c - i as f64 / n)
        })
    }

    /// The two-sample Kolmogorov–Smirnov statistic of two sorted samples.
    fn ks_two_sample(a: &[f64], b: &[f64]) -> f64 {
        let (mut i, mut j, mut d) = (0, 0, 0.0f64);
        while i < a.len() && j < b.len() {
            if a[i] <= b[j] {
                i += 1;
            } else {
                j += 1;
            }
            d = d.max((i as f64 / a.len() as f64 - j as f64 / b.len() as f64).abs());
        }
        d
    }

    /// The two-sample KS critical value at the 0.1 % level (c(α) = 1.949).
    fn ks_critical(n: usize, m: usize) -> f64 {
        1.949 * ((n + m) as f64 / (n as f64 * m as f64)).sqrt()
    }

    fn sorted(mut values: Vec<f64>) -> Vec<f64> {
        values.sort_by(f64::total_cmp);
        values
    }

    /// Samples per ε for the distribution tests: the 0.1 % one-sample KS
    /// critical value is 0.0031, the 1 % one 0.0026.
    const DRAWS: usize = 400_000;

    /// The ε values the distribution tests cover: both ends of the paper's
    /// sweep and one in between.
    const EPSILONS: [f64; 3] = [1e-4, 0.01, 0.5];

    /// The released vector `sample()` follows the planar Laplace law at
    /// every ε: its norm has the radial CDF `C(r)` and the mean `2/ε`, its
    /// direction is uniform over the eight octants, and the norm does not
    /// depend on the half-plane the vector points into. Derandomized (fixed
    /// seeds), with every check at the 0.1 % level or stricter.
    #[test]
    fn released_vectors_follow_the_planar_laplace_law() {
        for (k, &epsilon) in EPSILONS.iter().enumerate() {
            let dist = PlanarLaplace::new(Epsilon::new(epsilon).unwrap());
            let mut rng = StdRng::seed_from_u64(0x5eed + k as u64);
            let vectors: Vec<(f64, f64)> = (0..DRAWS).map(|_| dist.sample(&mut rng)).collect();
            let norm = |&(dx, dy): &(f64, f64)| dx.hypot(dy);
            assert!(vectors.iter().all(|&(dx, dy)| dx.is_finite() && dy.is_finite()));

            // Radial law: one-sample KS against C(r).
            let radii = sorted(vectors.iter().map(norm).collect());
            let d = ks_one_sample(&radii, |r| radial_cdf(epsilon, r));
            let critical = 1.949 / (DRAWS as f64).sqrt();
            assert!(d < critical, "ε = {epsilon}: KS D = {d} against C(r), critical {critical}");

            // Mean 2/ε, within four standard errors (the radius's standard
            // deviation is √2/ε).
            let mean = radii.iter().sum::<f64>() / DRAWS as f64;
            let tolerance = 4.0 * 2f64.sqrt() / epsilon / (DRAWS as f64).sqrt();
            assert!(
                (mean - 2.0 / epsilon).abs() < tolerance,
                "ε = {epsilon}: mean {mean} against {}",
                2.0 / epsilon
            );

            // Uniform direction: octant counts, χ² with 7 degrees of
            // freedom against its 0.1 % critical value 24.32.
            let mut octants = [0usize; 8];
            for &(dx, dy) in &vectors {
                let octant = usize::from(dy < 0.0) * 4
                    + usize::from(dx < 0.0) * 2
                    + usize::from(dx.abs() < dy.abs());
                octants[octant] += 1;
            }
            let expected = DRAWS as f64 / 8.0;
            let chi2: f64 = octants.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
            assert!(chi2 < 24.32, "ε = {epsilon}: octants {octants:?}, χ² = {chi2}");

            // Radius independent of direction: the norms of vectors pointing
            // into opposite half-planes share one law (two-sample KS).
            for axis in ["x", "y"] {
                let (positive, negative): (Vec<_>, Vec<_>) = vectors
                    .iter()
                    .copied()
                    .partition(|&(dx, dy)| if axis == "x" { dx > 0.0 } else { dy > 0.0 });
                let positive = sorted(positive.iter().map(norm).collect());
                let negative = sorted(negative.iter().map(norm).collect());
                let d = ks_two_sample(&positive, &negative);
                let critical = ks_critical(positive.len(), negative.len());
                assert!(
                    d < critical,
                    "ε = {epsilon}: norms split on the sign of {axis} differ, D = {d} ≥ {critical}"
                );
            }
        }
    }

    /// The Andrés et al. sampler by inversion of the radial CDF through
    /// `W₋₁`: a uniform angle θ, then `r = −(W₋₁((p − 1)/e) + 1)/ε`.
    fn lambert_w_reference_sample(epsilon: f64, rng: &mut StdRng) -> (f64, f64) {
        let theta = rng.gen_range(0.0..std::f64::consts::TAU);
        let p: f64 = rng.gen_range(0.0..1.0);
        let radius = if p == 0.0 {
            0.0
        } else {
            -(scalar_lambert_w_minus1((p - 1.0) / std::f64::consts::E) + 1.0) / epsilon
        };
        (radius * theta.cos(), radius * theta.sin())
    }

    /// `sample()` and the `W₋₁` inversion sampler release the same law:
    /// the two-sample KS test cannot tell their norms apart at any ε.
    #[test]
    fn released_radii_match_the_lambert_w_reference_sampler() {
        for (k, &epsilon) in EPSILONS.iter().enumerate() {
            let dist = PlanarLaplace::new(Epsilon::new(epsilon).unwrap());
            let mut rng = StdRng::seed_from_u64(0xa11ce + k as u64);
            let released = sorted(
                (0..DRAWS)
                    .map(|_| {
                        let (dx, dy) = dist.sample(&mut rng);
                        dx.hypot(dy)
                    })
                    .collect(),
            );
            let mut rng = StdRng::seed_from_u64(0xb0b + k as u64);
            let reference = sorted(
                (0..DRAWS)
                    .map(|_| {
                        let (dx, dy) = lambert_w_reference_sample(epsilon, &mut rng);
                        dx.hypot(dy)
                    })
                    .collect(),
            );
            let d = ks_two_sample(&released, &reference);
            let critical = ks_critical(DRAWS, DRAWS);
            assert!(d < critical, "ε = {epsilon}: D = {d} against the W₋₁ sampler, {critical}");
        }
    }

    /// The reference sampler's `W₋₁` is right, so a two-sample test against
    /// it compares with the true law.
    #[test]
    fn lambert_w_known_values() {
        // W-1(-1/e) = -1.
        let w = scalar_lambert_w_minus1(-(-1.0f64).exp() + 1e-15);
        assert!((w + 1.0).abs() < 1e-3, "got {w}");
        // W-1(-0.1) ≈ -3.577152.
        let w = scalar_lambert_w_minus1(-0.1);
        assert!((w + 3.577152).abs() < 1e-5, "got {w}");
        // W-1(-0.2) ≈ -2.542641.
        let w = scalar_lambert_w_minus1(-0.2);
        assert!((w + 2.542641).abs() < 1e-5, "got {w}");
        // The defining identity w e^w = x holds across the domain.
        for &x in &[-0.3, -0.25, -0.15, -0.05, -0.01, -0.001] {
            let w = scalar_lambert_w_minus1(x);
            assert!((w * w.exp() - x).abs() < 1e-10, "identity fails at {x}: w={w}");
            assert!(w <= -1.0, "W-1 branch must be <= -1, got {w} at {x}");
        }
    }

    #[test]
    fn radius_distribution_matches_theory() {
        // For the polar Laplace, E[r] = 2/epsilon and the CDF at the mean is
        // 1 - 3 e^-2 ≈ 0.594.
        let mut rng = StdRng::seed_from_u64(42);
        let eps = Epsilon::new(0.01).unwrap();
        let dist = PlanarLaplace::new(eps);
        assert_eq!(dist.epsilon(), eps);
        assert_eq!(dist.mean_radius_m(), 200.0);

        let n = 40_000;
        let radii: Vec<f64> = (0..n)
            .map(|_| {
                let (dx, dy) = dist.sample(&mut rng);
                dx.hypot(dy)
            })
            .collect();
        assert!(radii.iter().all(|&r| r >= 0.0 && r.is_finite()));
        let mean = radii.iter().sum::<f64>() / n as f64;
        assert!((mean - 200.0).abs() < 4.0, "mean radius {mean}");
        let below_mean = radii.iter().filter(|&&r| r <= 200.0).count() as f64 / n as f64;
        assert!((below_mean - 0.594).abs() < 0.02, "CDF at mean {below_mean}");
    }

    #[test]
    fn noise_vector_is_isotropic() {
        let mut rng = StdRng::seed_from_u64(7);
        let dist = PlanarLaplace::new(Epsilon::new(0.05).unwrap());
        let n = 20_000;
        let samples: Vec<(f64, f64)> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean_x = samples.iter().map(|s| s.0).sum::<f64>() / n as f64;
        let mean_y = samples.iter().map(|s| s.1).sum::<f64>() / n as f64;
        // Isotropy: both components average to ~0 (mean radius is 40 m here).
        assert!(mean_x.abs() < 1.5, "mean x {mean_x}");
        assert!(mean_y.abs() < 1.5, "mean y {mean_y}");
        // All four quadrants are hit roughly equally.
        let q1 = samples.iter().filter(|s| s.0 > 0.0 && s.1 > 0.0).count() as f64 / n as f64;
        assert!((q1 - 0.25).abs() < 0.02, "first quadrant fraction {q1}");
    }

    #[test]
    fn smaller_epsilon_means_larger_noise() {
        let mut rng = StdRng::seed_from_u64(11);
        let low = PlanarLaplace::new(Epsilon::new(0.001).unwrap());
        let high = PlanarLaplace::new(Epsilon::new(0.1).unwrap());
        let n = 5_000;
        let mut mean_radius = |dist: &PlanarLaplace| {
            (0..n)
                .map(|_| {
                    let (dx, dy) = dist.sample(&mut rng);
                    dx.hypot(dy)
                })
                .sum::<f64>()
                / n as f64
        };
        let mean_low = mean_radius(&low);
        let mean_high = mean_radius(&high);
        assert!(mean_low > 50.0 * mean_high, "low {mean_low} vs high {mean_high}");
    }
}

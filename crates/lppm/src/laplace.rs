//! The planar (polar) Laplace distribution of Geo-Indistinguishability.
//!
//! Andrés et al. (CCS 2013) perturb a location by a vector drawn from the
//! planar Laplace distribution with density `p(x) ∝ ε² e^(−ε·|x|) / (2π)`.
//! Sampling is done in polar coordinates: the angle is uniform in `[0, 2π)`
//! and the radius follows the distribution with CDF
//! `C(r) = 1 − (1 + εr)·e^(−εr)`, inverted via the `W₋₁` branch of the
//! Lambert W function:
//!
//! ```text
//! r = −(1/ε)·( W₋₁((p − 1)/e) + 1 ),   p ~ Uniform(0, 1)
//! ```
//!
//! `W₋₁` is evaluated by one Halley routine over a fixed number of lanes.
//! The GEO-I kernel inverts four records' radii at a time with it: each lane
//! runs exactly the scalar operation sequence (no fused multiply-add, no
//! reciprocal multiply, no approximation) and the lanes only share the
//! loop, so independent `exp` calls overlap. [`lambert_w_minus1`] and
//! [`PlanarLaplace::sample`] are its one-lane case and return the same
//! bits. The angle and the probability are drawn per record, in record
//! order, before any radius is computed, so batching never reorders draws.

use crate::params::Epsilon;
use rand::Rng;

/// The number of independent Halley iterations a chunked GEO-I kernel
/// interleaves: four records' radii at a time.
pub(crate) const LANES: usize = 4;

/// Evaluates the `W₋₁` branch of the Lambert W function for `x ∈ [−1/e, 0)`.
///
/// Uses an initial asymptotic guess followed by Halley iterations; accurate to
/// better than 10⁻¹⁰ over the domain needed by the planar Laplace sampler.
/// This is the one-lane case of the interleaved routine the chunked GEO-I
/// kernel runs, so both return the same bits for the same `x`.
///
/// # Panics
///
/// Panics if `x` is outside `[−1/e, 0)`, which cannot happen for inputs
/// derived from a probability in `[0, 1)`.
pub fn lambert_w_minus1(x: f64) -> f64 {
    let min_x = -(-1.0f64).exp(); // −1/e
    assert!((min_x..0.0).contains(&x), "lambert_w_minus1 is only defined on [-1/e, 0), got {x}");
    match halley([x], [false]) {
        [w] => w,
    }
}

/// `W₋₁` of every lane of `x` whose `finished` flag is clear, by Halley
/// iterations interleaved across the lanes.
///
/// Each lane runs exactly the scalar operation sequence — same initial
/// guess, same update, same two stopping tests, at most 64 iterations — so
/// a lane's result does not depend on its neighbours or on `N`. The lanes
/// only share the loop, which lets independent `exp` calls overlap. A lane
/// that starts finished is padding (or has nothing to invert) and comes
/// back untouched, as `0.0`.
fn halley<const N: usize>(x: [f64; N], mut finished: [bool; N]) -> [f64; N] {
    let mut w = [0.0; N];
    for ((w, &x), &finished) in w.iter_mut().zip(&x).zip(&finished) {
        if !finished {
            *w = initial_guess(x);
        }
    }
    for _ in 0..64 {
        let mut all_finished = true;
        for ((w, &x), finished) in w.iter_mut().zip(&x).zip(finished.iter_mut()) {
            if *finished {
                continue;
            }
            let ew = w.exp();
            let f = *w * ew - x;
            if f.abs() < 1e-14 {
                *finished = true;
                continue;
            }
            let denominator = ew * (*w + 1.0) - (*w + 2.0) * f / (2.0 * *w + 2.0);
            let step = f / denominator;
            *w -= step;
            if step.abs() < 1e-14 * w.abs().max(1.0) {
                *finished = true;
                continue;
            }
            all_finished = false;
        }
        if all_finished {
            break;
        }
    }
    w
}

/// Initial guess (Chapeau-Blondeau & Monir, 2002): series in sqrt(2(1+e x))
/// near the branch point, logarithmic asymptote near zero.
fn initial_guess(x: f64) -> f64 {
    if x < -0.25 {
        let p = -(2.0 * (1.0 + std::f64::consts::E * x)).sqrt();
        -1.0 + p - p * p / 3.0 + 11.0 * p * p * p / 72.0
    } else {
        let l1 = (-x).ln();
        let l2 = (-l1).ln();
        l1 - l2 + l2 / l1
    }
}

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

    /// Samples a noise radius in meters (the magnitude of the perturbation).
    pub fn sample_radius<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match self.radii([rng.gen_range(0.0..1.0)], [true]) {
            [radius] => radius,
        }
    }

    /// Samples a planar noise vector `(dx, dy)` in meters.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> (f64, f64) {
        match self.sample_lanes(rng, 1) {
            [noise] => noise,
        }
    }

    /// Samples the noise vectors of the first `count` lanes (at most `N`):
    /// each lane draws its angle θ, then its probability p, in lane order —
    /// the draws [`PlanarLaplace::sample`] makes, one lane after another.
    /// The radii are then inverted together by the interleaved Halley
    /// routine. Lanes from `count` on are padding: they draw nothing and
    /// come back `(0, 0)`.
    pub(crate) fn sample_lanes<const N: usize, R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        count: usize,
    ) -> [(f64, f64); N] {
        let mut theta = [0.0; N];
        let mut p = [0.0; N];
        let mut live = [false; N];
        for ((theta, p), live) in theta.iter_mut().zip(&mut p).zip(&mut live).take(count) {
            *theta = rng.gen_range(0.0..std::f64::consts::TAU);
            *p = rng.gen_range(0.0..1.0);
            *live = true;
        }
        let radii = self.radii(p, live);
        let mut noise = [(0.0, 0.0); N];
        for ((noise, &theta), &radius) in noise.iter_mut().zip(&theta).zip(&radii) {
            *noise = (radius * theta.cos(), radius * theta.sin());
        }
        noise
    }

    /// The radius of every live lane's probability `p ∈ [0, 1)`, by inverting
    /// the radial CDF: `r = −(W₋₁((p − 1)/e) + 1)/ε`. `p = 0` gives `r = 0`
    /// without inverting anything; dead lanes give `0`.
    fn radii<const N: usize>(&self, p: [f64; N], live: [bool; N]) -> [f64; N] {
        let mut x = [0.0; N];
        let mut finished = [true; N];
        for (((x, finished), &p), &live) in x.iter_mut().zip(&mut finished).zip(&p).zip(&live) {
            *x = (p - 1.0) / std::f64::consts::E;
            *finished = !live || p == 0.0;
        }
        let w = halley(x, finished);
        let mut radii = [0.0; N];
        for ((radius, &w), &finished) in radii.iter_mut().zip(&w).zip(&finished) {
            if !finished {
                *radius = -(w + 1.0) / self.epsilon.value();
            }
        }
        radii
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The scalar `W₋₁` this crate shipped before the lanes: guess, then a
    /// Halley loop that breaks on either stopping test. Kept verbatim (minus
    /// the domain assert) as the bit-for-bit reference.
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

    /// A derandomized sweep of `[−1/e, 0)`: an even grid, dense runs at the
    /// branch point, around the −0.25 switch of the initial guess and down
    /// towards 0, and the arguments the sampler really feeds in.
    fn lambert_domain() -> Vec<f64> {
        let min_x = -(-1.0f64).exp();
        let mut xs = vec![min_x, -0.25, -f64::MIN_POSITIVE, -f64::from_bits(1)];
        xs.extend((0..10_000).map(|i| min_x * (1.0 - f64::from(i) / 10_000.0)));
        for k in 1..=17 {
            let gap = 10f64.powi(-k);
            xs.extend([min_x * (1.0 - gap), min_x + gap, min_x + 3.0 * gap]);
        }
        for k in 0..200u32 {
            let offset = f64::from(k) * 1e-17;
            xs.extend([-0.25 - offset, -0.25 + offset]);
        }
        xs.extend((1..=300).map(|k| -(10f64.powi(-k))));
        let mut rng = StdRng::seed_from_u64(0x1a3b);
        xs.extend((0..4_000).map(|_| {
            let p: f64 = rng.gen_range(0.0..1.0);
            (p - 1.0) / std::f64::consts::E
        }));
        xs.retain(|x| (min_x..0.0).contains(x));
        xs
    }

    #[test]
    fn interleaved_lanes_match_the_scalar_halley_loop_bit_for_bit() {
        let xs = lambert_domain();
        assert!(xs.len() > 14_000, "domain sweep shrank to {}", xs.len());
        let reference: Vec<u64> =
            xs.iter().map(|&x| scalar_lambert_w_minus1(x).to_bits()).collect();
        // The public one-lane entry point.
        for (&x, &bits) in xs.iter().zip(&reference) {
            assert_eq!(lambert_w_minus1(x).to_bits(), bits, "one lane at {x}");
        }
        // Four live lanes, and 1–3 live lanes beside finished padding, at
        // every alignment of the sweep so each x meets different neighbours.
        for live in 1..=LANES {
            for shift in 0..live {
                let shifted = xs.iter().zip(&reference).skip(shift).collect::<Vec<_>>();
                for group in shifted.chunks(live) {
                    let mut x = [0.0; LANES];
                    let mut finished = [true; LANES];
                    for ((x, finished), (&input, _)) in x.iter_mut().zip(&mut finished).zip(group) {
                        *x = input;
                        *finished = false;
                    }
                    let w = halley(x, finished);
                    for (w, (&input, &bits)) in w.iter().zip(group) {
                        assert_eq!(w.to_bits(), bits, "{live} live lanes at {input}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_radii_match_the_scalar_inversion() {
        let dist = PlanarLaplace::new(Epsilon::new(0.01).unwrap());
        let mut rng = StdRng::seed_from_u64(8);
        let mut p: Vec<f64> = (0..4_001).map(|_| rng.gen_range(0.0..1.0)).collect();
        p.extend([0.0, f64::from_bits(1), 0.5, 1.0 - f64::EPSILON]);
        let reference = |p: f64| {
            if p == 0.0 {
                0.0
            } else {
                -(scalar_lambert_w_minus1((p - 1.0) / std::f64::consts::E) + 1.0) / 0.01
            }
        };
        for group in p.chunks(LANES) {
            let mut lanes = [0.0; LANES];
            let mut live = [false; LANES];
            for ((lane, live), &p) in lanes.iter_mut().zip(&mut live).zip(group) {
                *lane = p;
                *live = true;
            }
            let radii = dist.radii(lanes, live);
            for (radius, &p) in radii.iter().zip(group) {
                assert_eq!(radius.to_bits(), reference(p).to_bits(), "p = {p}");
            }
            for &p in group {
                assert_eq!(dist.radii([p], [true]), [reference(p)], "one lane, p = {p}");
            }
        }
    }

    #[test]
    fn lambert_w_known_values() {
        // W-1(-1/e) = -1.
        let w = lambert_w_minus1(-(-1.0f64).exp() + 1e-15);
        assert!((w + 1.0).abs() < 1e-3, "got {w}");
        // W-1(-0.1) ≈ -3.577152.
        let w = lambert_w_minus1(-0.1);
        assert!((w + 3.577152).abs() < 1e-5, "got {w}");
        // W-1(-0.2) ≈ -2.542641.
        let w = lambert_w_minus1(-0.2);
        assert!((w + 2.542641).abs() < 1e-5, "got {w}");
        // The defining identity w e^w = x holds across the domain.
        for &x in &[-0.3, -0.25, -0.15, -0.05, -0.01, -0.001] {
            let w = lambert_w_minus1(x);
            assert!((w * w.exp() - x).abs() < 1e-10, "identity fails at {x}: w={w}");
            assert!(w <= -1.0, "W-1 branch must be <= -1, got {w} at {x}");
        }
    }

    #[test]
    #[should_panic(expected = "only defined")]
    fn lambert_w_rejects_out_of_domain() {
        let _ = lambert_w_minus1(0.5);
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
        let radii: Vec<f64> = (0..n).map(|_| dist.sample_radius(&mut rng)).collect();
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
        let mean_low: f64 = (0..n).map(|_| low.sample_radius(&mut rng)).sum::<f64>() / n as f64;
        let mean_high: f64 = (0..n).map(|_| high.sample_radius(&mut rng)).sum::<f64>() / n as f64;
        assert!(mean_low > 50.0 * mean_high, "low {mean_low} vs high {mean_high}");
    }
}

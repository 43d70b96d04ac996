//! Temporal degradation mechanisms.
//!
//! Two simple mechanisms that protect by releasing *fewer* records rather
//! than perturbing their coordinates:
//!
//! * [`TemporalDownsampling`] keeps every `n`-th record (deterministic
//!   sub-sampling of the release stream);
//! * [`ReleaseSampling`] releases each record independently with probability
//!   `p` (randomized thinning).
//!
//! Both reduce the adversary's ability to detect dwell periods (POIs need a
//! minimum number of observations to be clustered) at the cost of coverage.

use crate::error::LppmError;
use crate::params::{ParameterDescriptor, ParameterScale};
use crate::traits::Lppm;
use geopriv_mobility::{Record, Trace};
use rand::{Rng, RngCore};

/// Keeps every `n`-th record of a trace.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{Lppm, TemporalDownsampling};
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let lppm = TemporalDownsampling::new(4)?;
/// assert_eq!(lppm.factor(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporalDownsampling {
    factor: usize,
}

impl TemporalDownsampling {
    /// Creates the mechanism keeping one record out of every `factor`.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] if `factor` is zero.
    pub fn new(factor: usize) -> Result<Self, LppmError> {
        if factor == 0 {
            return Err(LppmError::InvalidParameter {
                name: "factor",
                value: 0.0,
                reason: "downsampling factor must be at least 1",
            });
        }
        Ok(Self { factor })
    }

    /// The downsampling factor.
    pub fn factor(&self) -> usize {
        self.factor
    }
}

impl Lppm for TemporalDownsampling {
    fn name(&self) -> &str {
        "temporal-downsampling"
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        vec![ParameterDescriptor::fixed("factor", 1.0, 64.0, ParameterScale::Logarithmic)]
    }

    fn protect_trace(&self, trace: &Trace, _rng: &mut dyn RngCore) -> Result<Trace, LppmError> {
        Ok(trace.downsampled(self.factor)?)
    }
}

/// Releases each record independently with probability `p`.
///
/// The first record of a trace is always released so the protected trace is
/// never empty.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReleaseSampling {
    probability: f64,
}

impl ReleaseSampling {
    /// Creates the mechanism with release probability `probability ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] outside that range.
    pub fn new(probability: f64) -> Result<Self, LppmError> {
        if !(probability.is_finite() && probability > 0.0 && probability <= 1.0) {
            return Err(LppmError::InvalidParameter {
                name: "probability",
                value: probability,
                reason: "release probability must be in (0, 1]",
            });
        }
        Ok(Self { probability })
    }

    /// The per-record release probability.
    pub fn probability(&self) -> f64 {
        self.probability
    }
}

impl Lppm for ReleaseSampling {
    fn name(&self) -> &str {
        "release-sampling"
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        vec![ParameterDescriptor::fixed("probability", 0.01, 1.0, ParameterScale::Linear)]
    }

    fn protect_trace(&self, trace: &Trace, rng: &mut dyn RngCore) -> Result<Trace, LppmError> {
        let records: Vec<Record> = trace
            .iter()
            .enumerate()
            .filter(|(i, _)| *i == 0 || rng.gen_bool(self.probability))
            .map(|(_, r)| r)
            .collect();
        if records.is_empty() {
            return Err(LppmError::EmptyProtectedTrace);
        }
        Ok(Trace::new(trace.user(), records)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::{GeoPoint, Seconds};
    use geopriv_mobility::UserId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace(n: usize) -> Trace {
        let records: Vec<Record> = (0..n)
            .map(|i| {
                Record::new(Seconds::new(i as f64 * 30.0), GeoPoint::new(37.77, -122.42).unwrap())
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn downsampling_validation_and_behaviour() {
        assert!(TemporalDownsampling::new(0).is_err());
        let lppm = TemporalDownsampling::new(4).unwrap();
        assert_eq!(lppm.factor(), 4);
        assert_eq!(lppm.name(), "temporal-downsampling");
        assert_eq!(lppm.parameters().len(), 1);

        let mut rng = StdRng::seed_from_u64(1);
        let t = trace(100);
        let protected = lppm.protect_trace(&t, &mut rng).unwrap();
        assert_eq!(protected.len(), 25);
        assert_eq!(protected.first().timestamp().as_f64(), 0.0);

        // Factor 1 is the identity.
        let identity = TemporalDownsampling::new(1).unwrap().protect_trace(&t, &mut rng).unwrap();
        assert_eq!(identity, t);
    }

    #[test]
    fn release_sampling_validation() {
        assert!(ReleaseSampling::new(0.0).is_err());
        assert!(ReleaseSampling::new(-0.5).is_err());
        assert!(ReleaseSampling::new(1.5).is_err());
        assert!(ReleaseSampling::new(f64::NAN).is_err());
        assert!(ReleaseSampling::new(1.0).is_ok());
        let lppm = ReleaseSampling::new(0.3).unwrap();
        assert_eq!(lppm.probability(), 0.3);
        assert_eq!(lppm.name(), "release-sampling");
    }

    #[test]
    fn release_sampling_keeps_roughly_p_fraction() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = trace(5_000);
        let lppm = ReleaseSampling::new(0.25).unwrap();
        let protected = lppm.protect_trace(&t, &mut rng).unwrap();
        let fraction = protected.len() as f64 / t.len() as f64;
        assert!((fraction - 0.25).abs() < 0.03, "kept {fraction}");
        // Timestamps remain ordered and are a subset of the original ones.
        let original: std::collections::BTreeSet<u64> =
            t.iter().map(|r| r.timestamp().as_f64() as u64).collect();
        for r in &protected {
            assert!(original.contains(&(r.timestamp().as_f64() as u64)));
        }
    }

    #[test]
    fn release_sampling_never_empties_a_trace() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = trace(3);
        let lppm = ReleaseSampling::new(0.01).unwrap();
        for _ in 0..50 {
            let protected = lppm.protect_trace(&t, &mut rng).unwrap();
            assert!(!protected.is_empty());
        }
    }

    #[test]
    fn probability_one_is_the_identity() {
        let mut rng = StdRng::seed_from_u64(4);
        let t = trace(50);
        let protected = ReleaseSampling::new(1.0).unwrap().protect_trace(&t, &mut rng).unwrap();
        assert_eq!(protected, t);
    }
}

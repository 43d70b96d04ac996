//! Geo-Indistinguishability (GEO-I).
//!
//! The LPPM the paper configures: Andrés, Bordenabe, Chatzikokolakis and
//! Palamidessi, *Geo-indistinguishability: Differential Privacy for
//! Location-based Systems*, CCS 2013. Each released location is the actual
//! location plus planar-Laplace noise calibrated by ε (in m⁻¹): the lower
//! the ε, the higher the noise and therefore the stronger the privacy
//! guarantee — and the lower the utility of the released data. The noise
//! comes from [`PlanarLaplace::sample`], one draw per record.

use crate::error::LppmError;
use crate::laplace::PlanarLaplace;
use crate::params::{Epsilon, ParameterDescriptor, ParameterScale};
use crate::traits::{Lppm, RecordKernel};
use geopriv_geo::LocalProjection;
use geopriv_mobility::Record;
use rand::RngCore;

/// The ε range swept by the paper's evaluation (Figure 1): 10⁻⁴ to 1 m⁻¹.
pub const PAPER_EPSILON_RANGE: (f64, f64) = (1e-4, 1.0);

/// The Geo-Indistinguishability mechanism.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm};
/// use geopriv_mobility::generator::TaxiFleetBuilder;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let dataset = TaxiFleetBuilder::new().drivers(2).duration_hours(2.0).build(&mut rng)?;
///
/// let geoi = GeoIndistinguishability::new(Epsilon::new(0.01)?);
/// let protected = geoi.protect_dataset(&dataset, &mut rng)?;
/// assert_eq!(protected.record_count(), dataset.record_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoIndistinguishability {
    epsilon: Epsilon,
}

impl GeoIndistinguishability {
    /// Creates the mechanism with the given privacy parameter.
    pub fn new(epsilon: Epsilon) -> Self {
        Self { epsilon }
    }

    /// Creates the mechanism from a raw ε value in m⁻¹.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] for non-positive or non-finite values.
    pub fn with_epsilon(epsilon: f64) -> Result<Self, LppmError> {
        Ok(Self::new(Epsilon::new(epsilon)?))
    }

    /// The configured ε.
    pub fn epsilon(&self) -> Epsilon {
        self.epsilon
    }

    /// The parameter descriptor for ε over the paper's sweep range.
    pub fn epsilon_descriptor() -> ParameterDescriptor {
        ParameterDescriptor::fixed(
            "epsilon",
            PAPER_EPSILON_RANGE.0,
            PAPER_EPSILON_RANGE.1,
            ParameterScale::Logarithmic,
        )
    }
}

impl Lppm for GeoIndistinguishability {
    fn name(&self) -> &str {
        "geo-indistinguishability"
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        vec![Self::epsilon_descriptor()]
    }

    fn kernel(&self) -> Option<Box<dyn RecordKernel>> {
        Some(Box::new(GeoIndistinguishabilityKernel {
            noise: PlanarLaplace::new(self.epsilon),
            projection: None,
        }))
    }
}

/// The per-record step of [`GeoIndistinguishability`]: one planar-Laplace
/// draw per record, in record order, applied in a planar projection
/// anchored on the trace's first record. One projection per trace keeps the
/// planar approximation error negligible at city scale while avoiding a
/// data-dependent (privacy-leaking) global frame.
struct GeoIndistinguishabilityKernel {
    noise: PlanarLaplace,
    projection: Option<LocalProjection>,
}

impl RecordKernel for GeoIndistinguishabilityKernel {
    fn step(&mut self, records: &mut [Record], rng: &mut dyn RngCore) {
        let Some(first) = records.first() else { return };
        let projection =
            *self.projection.get_or_insert_with(|| LocalProjection::centered_on(first.location()));
        for record in records {
            let (dx, dy) = self.noise.sample(rng);
            let actual = projection.project(record.location());
            *record = record.with_location(projection.unproject(actual.translated(dx, dy)));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::{distance, GeoPoint, Seconds};
    use geopriv_mobility::{Trace, UserId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn trace() -> Trace {
        let records: Vec<Record> = (0..200)
            .map(|i| {
                Record::new(
                    Seconds::new(i as f64 * 30.0),
                    GeoPoint::new(37.76 + (i % 10) as f64 * 0.001, -122.44).unwrap(),
                )
            })
            .collect();
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn construction_and_metadata() {
        assert!(GeoIndistinguishability::with_epsilon(0.01).is_ok());
        assert!(GeoIndistinguishability::with_epsilon(0.0).is_err());
        let geoi = GeoIndistinguishability::with_epsilon(0.02).unwrap();
        assert_eq!(geoi.name(), "geo-indistinguishability");
        assert_eq!(geoi.epsilon().value(), 0.02);
        let params = geoi.parameters();
        assert_eq!(params.len(), 1);
        assert_eq!(params[0].name(), "epsilon");
        assert_eq!(params[0].scale(), ParameterScale::Logarithmic);
    }

    #[test]
    fn protection_preserves_structure_and_timestamps() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = trace();
        let geoi = GeoIndistinguishability::with_epsilon(0.01).unwrap();
        let protected = geoi.protect_trace(&t, &mut rng).unwrap();
        assert_eq!(protected.len(), t.len());
        assert_eq!(protected.user(), t.user());
        for (a, b) in t.iter().zip(protected.iter()) {
            assert_eq!(a.timestamp(), b.timestamp());
        }
    }

    #[test]
    fn mean_displacement_matches_two_over_epsilon() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = trace();
        for &eps in &[0.005, 0.01, 0.05] {
            let geoi = GeoIndistinguishability::with_epsilon(eps).unwrap();
            let protected = geoi.protect_trace(&t, &mut rng).unwrap();
            let mean_displacement: f64 = t
                .iter()
                .zip(protected.iter())
                .map(|(a, b)| distance::haversine(a.location(), b.location()).as_f64())
                .sum::<f64>()
                / t.len() as f64;
            let expected = 2.0 / eps;
            assert!(
                (mean_displacement - expected).abs() / expected < 0.25,
                "eps={eps}: mean {mean_displacement} expected {expected}"
            );
        }
    }

    #[test]
    fn larger_epsilon_perturbs_less() {
        let t = trace();
        let displacement = |eps: f64, seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let protected = GeoIndistinguishability::with_epsilon(eps)
                .unwrap()
                .protect_trace(&t, &mut rng)
                .unwrap();
            t.iter()
                .zip(protected.iter())
                .map(|(a, b)| distance::haversine(a.location(), b.location()).as_f64())
                .sum::<f64>()
                / t.len() as f64
        };
        assert!(displacement(0.001, 3) > 10.0 * displacement(0.1, 3));
    }

    #[test]
    fn deterministic_under_seed() {
        let t = trace();
        let geoi = GeoIndistinguishability::with_epsilon(0.01).unwrap();
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        assert_eq!(
            geoi.protect_trace(&t, &mut rng_a).unwrap(),
            geoi.protect_trace(&t, &mut rng_b).unwrap()
        );
    }
}

//! Speed-smoothing protection (a Promesse-style mechanism).
//!
//! Primault et al.'s *Promesse* erases POIs not by adding spatial noise but
//! by removing the *temporal* signature of stops: the released trace follows
//! the same path, resampled at a constant spatial interval α and re-timed at
//! a constant speed, so the adversary can no longer tell where the user
//! dwelled. It is the canonical example of an LPPM whose single parameter
//! (the smoothing distance α, in meters) trades POI privacy against the
//! temporal fidelity of the release — exactly the kind of mechanism the
//! paper's future work intends to feed through the configuration framework.

use crate::error::LppmError;
use crate::params::{ParameterDescriptor, ParameterScale};
use crate::traits::Lppm;
use geopriv_geo::{LocalProjection, Meters, Point, Seconds};
use geopriv_mobility::{MobilityError, Record, Trace};
use rand::RngCore;

/// Speed-smoothing mechanism: constant-distance resampling with uniform re-timing.
///
/// # Examples
///
/// ```
/// use geopriv_lppm::{Lppm, SpeedSmoothing};
/// use geopriv_geo::Meters;
///
/// # fn main() -> Result<(), geopriv_lppm::LppmError> {
/// let lppm = SpeedSmoothing::new(Meters::new(100.0))?;
/// assert_eq!(lppm.smoothing_distance().as_f64(), 100.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpeedSmoothing {
    alpha: Meters,
}

impl SpeedSmoothing {
    /// Creates the mechanism with smoothing distance `alpha` (meters between
    /// consecutive released points along the path).
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::InvalidParameter`] for a non-positive distance.
    pub fn new(alpha: Meters) -> Result<Self, LppmError> {
        if !(alpha.as_f64().is_finite() && alpha.as_f64() > 0.0) {
            return Err(LppmError::InvalidParameter {
                name: "alpha",
                value: alpha.as_f64(),
                reason: "smoothing distance must be finite and strictly positive",
            });
        }
        Ok(Self { alpha })
    }

    /// The smoothing distance α.
    pub fn smoothing_distance(&self) -> Meters {
        self.alpha
    }

    /// The parameter descriptor for α (10 m to 2 km, logarithmic).
    pub fn alpha_descriptor() -> ParameterDescriptor {
        ParameterDescriptor::fixed("alpha", 10.0, 2_000.0, ParameterScale::Logarithmic)
    }
}

impl Lppm for SpeedSmoothing {
    fn name(&self) -> &str {
        "speed-smoothing"
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        vec![Self::alpha_descriptor()]
    }

    fn protect_trace(&self, trace: &Trace, _rng: &mut dyn RngCore) -> Result<Trace, LppmError> {
        let projection = LocalProjection::centered_on(trace.first().location());
        let path: Vec<Point> = trace.iter().map(|r| projection.project(r.location())).collect();
        let alpha = self.alpha.as_f64();

        let (Some(&first), Some(&last)) = (path.first(), path.last()) else {
            return Err(LppmError::Mobility(MobilityError::EmptyTrace));
        };

        // Walk the polyline and emit a point every `alpha` meters.
        let mut resampled: Vec<Point> = vec![first];
        let mut carried = 0.0;
        for (&from, &to) in path.iter().zip(path.iter().skip(1)) {
            let length = from.distance_to(to).as_f64();
            if length <= f64::EPSILON {
                continue;
            }
            let mut travelled = alpha - carried;
            while travelled <= length {
                resampled.push(from.lerp(to, travelled / length));
                travelled += alpha;
            }
            carried = (carried + length) % alpha;
        }
        // Always keep the final position so the release spans the same extent.
        if resampled.len() < 2 {
            resampled.push(last);
        }

        // Re-time uniformly over the original observation window: constant
        // apparent speed, no dwell signature.
        let start = trace.first().timestamp().as_f64();
        let end = trace.last().timestamp().as_f64();
        let n = resampled.len();
        let records: Vec<Record> = resampled
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                let t =
                    if n == 1 { start } else { start + (end - start) * i as f64 / (n - 1) as f64 };
                Record::new(Seconds::new(t), projection.unproject(p))
            })
            .collect();
        Ok(Trace::new(trace.user(), records)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_geo::{distance, GeoPoint};
    use geopriv_mobility::UserId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gp(lat: f64, lon: f64) -> GeoPoint {
        GeoPoint::new(lat, lon).unwrap()
    }

    /// 30 min stop at A, straight 20-minute drive to B, 30 min stop at B.
    fn stop_drive_stop() -> Trace {
        let a = gp(37.7600, -122.4500);
        let b = gp(37.7800, -122.4200);
        let mut records = Vec::new();
        let mut t = 0.0;
        for _ in 0..60 {
            records.push(Record::new(Seconds::new(t), a));
            t += 30.0;
        }
        for k in 0..40 {
            let frac = k as f64 / 39.0;
            records.push(Record::new(
                Seconds::new(t),
                gp(
                    a.latitude() + frac * (b.latitude() - a.latitude()),
                    a.longitude() + frac * (b.longitude() - a.longitude()),
                ),
            ));
            t += 30.0;
        }
        for _ in 0..60 {
            records.push(Record::new(Seconds::new(t), b));
            t += 30.0;
        }
        Trace::new(UserId::new(1), records).unwrap()
    }

    #[test]
    fn construction_validation_and_metadata() {
        assert!(SpeedSmoothing::new(Meters::new(100.0)).is_ok());
        assert!(SpeedSmoothing::new(Meters::new(0.0)).is_err());
        assert!(SpeedSmoothing::new(Meters::new(-10.0)).is_err());
        assert!(SpeedSmoothing::new(Meters::new(f64::NAN)).is_err());
        let lppm = SpeedSmoothing::new(Meters::new(50.0)).unwrap();
        assert_eq!(lppm.name(), "speed-smoothing");
        assert_eq!(lppm.parameters()[0].name(), "alpha");
    }

    #[test]
    fn released_points_are_spaced_by_alpha_along_the_path() {
        let mut rng = StdRng::seed_from_u64(1);
        let trace = stop_drive_stop();
        let alpha = 200.0;
        let protected = SpeedSmoothing::new(Meters::new(alpha))
            .unwrap()
            .protect_trace(&trace, &mut rng)
            .unwrap();
        // Consecutive released points are ~alpha apart (except possibly the
        // last one, which closes the path).
        let locations = protected.locations();
        for pair in locations.windows(2).take(locations.len().saturating_sub(2)) {
            let d = distance::haversine(pair[0], pair[1]).as_f64();
            assert!((d - alpha).abs() < 0.05 * alpha, "spacing {d}");
        }
        // The path length is preserved to within one alpha.
        let original_length = trace.travelled_distance().as_f64();
        let released_length = protected.travelled_distance().as_f64();
        assert!((original_length - released_length).abs() <= 2.0 * alpha);
    }

    #[test]
    fn dwell_signature_is_erased() {
        let mut rng = StdRng::seed_from_u64(2);
        let trace = stop_drive_stop();
        let protected = SpeedSmoothing::new(Meters::new(150.0))
            .unwrap()
            .protect_trace(&trace, &mut rng)
            .unwrap();

        // The released trace spans the same observation window...
        assert_eq!(protected.first().timestamp(), trace.first().timestamp());
        assert_eq!(protected.last().timestamp(), trace.last().timestamp());
        // ...at constant apparent speed: every consecutive displacement takes
        // the same time and covers a similar distance, so no dwell remains.
        let locations = protected.locations();
        let still = locations
            .windows(2)
            .filter(|w| distance::haversine(w[0], w[1]).as_f64() < 10.0)
            .count();
        assert_eq!(still, 0, "released trace still contains {still} dwell steps");
    }

    #[test]
    fn stationary_trace_collapses_to_endpoints() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = gp(37.77, -122.42);
        let records: Vec<Record> =
            (0..50).map(|i| Record::new(Seconds::new(i as f64 * 30.0), a)).collect();
        let trace = Trace::new(UserId::new(2), records).unwrap();
        let protected = SpeedSmoothing::new(Meters::new(100.0))
            .unwrap()
            .protect_trace(&trace, &mut rng)
            .unwrap();
        assert_eq!(protected.len(), 2);
        assert!(distance::haversine(protected.first().location(), a).as_f64() < 1.0);
    }

    #[test]
    fn is_deterministic() {
        let trace = stop_drive_stop();
        let lppm = SpeedSmoothing::new(Meters::new(80.0)).unwrap();
        let mut rng_a = StdRng::seed_from_u64(4);
        let mut rng_b = StdRng::seed_from_u64(5);
        assert_eq!(
            lppm.protect_trace(&trace, &mut rng_a).unwrap(),
            lppm.protect_trace(&trace, &mut rng_b).unwrap()
        );
    }
}

//! The [`Lppm`] trait: the common interface of every protection mechanism,
//! and [`RecordKernel`]: the one per-record step of the mechanisms that
//! release exactly one protected record per actual record.
//!
//! A per-record mechanism implements only [`Lppm::kernel`]. Three generic
//! drivers apply that single kernel: [`Lppm::protect_trace`] (rows),
//! [`Lppm::protect_view`] (columns) and the kernel stream behind
//! [`crate::stream::open_stream`] (online). Each driver obtains a fresh
//! kernel once per trace and owns the RNG it passes to every step. The
//! drivers hand the kernel runs of consecutive records, protected in
//! place: the row driver the whole trace, the column driver fixed-size
//! chunks from a buffer on its stack, the stream one record per push.
//!
//! The draw-order rule makes the cut irrelevant: a kernel draws every
//! record's randomness in record order, whatever the length of its run, so
//! chunking never changes which draw a record gets. The three paths
//! therefore make the same per-record operations and the same RNG draws
//! in the same order — bit-identical by construction — while a kernel may
//! batch the arithmetic of a run, as long as it keeps every record's draws
//! together and in record order.
//! Whole-trace mechanisms (resampling, dropping, composing) have no
//! kernel: they override `protect_trace`, and the column and stream paths
//! fall back to it.

use crate::error::LppmError;
use crate::params::ParameterDescriptor;
use geopriv_geo::{GeoPoint, Seconds};
use geopriv_mobility::{Dataset, DatasetBuilder, Record, Trace, TraceView};
use rand::RngCore;

/// The per-record step of a mechanism, applied to one trace's records in
/// timestamp order.
///
/// A kernel is created fresh for each trace (see [`Lppm::kernel`]) and may
/// carry state across the records of that trace — GEO-I and Gaussian
/// perturbation anchor their planar projection on the first record they
/// step. The driver that calls it owns the RNG and the record count, and
/// hands the trace over in runs of consecutive records: the whole trace
/// (rows), fixed-size chunks (columns) or one record at a time (stream).
///
/// **Draw-order rule.** A kernel draws every record's randomness in record
/// order, whatever the length of the run it is given, so how a driver cuts
/// a trace into runs never changes which draw a record gets: the three
/// drivers release the same bits.
pub trait RecordKernel: Send {
    /// Protects the next `records` of the trace in place, drawing any
    /// randomness from `rng` in record order.
    fn step(&mut self, records: &mut [Record], rng: &mut dyn RngCore);
}

/// The number of records the column driver steps at a time, from a buffer
/// on its stack.
const CHUNK: usize = 64;

/// A Location Privacy Protection Mechanism.
///
/// An LPPM transforms an *actual* mobility trace into a *protected* trace
/// that can be released to a location-based service. Implementations receive
/// a random-number generator explicitly so that experiments are reproducible
/// under a fixed seed; deterministic mechanisms simply ignore it.
///
/// A mechanism that releases one protected record per actual record
/// implements [`Lppm::kernel`] and nothing else: the row, column and stream
/// paths are generic drivers over that one kernel (see the module docs).
/// Every other mechanism overrides [`Lppm::protect_trace`].
///
/// The trait is object safe: the configuration framework stores mechanisms as
/// `Box<dyn Lppm>` when sweeping configuration parameters.
pub trait Lppm: Send + Sync {
    /// Human-readable name of the mechanism (e.g. `"geo-indistinguishability"`).
    fn name(&self) -> &str;

    /// The mechanism's configuration parameters and their valid ranges.
    ///
    /// Used by the configuration framework to know what to sweep. Mechanisms
    /// without configuration return an empty vector.
    fn parameters(&self) -> Vec<ParameterDescriptor>;

    /// A fresh per-record kernel for one trace, or `None` (the default) for
    /// mechanisms that need the whole trace (they drop, resample or compose
    /// records) and override [`Lppm::protect_trace`] instead.
    fn kernel(&self) -> Option<Box<dyn RecordKernel>> {
        None
    }

    /// Protects a single trace.
    ///
    /// The default is the row driver: it steps a fresh [`Lppm::kernel`] over
    /// the trace's records in place, as one run. Mechanisms without a kernel
    /// override it.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError`] if the protected trace cannot be constructed (for
    /// example when every record was dropped), and
    /// [`LppmError::NoKernel`] from the default when the mechanism has no
    /// kernel.
    fn protect_trace(&self, trace: &Trace, rng: &mut dyn RngCore) -> Result<Trace, LppmError> {
        let mut kernel =
            self.kernel().ok_or_else(|| LppmError::NoKernel { mechanism: self.name().into() })?;
        let mut records = trace.to_records();
        kernel.step(&mut records, rng);
        Ok(Trace::new(trace.user(), records)?)
    }

    /// Protects one trace given as a zero-copy columnar view, appending the
    /// protected trace to the columnar `out` builder.
    ///
    /// This is the column driver and the hot path of
    /// [`Lppm::protect_dataset`]: with a kernel it steps the trace in
    /// fixed-size chunks copied into a buffer on its stack and writes each
    /// protected record straight into the shared output columns, skipping
    /// every intermediate `Vec<Record>`. Without one it materializes the
    /// view and falls back to [`Lppm::protect_trace`] — correct for any
    /// mechanism, including those that drop or resample records.
    ///
    /// # Errors
    ///
    /// Implementations return [`LppmError`] if the protected trace cannot be
    /// constructed (for example when every record was dropped).
    fn protect_view(
        &self,
        trace: TraceView<'_>,
        out: &mut DatasetBuilder,
        rng: &mut dyn RngCore,
    ) -> Result<(), LppmError> {
        let Some(mut kernel) = self.kernel() else {
            let protected = self.protect_trace(&trace.to_trace(), rng)?;
            out.push_trace(&protected);
            return Ok(());
        };
        out.begin_trace(trace.user());
        let mut records = trace.iter();
        let mut buffer = [Record::new(Seconds::new(0.0), GeoPoint::clamped(0.0, 0.0)); CHUNK];
        loop {
            let mut filled = 0;
            for (slot, record) in buffer.iter_mut().zip(&mut records) {
                *slot = record;
                filled += 1;
            }
            let Some(chunk) = buffer.get_mut(..filled).filter(|chunk| !chunk.is_empty()) else {
                break;
            };
            kernel.step(chunk, rng);
            for protected in chunk.iter() {
                out.push_record(protected.timestamp(), protected.location());
            }
        }
        out.finish_trace()?;
        Ok(())
    }

    /// Protects every trace of a dataset.
    ///
    /// The default implementation streams [`Lppm::protect_view`] over each
    /// trace in order, assembling the protected dataset columnar-to-columnar
    /// through a [`DatasetBuilder`].
    ///
    /// # Errors
    ///
    /// Propagates the first per-trace error.
    fn protect_dataset(
        &self,
        dataset: &Dataset,
        rng: &mut dyn RngCore,
    ) -> Result<Dataset, LppmError> {
        let mut out = DatasetBuilder::with_capacity(dataset.len(), dataset.record_count());
        for trace in dataset {
            self.protect_view(trace, &mut out, rng)?;
        }
        Ok(out.finish()?)
    }
}

/// A no-op mechanism that releases the actual trace unchanged.
///
/// Useful as the "no protection" baseline: privacy metrics should be at their
/// worst and utility metrics at their best when evaluated against it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Identity;

impl Identity {
    /// Creates the identity mechanism.
    pub fn new() -> Self {
        Self
    }
}

impl Lppm for Identity {
    fn name(&self) -> &str {
        "identity"
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        Vec::new()
    }

    fn kernel(&self) -> Option<Box<dyn RecordKernel>> {
        Some(Box::new(Identity))
    }
}

/// The identity is its own kernel: every record passes unchanged, drawing
/// no randomness.
impl RecordKernel for Identity {
    fn step(&mut self, _records: &mut [Record], _rng: &mut dyn RngCore) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use geopriv_mobility::UserId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn dataset() -> Dataset {
        let trace = Trace::new(
            UserId::new(1),
            vec![
                Record::new(Seconds::new(0.0), GeoPoint::new(37.77, -122.41).unwrap()),
                Record::new(Seconds::new(60.0), GeoPoint::new(37.78, -122.42).unwrap()),
            ],
        )
        .unwrap();
        Dataset::new(vec![trace]).unwrap()
    }

    #[test]
    fn identity_returns_the_same_data() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = dataset();
        let lppm = Identity::new();
        assert_eq!(lppm.name(), "identity");
        assert!(lppm.parameters().is_empty());
        let protected = lppm.protect_dataset(&d, &mut rng).unwrap();
        assert_eq!(protected, d);
    }

    #[test]
    fn a_mechanism_without_kernel_or_rows_fails_typed() {
        struct Nothing;
        impl Lppm for Nothing {
            fn name(&self) -> &str {
                "nothing"
            }
            fn parameters(&self) -> Vec<ParameterDescriptor> {
                Vec::new()
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        let err = Nothing.protect_dataset(&dataset(), &mut rng).unwrap_err();
        assert!(matches!(err, LppmError::NoKernel { .. }), "got {err}");
    }

    #[test]
    fn lppm_is_object_safe() {
        let mut rng = StdRng::seed_from_u64(2);
        let mechanisms: Vec<Box<dyn Lppm>> = vec![Box::new(Identity::new())];
        let d = dataset();
        for m in &mechanisms {
            assert!(m.protect_dataset(&d, &mut rng).is_ok());
        }
    }
}

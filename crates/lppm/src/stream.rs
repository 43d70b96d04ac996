//! Streaming protection sessions: record-at-a-time LPPM application.
//!
//! Everything else in this crate protects *complete* traces — the offline
//! study shape. An online service (the `geopriv-serve` crate) instead sees
//! one `(user, record)` update at a time and must release each protected
//! record immediately, under the same determinism contract as the offline
//! paths: with a fixed seed, the stream of released records is **bit
//! identical** to [`Lppm::protect_view`] over the records protected so far.
//!
//! [`open_stream`] is the entry point. It is the third of the three generic
//! drivers over a mechanism's one per-record [`RecordKernel`] (rows and
//! columns are [`Lppm::protect_trace`] and [`Lppm::protect_view`]): a
//! mechanism with a kernel streams through a kernel session, which steps
//! the kernel with a persistent [`rand::rngs::StdRng`], one record per
//! push — O(1) per push. The column driver steps the same kernel over
//! chunks of the trace instead; the kernel's draw-order rule (every record
//! draws its randomness in record order, whatever the run length) makes
//! both release the same bits. Every other mechanism
//! falls back to [`ReplayStream`], which re-protects the full record prefix
//! with a fresh RNG on each push: bit-identical by construction, O(n) per
//! push, and self-verifying — a mechanism that drops records or consumes
//! randomness non-causally (a stage-major [`crate::Pipeline`]) is detected
//! and reported as [`LppmError::Unstreamable`] instead of silently
//! diverging from the offline output.

use crate::error::LppmError;
use crate::traits::{Lppm, RecordKernel};
use geopriv_mobility::{DatasetBuilder, Record, TraceView, UserId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A stateful streaming protection session for one user's record stream.
///
/// Obtained from [`open_stream`]. Pushing the records of a trace in timestamp
/// order yields, record for record, the bytes [`Lppm::protect_view`] would
/// write for that trace under a fresh RNG seeded with the session seed.
pub trait LppmStream: Send {
    /// Protects the next record of the stream and releases its protected
    /// twin.
    ///
    /// # Errors
    ///
    /// Returns [`LppmError::Unstreamable`] when the mechanism cannot protect
    /// this stream incrementally (it drops, resamples or reorders records,
    /// or draws randomness non-causally), and propagates any underlying
    /// protection error.
    fn push(&mut self, record: Record) -> Result<Record, LppmError>;

    /// Number of records protected so far.
    fn len(&self) -> usize;

    /// Returns `true` before the first push.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Opens a streaming session over a shared mechanism.
///
/// Mechanisms with a per-record kernel ([`Lppm::kernel`]) stream through a
/// kernel session; everything else gets the prefix-replaying
/// [`ReplayStream`]. Both uphold
/// the same contract: the released records are bit-identical to
/// [`Lppm::protect_view`] over the pushed prefix with a fresh
/// `StdRng::seed_from_u64(seed)`.
pub fn open_stream(lppm: Arc<dyn Lppm>, user: UserId, seed: u64) -> Box<dyn LppmStream> {
    open_stream_bounded(lppm, user, seed, usize::MAX)
}

/// [`open_stream`] with a cap on the [`ReplayStream`] fallback's prefix.
///
/// The replay fallback stores the full record prefix and re-protects it on
/// every push — O(n) memory and O(n) CPU per update. A long-running service
/// must bound that: beyond `replay_limit` pushed records the fallback
/// session fails with [`LppmError::Unstreamable`] instead of growing without
/// bound. Mechanisms with a per-record kernel are unaffected by the limit.
pub fn open_stream_bounded(
    lppm: Arc<dyn Lppm>,
    user: UserId,
    seed: u64,
    replay_limit: usize,
) -> Box<dyn LppmStream> {
    match lppm.kernel() {
        Some(kernel) => {
            Box::new(KernelStream { kernel, rng: StdRng::seed_from_u64(seed), released: 0 })
        }
        None => Box::new(ReplayStream::new(lppm, user, seed).with_prefix_limit(replay_limit)),
    }
}

/// The stream driver: steps one mechanism's [`RecordKernel`] per push with
/// a persistent RNG seeded from the session seed.
///
/// The column driver steps a fresh kernel over the trace with a fresh
/// `StdRng::seed_from_u64(seed)`; this session makes the same steps in the
/// same order, so each pushed record releases exactly its offline twin.
struct KernelStream {
    kernel: Box<dyn RecordKernel>,
    rng: StdRng,
    released: usize,
}

impl LppmStream for KernelStream {
    fn push(&mut self, mut record: Record) -> Result<Record, LppmError> {
        self.kernel.step(std::slice::from_mut(&mut record), &mut self.rng);
        self.released += 1;
        Ok(record)
    }

    fn len(&self) -> usize {
        self.released
    }
}

/// The universal streaming fallback: re-protects the full record prefix with
/// a fresh seeded RNG on every push and releases the last protected record.
///
/// For any mechanism whose per-record output depends only on the records
/// pushed so far (and on RNG draws made for them, in order), the replay of
/// prefix *k* reproduces the first *k − 1* released records exactly and the
/// *k*-th is the next offline record — bit-identity by construction. The
/// session verifies this on every push: a prefix whose re-protection changes
/// an already-released record, or changes the record count, fails with
/// [`LppmError::Unstreamable`] rather than silently diverging from the
/// offline path. Cost is O(prefix) per push — the price of supporting any
/// mechanism; per-record mechanisms step their [`Lppm::kernel`] instead.
pub struct ReplayStream {
    lppm: Arc<dyn Lppm>,
    user: UserId,
    seed: u64,
    timestamps: Vec<f64>,
    latitudes: Vec<f64>,
    longitudes: Vec<f64>,
    released: Vec<Record>,
    prefix_limit: usize,
}

impl ReplayStream {
    /// Creates the session; `seed` is the per-user session seed.
    pub fn new(lppm: Arc<dyn Lppm>, user: UserId, seed: u64) -> Self {
        Self {
            lppm,
            user,
            seed,
            timestamps: Vec::new(),
            latitudes: Vec::new(),
            longitudes: Vec::new(),
            released: Vec::new(),
            prefix_limit: usize::MAX,
        }
    }

    /// Caps the stored prefix: a push beyond `limit` records fails with
    /// [`LppmError::Unstreamable`] instead of letting one session's memory
    /// (and per-push replay cost) grow without bound. Unlimited by default.
    #[must_use]
    pub fn with_prefix_limit(mut self, limit: usize) -> Self {
        self.prefix_limit = limit;
        self
    }

    fn unstreamable(&self, reason: String) -> LppmError {
        LppmError::Unstreamable { mechanism: self.lppm.name().to_string(), reason }
    }
}

impl LppmStream for ReplayStream {
    fn push(&mut self, record: Record) -> Result<Record, LppmError> {
        if self.timestamps.len() >= self.prefix_limit {
            return Err(self.unstreamable(format!(
                "replay prefix reached the configured limit of {} records — this mechanism has \
                 no streaming kernel and re-protects the full prefix per push",
                self.prefix_limit,
            )));
        }
        self.timestamps.push(record.timestamp().as_f64());
        self.latitudes.push(record.location().latitude());
        self.longitudes.push(record.location().longitude());
        let view =
            TraceView::from_columns(self.user, &self.timestamps, &self.latitudes, &self.longitudes);
        let mut out = DatasetBuilder::with_capacity(1, self.timestamps.len());
        let mut rng = StdRng::seed_from_u64(self.seed);
        self.lppm.protect_view(view, &mut out, &mut rng)?;
        let protected = out.finish()?;
        let trace = protected.trace_at(0);
        if protected.len() != 1 || trace.len() != self.timestamps.len() {
            return Err(self.unstreamable(format!(
                "protecting {} records produced {} traces with {} records — the mechanism drops \
                 or resamples records and cannot release one protected record per update",
                self.timestamps.len(),
                protected.len(),
                trace.len(),
            )));
        }
        for (i, already) in self.released.iter().enumerate() {
            if trace.record(i) != *already {
                return Err(self.unstreamable(format!(
                    "re-protecting the prefix changed already-released record {i} — the \
                     mechanism consumes randomness non-causally (e.g. a stage-major pipeline), \
                     so no incremental release can match the offline output",
                )));
            }
        }
        let next = trace.record(self.timestamps.len() - 1);
        self.released.push(next);
        Ok(next)
    }

    fn len(&self) -> usize {
        self.released.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloaking::GridCloaking;
    use crate::gaussian::GaussianPerturbation;
    use crate::geo_ind::GeoIndistinguishability;
    use crate::pipeline::Pipeline;
    use crate::rounding::CoordinateRounding;
    use crate::temporal::TemporalDownsampling;
    use crate::traits::Identity;
    use geopriv_geo::{GeoPoint, Meters, Seconds};
    use geopriv_mobility::{Dataset, Trace};

    fn trace() -> Trace {
        let records: Vec<Record> = (0..40)
            .map(|i| {
                Record::new(
                    Seconds::new(i as f64 * 30.0),
                    GeoPoint::new(37.76 + (i % 7) as f64 * 0.0011, -122.44 + i as f64 * 0.0003)
                        .unwrap(),
                )
            })
            .collect();
        Trace::new(UserId::new(7), records).unwrap()
    }

    /// The offline reference: `protect_view` over the whole trace with a
    /// fresh seeded RNG.
    fn offline(lppm: &dyn Lppm, t: &Trace, seed: u64) -> Vec<Record> {
        let mut out = DatasetBuilder::with_capacity(1, t.len());
        let mut rng = StdRng::seed_from_u64(seed);
        lppm.protect_view(t.view(), &mut out, &mut rng).unwrap();
        let protected = out.finish().unwrap();
        protected.trace_at(0).iter().collect()
    }

    fn assert_stream_matches_offline(lppm: Arc<dyn Lppm>, seed: u64) {
        let t = trace();
        let reference = offline(lppm.as_ref(), &t, seed);
        let mut stream = open_stream(lppm, t.user(), seed);
        assert!(stream.is_empty());
        for (i, record) in t.iter().enumerate() {
            let released = stream.push(record).unwrap();
            assert_eq!(released, reference[i], "record {i} diverged from the offline path");
        }
        assert_eq!(stream.len(), t.len());
    }

    #[test]
    fn geoi_stream_is_bit_identical_to_offline() {
        let lppm = GeoIndistinguishability::with_epsilon(0.01).unwrap();
        assert_stream_matches_offline(Arc::new(lppm), 42);
    }

    #[test]
    fn gaussian_stream_is_bit_identical_to_offline() {
        let lppm = GaussianPerturbation::new(Meters::new(150.0)).unwrap();
        assert_stream_matches_offline(Arc::new(lppm), 9);
    }

    #[test]
    fn deterministic_mechanisms_stream_bit_identically() {
        assert_stream_matches_offline(Arc::new(GridCloaking::new(Meters::new(400.0)).unwrap()), 1);
        assert_stream_matches_offline(Arc::new(CoordinateRounding::new(3).unwrap()), 1);
        assert_stream_matches_offline(Arc::new(Identity::new()), 1);
    }

    #[test]
    fn replay_fallback_matches_offline_for_causal_mechanisms() {
        // Force the replay path for a mechanism that has an O(1) kernel, to
        // pin the fallback itself against the same offline reference.
        let lppm: Arc<dyn Lppm> = Arc::new(GeoIndistinguishability::with_epsilon(0.02).unwrap());
        let t = trace();
        let reference = offline(lppm.as_ref(), &t, 5);
        let mut stream = ReplayStream::new(lppm, t.user(), 5);
        for (i, record) in t.iter().enumerate() {
            assert_eq!(stream.push(record).unwrap(), reference[i]);
        }
    }

    #[test]
    fn replay_prefix_limit_fails_closed_and_is_stable() {
        // Force the replay path (the mechanism has a kernel; the explicit
        // ReplayStream bypasses it) and cap the stored prefix.
        let lppm: Arc<dyn Lppm> = Arc::new(GeoIndistinguishability::with_epsilon(0.02).unwrap());
        let t = trace();
        let mut stream = ReplayStream::new(lppm, t.user(), 5).with_prefix_limit(3);
        let mut records = t.iter();
        for _ in 0..3 {
            stream.push(records.next().unwrap()).unwrap();
        }
        for _ in 0..2 {
            let err = stream.push(records.next().unwrap()).unwrap_err();
            assert!(matches!(err, LppmError::Unstreamable { .. }), "got {err}");
            assert!(err.to_string().contains("prefix"), "got {err}");
        }
        assert_eq!(stream.len(), 3, "rejected pushes must not advance the stream");
        // Kernel mechanisms are unaffected by the bound.
        let kernel_lppm: Arc<dyn Lppm> =
            Arc::new(GeoIndistinguishability::with_epsilon(0.02).unwrap());
        let mut kernel = open_stream_bounded(kernel_lppm, t.user(), 5, 3);
        for record in t.iter() {
            kernel.push(record).unwrap();
        }
        assert_eq!(kernel.len(), t.len());
    }

    #[test]
    fn streams_with_different_seeds_diverge() {
        let lppm: Arc<dyn Lppm> = Arc::new(GeoIndistinguishability::with_epsilon(0.01).unwrap());
        let t = trace();
        let mut a = open_stream(Arc::clone(&lppm), t.user(), 1);
        let mut b = open_stream(lppm, t.user(), 2);
        let record = t.first();
        assert_ne!(a.push(record).unwrap(), b.push(record).unwrap());
    }

    #[test]
    fn stage_major_pipeline_is_reported_unstreamable() {
        // A two-stage randomized pipeline consumes randomness stage-major
        // (stage 1 over the whole trace, then stage 2), so no incremental
        // release can be bit-identical to the offline order. The replay
        // session detects the divergence instead of silently drifting.
        let pipeline = Pipeline::new()
            .then(GeoIndistinguishability::with_epsilon(0.01).unwrap())
            .then(GaussianPerturbation::new(Meters::new(50.0)).unwrap());
        let t = trace();
        let mut stream = open_stream(Arc::new(pipeline), t.user(), 3);
        let mut records = t.iter();
        stream.push(records.next().unwrap()).unwrap();
        let err = records
            .find_map(|record| stream.push(record).err())
            .expect("the stage-major pipeline must be detected as unstreamable");
        assert!(matches!(err, LppmError::Unstreamable { .. }), "got {err}");
        assert!(err.to_string().contains("non-causally"), "got {err}");
    }

    #[test]
    fn record_dropping_mechanisms_are_reported_unstreamable() {
        let lppm = TemporalDownsampling::new(4).unwrap();
        let t = trace();
        let mut stream = open_stream(Arc::new(lppm), t.user(), 3);
        let err = t
            .iter()
            .find_map(|record| stream.push(record).err())
            .expect("a record-dropping mechanism must be detected as unstreamable");
        assert!(matches!(err, LppmError::Unstreamable { .. }), "got {err}");
        assert!(err.to_string().contains("drops or resamples"), "got {err}");
    }

    #[test]
    fn kernel_streams_match_a_restarted_session() {
        // Restarting a session with the same seed replays the same stream —
        // the reproducibility contract the serving layer builds on.
        let lppm: Arc<dyn Lppm> = Arc::new(GaussianPerturbation::new(Meters::new(80.0)).unwrap());
        let t = trace();
        let mut first = open_stream(Arc::clone(&lppm), t.user(), 11);
        let released: Vec<Record> = t.iter().map(|r| first.push(r).unwrap()).collect();
        let mut second = open_stream(lppm, t.user(), 11);
        for (i, record) in t.iter().enumerate() {
            assert_eq!(second.push(record).unwrap(), released[i]);
        }
    }

    #[test]
    fn streamed_records_rebuild_a_valid_dataset() {
        let lppm: Arc<dyn Lppm> = Arc::new(GridCloaking::new(Meters::new(250.0)).unwrap());
        let t = trace();
        let mut stream = open_stream(lppm, t.user(), 0);
        let released: Vec<Record> = t.iter().map(|r| stream.push(r).unwrap()).collect();
        let rebuilt = Dataset::new(vec![Trace::new(t.user(), released).unwrap()]).unwrap();
        assert_eq!(rebuilt.record_count(), t.len());
    }
}

//! Row-path vs column-path equivalence.
//!
//! A per-record mechanism has one kernel ([`Lppm::kernel`]) and two offline
//! drivers over it: [`Lppm::protect_view`] steps the kernel straight into
//! the output columns, and `protect_trace` steps it into a row-layout trace.
//! A mechanism without a kernel makes `protect_view` materialize each view
//! and fall back to `protect_trace` (the historical row layout). Both
//! drivers step the same kernel with the same RNG in the same per-record
//! order, so a sweep over the columnar path must be **bit-identical** to
//! the same sweep forced through the row path — at dataset grain and at
//! per-user grain alike.

use geopriv::core::{
    ExperimentRunner, GeoIndistinguishabilityFactory, LppmFactory, SweepConfig, SweepPlan,
    SystemDefinition,
};
use geopriv::lppm::{ConfigPoint, ConfigSpace, Lppm, LppmError, ParameterDescriptor};
use geopriv::metrics::{AreaCoverage, PoiRetrieval};
use geopriv::mobility::{Dataset, Trace};
use geopriv::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Wraps any mechanism and strips its columnar fast path: `protect_trace`
/// delegates, but `protect_view` and `protect_dataset` deliberately stay at
/// the trait defaults, so every trace goes through the row-materializing
/// fallback.
struct ForcedRowPath(Box<dyn Lppm>);

impl Lppm for ForcedRowPath {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn parameters(&self) -> Vec<ParameterDescriptor> {
        self.0.parameters()
    }

    fn protect_trace(&self, trace: &Trace, rng: &mut dyn RngCore) -> Result<Trace, LppmError> {
        self.0.protect_trace(trace, rng)
    }

    // No protect_view / protect_dataset overrides: that is the point.
}

/// Factory wrapper instantiating [`ForcedRowPath`]-wrapped mechanisms.
struct ForcedRowPathFactory(Box<dyn LppmFactory>);

impl LppmFactory for ForcedRowPathFactory {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn space(&self) -> ConfigSpace {
        self.0.space()
    }

    fn instantiate_at(
        &self,
        point: &ConfigPoint,
    ) -> Result<Box<dyn Lppm>, geopriv::core::CoreError> {
        Ok(Box::new(ForcedRowPath(self.0.instantiate_at(point)?)))
    }
}

fn fleet(seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    TaxiFleetBuilder::new()
        .drivers(4)
        .duration_hours(4.0)
        .sampling_interval_s(60.0)
        .build(&mut rng)
        .expect("static generator configuration is valid")
}

fn paired_systems() -> (SystemDefinition, SystemDefinition) {
    let columnar = SystemDefinition::with_pair(
        Box::new(GeoIndistinguishabilityFactory::new()),
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
    .expect("valid system");
    let row = SystemDefinition::with_pair(
        Box::new(ForcedRowPathFactory(Box::new(GeoIndistinguishabilityFactory::new()))),
        Box::new(PoiRetrieval::default()),
        Box::new(AreaCoverage::default()),
    )
    .expect("valid system");
    (columnar, row)
}

#[test]
fn forced_row_path_protection_is_bit_identical() {
    let dataset = fleet(11);
    let lppm = GeoIndistinguishability::new(Epsilon::new(0.01).expect("valid"));
    let columnar = lppm.protect_dataset(&dataset, &mut StdRng::seed_from_u64(5)).expect("protects");
    let row = ForcedRowPath(Box::new(lppm))
        .protect_dataset(&dataset, &mut StdRng::seed_from_u64(5))
        .expect("protects");
    assert_eq!(columnar, row);
}

#[test]
fn dataset_grain_sweeps_agree_across_layouts() {
    let dataset = fleet(12);
    let (columnar, row) = paired_systems();
    let config = SweepConfig { points: 5, repetitions: 2, seed: 77, parallel: true };
    let fast = ExperimentRunner::new(config).run(&columnar, &dataset).expect("sweep runs");
    let slow = ExperimentRunner::new(config).run(&row, &dataset).expect("sweep runs");
    assert_eq!(fast, slow);
}

#[test]
fn per_user_sweeps_agree_across_layouts() {
    let dataset = fleet(13);
    let (columnar, row) = paired_systems();
    let plan = SweepPlan::grid(SweepConfig { points: 5, repetitions: 1, seed: 78, parallel: true })
        .per_user();
    let fast =
        ExperimentRunner::with_plan(plan.clone()).run(&columnar, &dataset).expect("sweep runs");
    let slow = ExperimentRunner::with_plan(plan).run(&row, &dataset).expect("sweep runs");
    assert_eq!(fast, slow);
    assert!(!fast.user_columns.is_empty());
}

#[test]
fn sharded_sweeps_agree_across_layouts() {
    let dataset = fleet(14);
    let (columnar, row) = paired_systems();
    let plan = SweepPlan::grid(SweepConfig { points: 4, repetitions: 1, seed: 79, parallel: true })
        .per_user()
        .shard_users(2);
    let fast =
        ExperimentRunner::with_plan(plan.clone()).run(&columnar, &dataset).expect("sweep runs");
    let slow = ExperimentRunner::with_plan(plan).run(&row, &dataset).expect("sweep runs");
    assert_eq!(fast, slow);
}

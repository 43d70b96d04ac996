//! The offline half of the hand-off: inputs, the configure and refresh
//! phases, and the traced layer probe that splits them by layer.

use geopriv_bench::Fidelity;
use geopriv_core::cache::CacheStats;
use geopriv_core::experiment::{derive_unit_seed, derive_user_seed};
use geopriv_core::json::JsonValue;
use geopriv_core::prelude::*;
use geopriv_mobility::generator::{perturb_users, scaled, TaxiFleetBuilder};
use geopriv_mobility::{Dataset, UserId};
use geopriv_serve::AssignmentRegistry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use geopriv_handoff_bench::report::Checks;
use geopriv_handoff_bench::trace::Tracer;

/// Boxed error of the benchmark's pipeline calls.
pub type BoxError = Box<dyn std::error::Error>;

/// Users of the many-cheap-users fleet (`fleet_refresh`, `serve_stream`).
/// Large enough that the quadratic JSON parse of its export dominates a
/// cold configure; shrinking it would hide that.
pub const FLEET_USERS: usize = 2_000;

/// Every `DRIFT_STRIDE`-th user drifts between configure and refresh (1 %).
pub const DRIFT_STRIDE: usize = 100;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Record-heavy taxi fleet, dataset-grain paper sweep.
    PaperSweep,
    /// Many cheap users, per-user grain with the measurement cache.
    FleetRefresh,
    /// The fleet's artifact served to a closed-loop client.
    ServeStream,
}

/// How one phase of the measuring loop spends a run: at least `min` and at
/// most `max` repetitions, interleaved with the other phases by `share` of
/// the time spent.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Minimum repetitions (rounds, or served updates).
    pub min: usize,
    /// Maximum repetitions.
    pub max: usize,
    /// Share of the run's measuring time.
    pub share: f64,
}

impl Workload {
    /// Parses a `--workload` argument.
    pub fn from_arg(arg: &str) -> Option<Workload> {
        match arg {
            "paper_sweep" => Some(Workload::PaperSweep),
            "fleet_refresh" => Some(Workload::FleetRefresh),
            "serve_stream" => Some(Workload::ServeStream),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperSweep => "paper_sweep",
            Workload::FleetRefresh => "fleet_refresh",
            Workload::ServeStream => "serve_stream",
        }
    }

    /// Whether the workload sweeps at per-user grain through the cache.
    pub fn per_user(self) -> bool {
        self != Workload::PaperSweep
    }

    /// The sweep configuration: 33 points × 3 repetitions for the paper
    /// sweep, 25 × 1 for the fleet; at most two worker threads on a
    /// two-core host.
    pub fn sweep_config(self, seed: u64) -> SweepConfig {
        match self {
            Workload::PaperSweep => SweepConfig {
                points: Fidelity::Full.sweep_points(),
                repetitions: Fidelity::Full.repetitions(),
                seed,
                parallel: true,
            },
            _ => SweepConfig { points: 25, repetitions: 1, seed, parallel: true },
        }
    }

    /// The objectives inverted into an operating point: the paper's
    /// (≤ 10 % POI retrieval, ≥ 80 % area coverage) on the taxi fleet, and
    /// bounds feasible on the fleet's short traces otherwise.
    pub fn objectives(self) -> Result<Objectives, BoxError> {
        Ok(match self {
            Workload::PaperSweep => Objectives::paper_example(),
            _ => Objectives::new()
                .require("poi-retrieval", at_most(0.45))?
                .require("area-coverage", at_least(0.45))?,
        })
    }

    /// The measuring loop's phases — set-ups, configure rounds, refresh
    /// rounds and serving chunks of `serving::CHUNK` updates — with their
    /// minimum and maximum counts and their shares of the measuring time.
    ///
    /// On the 50-driver taxi fleet each driver receives ~500 updates/s while
    /// a chunk runs, below the rate limiter's refill of 1000/s, and the
    /// sweeps between chunks let its bucket refill.
    pub fn phases(self) -> [Phase; 4] {
        let setup = Phase { min: 3, max: 1_000, share: 0.05 };
        match self {
            Workload::PaperSweep => [
                setup,
                Phase { min: 3, max: 50, share: 0.4 },
                Phase { min: 3, max: 50, share: 0.4 },
                Phase { min: 40, max: 60, share: 0.15 },
            ],
            Workload::FleetRefresh => [
                setup,
                Phase { min: 2, max: 50, share: 0.5 },
                Phase { min: 9, max: 1_000, share: 0.2 },
                Phase { min: 20, max: 500, share: 0.25 },
            ],
            Workload::ServeStream => [
                setup,
                Phase { min: 2, max: 2, share: 0.35 },
                Phase { min: 9, max: 1_000, share: 0.1 },
                Phase { min: 100, max: 1_000, share: 0.5 },
            ],
        }
    }
}

/// The generated inputs of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Inputs {
    /// The dataset configured at first.
    pub dataset: Dataset,
    /// Every [`DRIFT_STRIDE`]-th user of it.
    pub drifting: Vec<UserId>,
    /// The dataset after those users drifted.
    pub drifted: Dataset,
}

/// Generates a workload's inputs from the seed.
pub fn generate(workload: Workload, seed: u64) -> Result<Inputs, BoxError> {
    let dataset = match workload {
        Workload::PaperSweep => TaxiFleetBuilder::new()
            .drivers(Fidelity::Full.drivers())
            .duration_hours(Fidelity::Full.duration_hours())
            .sampling_interval_s(30.0)
            .build(&mut StdRng::seed_from_u64(seed))?,
        _ => scaled(FLEET_USERS, seed)?,
    };
    let drifting: Vec<UserId> = dataset.users().into_iter().step_by(DRIFT_STRIDE).collect();
    let drifted = perturb_users(&dataset, &drifting, seed)?;
    Ok(Inputs { dataset, drifting, drifted })
}

fn factory() -> Box<dyn LppmFactory> {
    Box::new(GeoIndistinguishabilityFactory::new())
}

/// Wipes and re-creates a cache directory.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)
}

/// Every file of a directory with its bytes, to restore the primed cache
/// before each refresh round.
pub fn snapshot(dir: &Path) -> std::io::Result<Vec<(PathBuf, Vec<u8>)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_file() {
            let bytes = std::fs::read(&path)?;
            files.push((path, bytes));
        }
    }
    files.sort();
    Ok(files)
}

/// Restores a [`snapshot`] into an emptied directory.
pub fn restore(dir: &Path, files: &[(PathBuf, Vec<u8>)]) -> std::io::Result<()> {
    fresh_dir(dir)?;
    for (path, bytes) in files {
        std::fs::write(path, bytes)?;
    }
    Ok(())
}

/// The deployable result of a configure phase.
pub struct Configured {
    /// The sweep the models were fitted on.
    pub sweep: SweepResult,
    /// Per-user models (per-user workloads only).
    pub fits: Option<PerUserFits>,
    /// The per-user deployment artifact (the paper sweep deploys its
    /// dataset-level point to every user).
    pub recommendation: PerUserRecommendation,
    /// The exported artifact, as written.
    pub export: String,
    /// The registry loaded from the export.
    pub registry: AssignmentRegistry,
}

/// The configure phase: from the generated dataset to a loaded registry.
///
/// - paper sweep: dataset-grain sweep → fit → recommend →
///   `recommendation_to_json`, then the registry of that point;
/// - fleet: cold cached per-user sweep into the (empty) `cache` →
///   fit + `fit_per_user` → `recommend_per_user` →
///   `per_user_recommendation_to_json` → `AssignmentRegistry::from_json`.
pub fn configure(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    cache: &Path,
) -> Result<Configured, BoxError> {
    let system = SystemDefinition::paper_geoi();
    let config = workload.sweep_config(seed);
    let objectives = workload.objectives()?;
    if !workload.per_user() {
        let sweep = ExperimentRunner::new(config).run(&system, &inputs.dataset)?;
        let fitted = Modeler::new().fit(&sweep)?;
        let dataset = Configurator::new(fitted).recommend(&objectives)?;
        let export = report::recommendation_to_json(&dataset);
        let recommendation = PerUserRecommendation { dataset, users: Vec::new() };
        let deploy = report::per_user_recommendation_to_json(&recommendation);
        let registry = AssignmentRegistry::from_json(factory(), &deploy, seed)?;
        return Ok(Configured { sweep, fits: None, recommendation, export, registry });
    }
    let runner = ExperimentRunner::with_plan(SweepPlan::grid(config).per_user().cached(cache));
    let cold = runner.run_cached(&system, &inputs.dataset)?;
    let fitted = Modeler::new().fit(&cold.result)?;
    let fits = Modeler::new().fit_per_user(&cold.result)?;
    let recommendation = Configurator::new(fitted).recommend_per_user(&fits, &objectives)?;
    let export = report::per_user_recommendation_to_json(&recommendation);
    let registry = AssignmentRegistry::from_json(factory(), &export, seed)?;
    Ok(Configured { sweep: cold.result, fits: Some(fits), recommendation, export, registry })
}

/// The result of a refresh phase.
#[derive(Debug, Clone, PartialEq)]
pub struct Refreshed {
    /// The refreshed sweep.
    pub sweep: SweepResult,
    /// Refitted per-user models (per-user workloads only).
    pub fits: Option<PerUserFits>,
    /// The refreshed export.
    pub export: String,
    /// Refreshed per-user recommendation (per-user workloads only).
    pub recommendation: Option<PerUserRecommendation>,
    /// Cache accounting of the warm run (per-user workloads only).
    pub stats: Option<CacheStats>,
}

/// The refresh phase after 1 % of the users drifted, from the configure
/// phase's per-user models (`previous`).
///
/// - paper sweep: the dataset grain bypasses the cache, so a refresh is a
///   full re-sweep of the drifted dataset → fit → recommend → export;
/// - fleet: warm `run_cached` on the drifted fleet against the primed
///   `cache` → `refit_per_user` → `recommend_per_user` → export.
pub fn refresh(
    workload: Workload,
    inputs: &Inputs,
    previous: Option<&PerUserFits>,
    seed: u64,
    cache: &Path,
) -> Result<Refreshed, BoxError> {
    let system = SystemDefinition::paper_geoi();
    let config = workload.sweep_config(seed);
    let objectives = workload.objectives()?;
    let Some(previous) = previous else {
        let sweep = ExperimentRunner::new(config).run(&system, &inputs.drifted)?;
        let fitted = Modeler::new().fit(&sweep)?;
        let point = Configurator::new(fitted).recommend(&objectives)?;
        let export = report::recommendation_to_json(&point);
        return Ok(Refreshed { sweep, fits: None, export, recommendation: None, stats: None });
    };
    let runner = ExperimentRunner::with_plan(SweepPlan::grid(config).per_user().cached(cache));
    let warm = runner.run_cached(&system, &inputs.drifted)?;
    let fits = Modeler::new().refit_per_user(&warm.result, previous, &inputs.drifting)?;
    let fitted = Modeler::new().fit(&warm.result)?;
    let recommendation = Configurator::new(fitted).recommend_per_user(&fits, &objectives)?;
    let export = report::per_user_recommendation_to_json(&recommendation);
    Ok(Refreshed {
        sweep: warm.result,
        fits: Some(fits),
        export,
        recommendation: Some(recommendation),
        stats: Some(warm.stats),
    })
}

/// A cold cached run of the drifted fleet with its models and
/// recommendations: what a warm refresh must reproduce bit for bit.
pub fn cold_reference(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    cache: &Path,
) -> Result<(SweepResult, PerUserFits, PerUserRecommendation), BoxError> {
    fresh_dir(cache)?;
    let system = SystemDefinition::paper_geoi();
    let plan = SweepPlan::grid(workload.sweep_config(seed)).per_user().cached(cache);
    let cold = ExperimentRunner::with_plan(plan).run_cached(&system, &inputs.drifted)?;
    let fitted = Modeler::new().fit(&cold.result)?;
    let fits = Modeler::new().fit_per_user(&cold.result)?;
    let recommendation =
        Configurator::new(fitted).recommend_per_user(&fits, &workload.objectives()?)?;
    Ok((cold.result, fits, recommendation))
}

/// Span name of a suite metric's `prepare` and `evaluate` calls.
fn metric_spans(id: &MetricId) -> (&'static str, &'static str) {
    match id.as_str() {
        "poi-retrieval" => ("metrics.poi_retrieval.prepare", "metrics.poi_retrieval.evaluate"),
        "area-coverage" => ("metrics.area_coverage.prepare", "metrics.area_coverage.evaluate"),
        _ => ("metrics.other.prepare", "metrics.other.evaluate"),
    }
}

/// What the layer probe leaves for the serving phase.
pub struct Probed {
    /// The probe's per-user recommendation (decoded from its export).
    pub recommendation: PerUserRecommendation,
    /// The registry loaded from it.
    pub registry: AssignmentRegistry,
}

/// The traced layer probe: every layer's public function called once on
/// this workload's inputs, each call inside its own span.
///
/// 1. a sequential per-user-grain sweep (`core.experiment.run`), then a
///    replay of the same units — `instantiate_at` → `protect_dataset` →
///    `prepare`/`evaluate_prepared` under `derive_unit_seed` — whose metric
///    columns must equal the sweep's bit for bit;
/// 2. a sequential cold cached run into an empty cache, a replay of its
///    per-user units without the cache (whose user curves must equal the
///    run's bit for bit), then a fully warm run of the unchanged dataset
///    (`core.cache.*`);
/// 3. dataset and per-user fits and recommendations, the drift refresh
///    through the cache and the incremental refit;
/// 4. export, `JsonValue::parse`, `per_user_recommendation_from_json` and
///    `AssignmentRegistry::load` of the decoded artifact.
pub fn layer_probe(
    workload: Workload,
    inputs: &Inputs,
    seed: u64,
    cache: &Path,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<Probed, BoxError> {
    let system = SystemDefinition::paper_geoi();
    let config = SweepConfig { parallel: false, ..workload.sweep_config(seed) };
    let plan = SweepPlan::grid(config).per_user();
    let dataset = &inputs.dataset;

    // 1. Sequential sweep, then its replay.
    let sweep = tracer.span("core.experiment.run", || {
        ExperimentRunner::with_plan(plan.clone()).run(&system, dataset)
    })?;
    let points = plan.enumerate(&system.space())?;
    let mut runs: Vec<Vec<Vec<f64>>> = vec![Vec::with_capacity(points.len()); system.suite().len()];
    tracer.span("core.experiment.replay", || -> Result<(), BoxError> {
        let prepared = system
            .suite()
            .iter()
            .map(|metric| tracer.span(metric_spans(&metric.id()).0, || metric.prepare(dataset)))
            .collect::<Result<Vec<_>, _>>()?;
        for (p, point) in points.iter().enumerate() {
            let lppm = system.factory().instantiate_at(point)?;
            let mut per_metric: Vec<Vec<f64>> = vec![Vec::new(); system.suite().len()];
            for repetition in 0..config.repetitions {
                let mut rng = StdRng::seed_from_u64(derive_unit_seed(seed, p, repetition));
                let protected =
                    tracer.span("lppm.protect", || lppm.protect_dataset(dataset, &mut rng))?;
                tracer.count("lppm.protect.records", dataset.record_count() as f64);
                tracer.count("core.experiment.samples", 1.0);
                for ((metric, state), values) in
                    system.suite().iter().zip(&prepared).zip(per_metric.iter_mut())
                {
                    let measured = tracer.span(metric_spans(&metric.id()).1, || {
                        metric.evaluate_prepared(state, dataset, &protected)
                    })?;
                    values.push(measured.value());
                }
            }
            for (column, values) in runs.iter_mut().zip(per_metric) {
                column.push(values);
            }
        }
        Ok(())
    })?;
    let replay_matches = sweep.columns.len() == runs.len()
        && sweep.columns.iter().zip(&runs).all(|(column, runs)| {
            let means: Vec<f64> =
                runs.iter().map(|r| r.iter().sum::<f64>() / r.len() as f64).collect();
            column.runs == *runs
                && column.means.iter().zip(&means).all(|(a, b)| a.to_bits() == b.to_bits())
        });
    checks.check(
        "replay reproduces the sweep's metric columns bit for bit",
        replay_matches,
        || "replayed units differ from ExperimentRunner::run".to_string(),
    );

    // 2. Cache store and load.
    fresh_dir(cache)?;
    let cached = ExperimentRunner::with_plan(plan.clone().cached(cache));
    let cold = tracer.span("core.cache.cold_run", || cached.run_cached(&system, dataset))?;
    let primed = snapshot(cache)?;
    let curves = tracer.span("core.cache.measure_replay", || {
        replay_user_units(&system, dataset, &points, config)
    })?;
    let curves_match = cold.result.user_columns.iter().enumerate().all(|(k, column)| {
        column.users.iter().zip(&column.curves).all(|(user, curve)| {
            curves.get(&(user.value(), k)).is_some_and(|replayed| {
                replayed.len() == curve.len()
                    && replayed.iter().zip(curve).all(|(a, b)| a.to_bits() == b.to_bits())
            })
        })
    });
    checks.check(
        "replayed per-user units reproduce the cold cached run's user curves bit for bit",
        curves_match && !cold.result.user_columns.is_empty(),
        || "replayed user units differ from ExperimentRunner::run_cached".to_string(),
    );
    let warm = tracer.span("core.cache.warm_run", || cached.run_cached(&system, dataset))?;
    checks.check(
        "a warm run of the unchanged dataset is fully cached",
        warm.stats.fully_warm(),
        || format!("{:?}", warm.stats),
    );
    checks.check("warm and cold cached runs agree", warm.result == cold.result, || {
        "warm cached sweep differs from the cold one".to_string()
    });

    // 3. Modeling and configuration, then the drift refresh.
    let objectives = workload.objectives()?;
    let fitted = tracer.span("core.modeling.fit", || Modeler::new().fit(&cold.result))?;
    let fits =
        tracer.span("core.modeling.fit_per_user", || Modeler::new().fit_per_user(&cold.result))?;
    tracer.count("core.modeling.fit_per_user.unfit", (fits.len() - fits.fitted_count()) as f64);
    let configurator = Configurator::new(fitted);
    tracer.span("core.configurator.recommend", || configurator.recommend(&objectives))?;
    let recommendation = tracer.span("core.configurator.recommend_per_user", || {
        configurator.recommend_per_user(&fits, &objectives)
    })?;
    tracer.count("core.configurator.feasible", recommendation.feasible_count() as f64);
    tracer.count("core.configurator.fallback", recommendation.fallback_count() as f64);
    restore(cache, &primed)?;
    let drift =
        tracer.span("core.cache.refresh_run", || cached.run_cached(&system, &inputs.drifted))?;
    tracer.count("core.cache.hits", drift.stats.hits as f64);
    tracer.count("core.cache.misses", drift.stats.misses as f64);
    tracer.count("core.cache.warnings", drift.stats.warnings.len() as f64);
    tracer.span("core.modeling.refit", || {
        Modeler::new().refit_per_user(&drift.result, &fits, &inputs.drifting)
    })?;
    tracer.count("core.modeling.refit.users", inputs.drifting.len() as f64);

    // 4. Export, parse, decode and load.
    let export = tracer
        .span("core.report.export", || report::per_user_recommendation_to_json(&recommendation));
    tracer.count("core.report.export.bytes", export.len() as f64);
    tracer.span("core.json.parse", || JsonValue::parse(&export))?;
    tracer.count("core.json.parse.bytes", export.len() as f64);
    let decoded = tracer
        .span("core.report.from_json", || report::per_user_recommendation_from_json(&export))?;
    checks.check(
        "the export round-trips to an equal recommendation",
        decoded == recommendation,
        || "per_user_recommendation_from_json(export) differs".to_string(),
    );
    let registry = tracer
        .span("serve.registry.load", || AssignmentRegistry::load(factory(), &decoded, seed))?;
    tracer.count("serve.registry.load.assignments", registry.assigned_users() as f64);
    Ok(Probed { recommendation: decoded, registry })
}

/// Replays the measurement units of a cold cached run without the cache:
/// each user's own slice, per-user prepared metric state, and her
/// identity-keyed `derive_user_seed` stream. Returns each `(user, metric)`
/// curve, averaged over the repetitions as the sweep engine averages them.
fn replay_user_units(
    system: &SystemDefinition,
    dataset: &Dataset,
    points: &[ConfigPoint],
    config: SweepConfig,
) -> Result<BTreeMap<(u64, usize), Vec<f64>>, BoxError> {
    let mut curves = BTreeMap::new();
    for (index, user) in dataset.users().into_iter().enumerate() {
        let slice = dataset.user_slice(index..index + 1)?;
        let prepared = system
            .suite()
            .iter()
            .map(|metric| metric.prepare(&slice))
            .collect::<Result<Vec<_>, _>>()?;
        let mut sums = vec![vec![0.0_f64; points.len()]; prepared.len()];
        let mut evaluated = vec![true; prepared.len()];
        for (p, point) in points.iter().enumerate() {
            let lppm = system.factory().instantiate_at(point)?;
            for repetition in 0..config.repetitions {
                let seed = derive_user_seed(config.seed, p, repetition, user);
                let protected = lppm.protect_dataset(&slice, &mut StdRng::seed_from_u64(seed))?;
                for (k, (metric, state)) in system.suite().iter().zip(&prepared).enumerate() {
                    let measured = metric.evaluate_prepared(state, &slice, &protected)?;
                    match (measured.value_for(user), sums.get_mut(k).and_then(|s| s.get_mut(p))) {
                        (Some(value), Some(sum)) => *sum += value,
                        _ => evaluated[k] = false,
                    }
                }
            }
        }
        let reps = config.repetitions as f64;
        for (k, sums) in sums.into_iter().enumerate() {
            if evaluated[k] {
                curves.insert((user.value(), k), sums.into_iter().map(|sum| sum / reps).collect());
            }
        }
    }
    Ok(curves)
}

/// Builds a second registry of the same artifact, for twin checks and
/// in-process probes.
pub fn twin_registry(
    recommendation: &PerUserRecommendation,
    seed: u64,
) -> Result<AssignmentRegistry, BoxError> {
    Ok(AssignmentRegistry::load(factory(), recommendation, seed)?)
}

//! One benchmark for the whole geopriv hand-off: generate → sweep → fit →
//! recommend → JSON export → registry load → served updates.
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/handoff/Cargo.toml -- \
//!     --workload paper_sweep|fleet_refresh|serve_stream \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload runs the same hand-off on its own inputs, so every
//! end-to-end metric exists on every workload:
//!
//! | workload | inputs | where the time goes |
//! |---|---|---|
//! | `paper_sweep` | 50-driver × 24 h taxi fleet, dataset grain, 33 ε × 3 reps | protection and metrics; the cache is bypassed |
//! | `fleet_refresh` | 2,000-user scaled fleet, per-user grain, 25 ε | modeling, JSON and registry load; the cache is used |
//! | `serve_stream` | the same fleet's artifact, ≥ 200k served updates | transport, protocol, middleware, stream kernel |
//!
//! With `--trace 0` the run measures set-up, configure rounds, refresh
//! rounds and a closed serving loop with tracing off, and prints the
//! end-to-end metrics. With `--trace 1` it sets up once, runs the layer
//! probe (every layer's public function called once inside a span) and the
//! serving loop with its in-process split, and prints the per-layer
//! metrics. Both modes run the relational correctness checks; a failed
//! check prints `"correct": false` and exits with code 1. The last stdout
//! line is the JSON result; a host descriptor (and, when traced, every
//! span) is written under `.bench_work/results/`.

#![forbid(unsafe_code)]

mod handoff;
mod serving;

use geopriv_bench::REPRODUCTION_SEED;
use geopriv_handoff_bench::report::{descriptor_json, result_line, table, Checks, Host, Metric};
use geopriv_handoff_bench::stats::{median, quartiles, relative_spread, Tally};
use geopriv_handoff_bench::trace::{span_overhead_seconds, Tracer};
use handoff::{BoxError, Phase, Workload};
use serving::Serving;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Timed serving chunks of a traced run.
const TRACED_CHUNKS: usize = 10;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, BoxError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.windows(2).find(|w| w[0] == flag).map(|w| w[1].as_str())
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let workload =
        Workload::from_arg(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let seed = value("--seed").map_or(Ok(REPRODUCTION_SEED), str::parse)?;
    let seconds: f64 = value("--seconds").map_or(Ok(20.0), str::parse)?;
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, got {other:?}").into()),
    };
    Ok(Args { workload, seed, seconds, trace })
}

/// A run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Which phase of the measuring loop runs next.
///
/// Phases are interleaved rather than run one after another, so that a few
/// busy seconds of a shared host fall on a few samples of every metric
/// instead of on all samples of one: the next phase is the one furthest
/// behind its share of the time spent, among those below their maximum.
/// Once `seconds` have passed, only phases below their minimum run.
fn next_phase(
    phases: &[Phase],
    done: &[usize],
    spent: &[f64],
    elapsed: f64,
    seconds: f64,
) -> Option<usize> {
    let behind = |i: &usize| spent[*i] / phases[*i].share.max(1e-9);
    (0..phases.len())
        .filter(|&i| done[i] < phases[i].max)
        .filter(|&i| done[i] < phases[i].min || (elapsed < seconds && phases[i].share > 0.0))
        .min_by(|a, b| behind(a).total_cmp(&behind(b)))
}

/// Prints a timing's samples within the run: count, median, quartiles and
/// their distance as a share of the median.
fn describe(workload: Workload, name: &str, samples: &[f64]) {
    let mid = median(samples).unwrap_or(f64::NAN);
    match (quartiles(samples), relative_spread(samples)) {
        (Some((q1, _, q3)), Some(spread)) => eprintln!(
            "[{}] {name}: {} samples, median {mid:.6}, quartiles {q1:.6}..{q3:.6} (spread {spread:.3})",
            workload.name(),
            samples.len()
        ),
        _ => eprintln!("[{}] {name}: {} sample, {mid:.6}", workload.name(), samples.len()),
    }
}

/// The end-to-end run (`--trace 0`).
fn end_to_end(
    args: &Args,
    work: &Path,
    tally: &mut Tally,
    checks: &mut Checks,
) -> Result<Vec<Metric>, BoxError> {
    let workload = args.workload;
    let seed = args.seed;
    geopriv_bench::reset_peak_rss();

    // Set-up once; the measuring loop repeats it (its median is `setup_s`),
    // and every repetition must generate identical inputs. The first
    // configure round primes the cache and yields the registry that is
    // served; the loop then interleaves set-ups, further configure rounds,
    // refresh rounds from the primed cache, and serving chunks.
    let measuring = Instant::now();
    let inputs = handoff::generate(workload, seed)?;
    let mut setup_times = vec![measuring.elapsed().as_secs_f64()];
    let cache = work.join("cache");
    handoff::fresh_dir(&cache)?;
    let first = Instant::now();
    let configured = handoff::configure(workload, &inputs, seed, &cache)?;
    let mut configure_times = vec![first.elapsed().as_secs_f64()];
    tally.succeeded();
    let primed = if workload.per_user() { handoff::snapshot(&cache)? } else { Vec::new() };
    let handoff::Configured { sweep, fits, recommendation, export, registry } = configured;
    let assigned = registry.assigned_users();
    let mut serving = Serving::start(registry, &inputs.dataset, tally)?;

    let phases = workload.phases();
    let mut done = [1, 1, 0, 0];
    let mut spent = [setup_times[0], configure_times[0], 0.0, 0.0];
    let mut refresh_times = Vec::new();
    let mut refreshed: Option<handoff::Refreshed> = None;
    let (mut setup_identical, mut configure_identical) = (true, true);
    let (mut refresh_identical, mut cache_ok) = (true, true);
    let users = inputs.dataset.user_count();
    while let Some(phase) =
        next_phase(&phases, &done, &spent, measuring.elapsed().as_secs_f64(), args.seconds)
    {
        let started = Instant::now();
        match phase {
            0 => {
                let generated = handoff::generate(workload, seed)?;
                setup_times.push(started.elapsed().as_secs_f64());
                setup_identical &= generated == inputs;
            }
            1 => {
                handoff::fresh_dir(&cache)?;
                let timed = Instant::now();
                let round = handoff::configure(workload, &inputs, seed, &cache)?;
                configure_times.push(timed.elapsed().as_secs_f64());
                configure_identical &= round.sweep == sweep && round.export == export;
            }
            2 => {
                if workload.per_user() {
                    handoff::restore(&cache, &primed)?;
                }
                let timed = Instant::now();
                let round = handoff::refresh(workload, &inputs, fits.as_ref(), seed, &cache)?;
                refresh_times.push(timed.elapsed().as_secs_f64());
                if let Some(stats) = &round.stats {
                    cache_ok &=
                        stats.hits == users - inputs.drifting.len() && stats.warnings.is_empty();
                }
                match &refreshed {
                    Some(first) => refresh_identical &= *first == round,
                    None => refreshed = Some(round),
                }
            }
            _ => serving.chunk(tally)?,
        }
        if phase == 1 || phase == 2 {
            tally.succeeded();
        }
        done[phase] += 1;
        spent[phase] += started.elapsed().as_secs_f64();
    }
    eprintln!(
        "[{}] measured {:.1}s: {} set-ups, {} configure, {} refresh, {} serving chunks \
         ({} export bytes)",
        workload.name(),
        measuring.elapsed().as_secs_f64(),
        done[0],
        done[1],
        done[2],
        done[3],
        export.len()
    );
    let twin = handoff::twin_registry(&recommendation, seed)?;
    let served = serving.finish(twin, seed, tally, checks)?;
    // Reported, not gated: in a closed loop the throughput is one over the
    // mean latency, and both it and the p99 follow the shared host's stalls
    // far more than the code (see README); traced runs report them as
    // `serve.updates_per_s` and `serve.update.p99_us`.
    println!(
        "serving, not gated: updates_per_s {} 1/s (median over {}-update windows), \
         update_p99_us {} us (median over chunks)",
        served.updates_per_s,
        serving::RATE_WINDOW,
        served.p99_us
    );
    let peak_rss_mb = geopriv_bench::peak_rss_kb().map_or(0.0, |kb| kb as f64 / 1024.0);
    let refreshed = refreshed.ok_or("no refresh round ran")?;

    checks.check("set-up is deterministic in the seed", setup_identical, || {
        "two set-ups of one seed differ".to_string()
    });
    checks.check("configure rounds are bit-identical", configure_identical, || {
        "two configure rounds differ".to_string()
    });
    checks.check("refresh rounds are bit-identical", refresh_identical, || {
        "two refresh rounds differ".to_string()
    });
    if workload.per_user() {
        checks.check("assigned_users() equals the fleet size", assigned == users, || {
            format!("{assigned} of {users}")
        });
        checks.check("cache hits equal users minus drifted users, no warnings", cache_ok, || {
            format!("{:?}", refreshed.stats)
        });
        let (sweep, fits, recommendation) =
            handoff::cold_reference(workload, &inputs, seed, &work.join("cold"))?;
        let equal = refreshed.sweep == sweep
            && refreshed.fits.as_ref() == Some(&fits)
            && refreshed.recommendation.as_ref() == Some(&recommendation);
        checks.check("warm refresh equals a cold cached run of the drifted fleet", equal, || {
            "columns, fits or recommendations differ".to_string()
        });
    } else {
        let rising = sweep.columns.iter().all(|c| match (c.means.first(), c.means.last()) {
            (Some(low), Some(high)) => high > low,
            _ => false,
        });
        checks.check("both metrics rise from the lowest to the highest epsilon", rising, || {
            "Figure-1 shape broken".to_string()
        });
    }
    if workload == Workload::FleetRefresh {
        let decoded = geopriv_core::report::per_user_recommendation_from_json(&export)?;
        checks.check(
            "the export round-trips to an equal recommendation",
            decoded == recommendation,
            || "per_user_recommendation_from_json(export) differs".to_string(),
        );
    }

    for (name, times) in [
        ("setup_s", &setup_times),
        ("configure_s", &configure_times),
        ("refresh_s", &refresh_times),
    ] {
        describe(workload, name, times);
    }
    let median_of = |times: &[f64]| median(times).unwrap_or(0.0);
    Ok(vec![
        Metric { name: "setup_s", value: median_of(&setup_times), unit: "s" },
        Metric { name: "configure_s", value: median_of(&configure_times), unit: "s" },
        Metric { name: "refresh_s", value: median_of(&refresh_times), unit: "s" },
        Metric { name: "update_p50_us", value: served.p50_us, unit: "us" },
        Metric { name: "peak_rss_mb", value: peak_rss_mb, unit: "MB" },
    ])
}

/// The traced run (`--trace 1`).
fn traced(
    args: &Args,
    work: &Path,
    tracer: &Tracer,
    tally: &mut Tally,
    checks: &mut Checks,
) -> Result<Vec<Metric>, BoxError> {
    let workload = args.workload;
    let seed = args.seed;
    let inputs = tracer.span("mobility.generate", || handoff::generate(workload, seed))?;
    let records = inputs.dataset.record_count() as f64;

    let probed =
        handoff::layer_probe(workload, &inputs, seed, &work.join("cache"), tracer, checks)?;
    tally.succeeded();
    let mut serving = Serving::start(probed.registry, &inputs.dataset, tally)?;
    for _ in 0..TRACED_CHUNKS {
        serving.chunk(tally)?;
    }
    let twin = handoff::twin_registry(&probed.recommendation, seed)?;
    let served = serving.finish(twin, seed, tally, checks)?;
    let bench_registry = handoff::twin_registry(&probed.recommendation, seed)?;
    let (parse_ns, encode_ns, protect_ns, middleware_ns) =
        serving::update_probe(&bench_registry, &inputs.dataset, tracer)?;

    let sequential = tracer.total("core.experiment.run");
    let replay = tracer.total("core.experiment.replay");
    let protect = tracer.total("lppm.protect");
    let protected_records = tracer.counter("lppm.protect.records");
    let metric_spans = [
        "metrics.poi_retrieval.prepare",
        "metrics.poi_retrieval.evaluate",
        "metrics.area_coverage.prepare",
        "metrics.area_coverage.evaluate",
    ];
    let metrics_total: f64 = metric_spans.iter().map(|name| tracer.total(name)).sum();
    let self_s = sequential - replay;
    eprintln!(
        "[{}] sequential sweep {sequential:.4}s = protect {protect:.4}s + metrics {metrics_total:.4}s \
         + experiment self {self_s:.4}s ({:.2}% accounted; the replay's own self time is {:.4}s)",
        workload.name(),
        100.0 * (protect + metrics_total + self_s) / sequential,
        tracer.self_time("core.experiment.replay")
    );
    let parse = tracer.total("core.json.parse");
    let wire_ns = served.p50_us * 1e3;
    let spans = tracer.span_count() as f64;

    let count = |name: &'static str, value: f64| Metric { name, value, unit: "count" };
    let secs = |name: &'static str, value: f64| Metric { name, value, unit: "s" };
    let nanos = |name: &'static str, value: f64| Metric { name, value, unit: "ns" };
    Ok(vec![
        secs("mobility.generate.s", tracer.total("mobility.generate")),
        count("mobility.generate.records", records),
        secs("lppm.protect.s", protect),
        count("lppm.protect.records", protected_records),
        nanos("lppm.protect.ns_per_record", protect * 1e9 / protected_records.max(1.0)),
        secs("metrics.poi_retrieval.prepare.s", tracer.total(metric_spans[0])),
        secs("metrics.poi_retrieval.evaluate.s", tracer.total(metric_spans[1])),
        count("metrics.poi_retrieval.evaluate.calls", tracer.calls(metric_spans[1]) as f64),
        secs("metrics.area_coverage.prepare.s", tracer.total(metric_spans[2])),
        secs("metrics.area_coverage.evaluate.s", tracer.total(metric_spans[3])),
        count("metrics.area_coverage.evaluate.calls", tracer.calls(metric_spans[3]) as f64),
        count("core.experiment.samples", tracer.counter("core.experiment.samples")),
        secs("core.experiment.self_s", self_s),
        secs(
            "core.cache.store.s",
            tracer.total("core.cache.cold_run") - tracer.total("core.cache.measure_replay"),
        ),
        secs("core.cache.load.s", tracer.total("core.cache.warm_run")),
        count("core.cache.hits", tracer.counter("core.cache.hits")),
        count("core.cache.misses", tracer.counter("core.cache.misses")),
        count("core.cache.warnings", tracer.counter("core.cache.warnings")),
        secs("core.modeling.fit.s", tracer.total("core.modeling.fit")),
        secs("core.modeling.fit_per_user.s", tracer.total("core.modeling.fit_per_user")),
        count(
            "core.modeling.fit_per_user.unfit",
            tracer.counter("core.modeling.fit_per_user.unfit"),
        ),
        secs("core.modeling.refit.s", tracer.total("core.modeling.refit")),
        count("core.modeling.refit.users", tracer.counter("core.modeling.refit.users")),
        secs("core.configurator.recommend.s", tracer.total("core.configurator.recommend")),
        secs(
            "core.configurator.recommend_per_user.s",
            tracer.total("core.configurator.recommend_per_user"),
        ),
        count("core.configurator.feasible", tracer.counter("core.configurator.feasible")),
        count("core.configurator.fallback", tracer.counter("core.configurator.fallback")),
        secs("core.report.export.s", tracer.total("core.report.export")),
        Metric {
            name: "core.report.export.bytes",
            value: tracer.counter("core.report.export.bytes"),
            unit: "bytes",
        },
        secs("core.json.parse.s", parse),
        Metric {
            name: "core.json.parse.bytes",
            value: tracer.counter("core.json.parse.bytes"),
            unit: "bytes",
        },
        secs("core.report.decode.s", tracer.total("core.report.from_json") - parse),
        secs("serve.registry.load.s", tracer.total("serve.registry.load")),
        count("serve.registry.load.assignments", tracer.counter("serve.registry.load.assignments")),
        nanos("serve.registry.protect.ns", protect_ns),
        count("serve.registry.sessions", served.sessions as f64),
        nanos("serve.protocol.parse.ns", parse_ns),
        nanos("serve.protocol.encode.ns", encode_ns),
        nanos("serve.middleware.ns", middleware_ns),
        nanos("transport.ns", wire_ns - (parse_ns + protect_ns + encode_ns + middleware_ns)),
        Metric { name: "serve.updates_per_s", value: served.updates_per_s, unit: "1/s" },
        Metric { name: "serve.update.p99_us", value: served.p99_us, unit: "us" },
        count("serve.requests", served.requests as f64),
        count("serve.non200", served.non200 as f64),
        secs("trace.overhead_s", spans * span_overhead_seconds()),
        count("trace.spans", spans),
    ])
}

fn run(args: &Args) -> Result<bool, BoxError> {
    let host = Host::detect();
    let work = WorkDir(PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    handoff::fresh_dir(&work.0)?;
    let tracer = Tracer::new(args.trace);
    let mut tally = Tally::default();
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(args, &work.0, &tracer, &mut tally, &mut checks)?
    } else {
        end_to_end(args, &work.0, &mut tally, &mut checks)?
    };
    let overhead = metrics.iter().find(|m| m.name == "trace.overhead_s").map_or(0.0, |m| m.value);

    let results = Path::new(".bench_work").join("results");
    std::fs::create_dir_all(&results)?;
    let stem = format!("{}-seed{}-trace{}", args.workload.name(), args.seed, u8::from(args.trace));
    let descriptor = descriptor_json(
        &host,
        args.workload.name(),
        args.seed,
        args.trace,
        overhead,
        &metrics,
        tally,
    );
    std::fs::write(results.join(format!("{stem}.json")), &descriptor)?;
    if args.trace {
        std::fs::write(results.join(format!("{stem}-spans.json")), tracer.to_json())?;
    }

    let correct = checks.all_passed() && tally.failed == 0;
    println!(
        "workload {} (seed {}, trace {})",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    println!(
        "host: {} cores, {}, {}; tracing overhead {:.6}s",
        host.cores, host.cpu_model, host.rustc, overhead
    );
    println!("checks:\n{}", checks.summary());
    println!(
        "operations: {} attempted, {} failed (failed_ratio {})",
        tally.attempted,
        tally.failed,
        tally.failed_ratio()
    );
    println!("metrics:\n{}", table(&metrics));
    println!("{}", result_line(correct, tally, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload paper_sweep|fleet_refresh|serve_stream [--seed N] [--seconds S] [--trace 0|1]: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            ExitCode::from(2)
        }
    }
}

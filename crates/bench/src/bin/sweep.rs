//! Single-sweep throughput baseline: times the standard paper workload (one
//! GEO-I ε sweep of the reproduction dataset through `ExperimentRunner`) and
//! emits a `BENCH_sweep.json` baseline, so single-sweep regressions are
//! visible on their own.
//!
//! ```text
//! cargo run -p geopriv-bench --release --bin sweep \
//!     [-- --fidelity smoke|standard|full] [--out BENCH_sweep.json]
//! ```

use geopriv_bench::{
    campaign_config, fidelity_from_args, median_seconds, out_path_from_args, reproduction_dataset,
    run_paper_sweep, BenchJson,
};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = fidelity_from_args();
    let out_path = out_path_from_args("BENCH_sweep.json");

    eprintln!("building the synthetic SF taxi dataset ({fidelity:?})…");
    let dataset = reproduction_dataset(fidelity);
    let config = campaign_config(fidelity);
    eprintln!(
        "sweep: {} points x {} repetitions over {} records",
        config.points,
        config.repetitions,
        dataset.record_count()
    );

    // Untimed warm-up (first-touch page faults, allocator) that doubles as a
    // determinism cross-check for the timed rounds.
    eprintln!("warming up…");
    let reference = run_paper_sweep(&dataset, fidelity)?;

    const ROUNDS: usize = 5;
    let mut times = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        eprintln!("round {}/{ROUNDS}…", round + 1);
        let started = Instant::now();
        let sweep = std::hint::black_box(run_paper_sweep(&dataset, fidelity)?);
        times.push(started.elapsed().as_secs_f64());
        assert_eq!(sweep, reference, "sweep is not deterministic across rounds");
    }
    let seconds_sweep = median_seconds(&mut times);
    let samples = config.points * config.repetitions;

    let json = BenchJson::new("sweep")
        .string("fidelity", format!("{fidelity:?}"))
        .string("lppm", &reference.lppm_name)
        .int("metrics", reference.columns.len() as u64)
        .int("points", config.points as u64)
        .int("repetitions", config.repetitions as u64)
        .int("drivers", dataset.user_count() as u64)
        .int("records", dataset.record_count() as u64)
        .float("seconds_sweep", seconds_sweep, 6)
        .float("samples_per_second", samples as f64 / seconds_sweep, 3);
    println!("{}", json.render());
    json.write(&out_path)?;
    eprintln!("baseline written to {out_path}");
    eprintln!("sweep: {seconds_sweep:.3}s ({samples} samples)");
    Ok(())
}

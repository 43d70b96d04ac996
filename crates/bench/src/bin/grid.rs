//! Multi-axis grid-study throughput baseline: times the 2-D configuration
//! study (GEO-I ε × grid-cloaking cell size composed as one pipeline, full
//! factorial through `ExperimentRunner`) and emits a `BENCH_grid.json`
//! baseline alongside the sweep baseline, so regressions on the
//! multi-axis path are visible independently of the 1-D sweep.
//!
//! ```text
//! cargo run -p geopriv-bench --release --bin grid \
//!     [-- --fidelity smoke|standard|full] [--out BENCH_grid.json]
//! ```

use geopriv_bench::{
    fidelity_from_args, grid_points_per_axis, median_seconds, out_path_from_args,
    reproduction_dataset, run_grid_study, BenchJson,
};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let fidelity = fidelity_from_args();
    let out_path = out_path_from_args("BENCH_grid.json");

    eprintln!("building the synthetic SF taxi dataset ({fidelity:?})…");
    let dataset = reproduction_dataset(fidelity);
    let per_axis = grid_points_per_axis(fidelity);
    eprintln!(
        "grid study: {per_axis} x {per_axis} design points over {} records",
        dataset.record_count()
    );

    // Untimed warm-up (first-touch page faults, allocator) that doubles as a
    // determinism cross-check for the timed rounds.
    eprintln!("warming up…");
    let reference = run_grid_study(&dataset, fidelity)?;
    assert_eq!(reference.len(), per_axis * per_axis, "full factorial was enumerated");

    const ROUNDS: usize = 5;
    let mut times = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        eprintln!("round {}/{ROUNDS}…", round + 1);
        let started = Instant::now();
        let study = std::hint::black_box(run_grid_study(&dataset, fidelity)?);
        times.push(started.elapsed().as_secs_f64());
        assert_eq!(study, reference, "grid study is not deterministic across rounds");
    }
    let seconds_grid = median_seconds(&mut times);
    let points = reference.len();

    let json = BenchJson::new("grid")
        .string("fidelity", format!("{fidelity:?}"))
        .string("lppm", &reference.lppm_name)
        .string("axes", reference.space.names().join(" x "))
        .int("points_per_axis", per_axis as u64)
        .int("design_points", points as u64)
        .int("metrics", reference.columns.len() as u64)
        .int("drivers", dataset.user_count() as u64)
        .int("records", dataset.record_count() as u64)
        .float("seconds_grid", seconds_grid, 6)
        .float("points_per_second", points as f64 / seconds_grid, 3);
    println!("{}", json.render());
    json.write(&out_path)?;
    eprintln!("baseline written to {out_path}");
    eprintln!("grid: {seconds_grid:.3}s ({points} design points)");
    Ok(())
}

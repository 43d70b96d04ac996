//! Run a whole evaluation campaign — several systems, one dataset — with
//! `CampaignRunner`, then print the per-system sweep summaries side by side.
//!
//! A campaign is a loop of `ExperimentRunner` sweeps, one per `(system,
//! dataset)` cell, that returns bit-identical results to running them one by
//! one. What the cells share is the actual dataset's prepared metric state:
//! its POIs and bounds are extracted once for all systems, points and
//! repetitions.
//!
//! ```text
//! cargo run --release --example campaign
//! ```

use geopriv::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let dataset = TaxiFleetBuilder::new()
        .drivers(6)
        .duration_hours(8.0)
        .sampling_interval_s(30.0)
        .build(&mut rng)?;
    println!("dataset: {} drivers, {} records", dataset.user_count(), dataset.record_count());

    // Three systems sharing the paper's metric pair, so the campaign extracts
    // the actual POIs exactly once for all of them.
    let systems = vec![
        SystemDefinition::paper_geoi(),
        SystemDefinition::with_pair(
            Box::new(GridCloakingFactory::new()),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )?,
        SystemDefinition::with_pair(
            Box::new(GaussianPerturbationFactory::new()),
            Box::new(PoiRetrieval::default()),
            Box::new(AreaCoverage::default()),
        )?,
    ];

    let config = SweepConfig { points: 9, repetitions: 1, seed: 2016, parallel: true };
    let campaign = CampaignRunner::new(config).run(&systems, std::slice::from_ref(&dataset))?;

    for run in &campaign.runs {
        let sweep = &run.result;
        println!();
        println!("== {} ({} sweep points) ==", sweep.lppm_name, sweep.len());
        for axis in sweep.space.names() {
            let values = sweep.axis_values(axis).expect("axis belongs to the space");
            let (lo, hi) = values
                .iter()
                .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            println!("   parameter {axis} in [{lo}, {hi}]");
        }
        for column in &sweep.columns {
            println!(
                "   {} ({}): {:.3} -> {:.3}",
                column.id,
                column.direction,
                column.means.first().expect("sweep is non-empty"),
                column.means.last().expect("sweep is non-empty")
            );
        }
    }
    Ok(())
}

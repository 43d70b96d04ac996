//! Pinned per-user breakdowns of the sweep's two paper metrics.
//!
//! A sweep sample protects the whole dataset with GEO-I and scores it with
//! area coverage (area ratio and cell F1) and POI retrieval. These digests
//! fix every user's value, bit for bit, so a faster implementation of the
//! protection kernel, the grid or the cell sets cannot change a single
//! measurement unnoticed.

use geopriv_lppm::{Epsilon, GeoIndistinguishability, Lppm};
use geopriv_metrics::{AreaCoverage, MetricValue, PoiRetrieval, PrivacyMetric, UtilityMetric};
use geopriv_mobility::generator::TaxiFleetBuilder;
use geopriv_mobility::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the aggregate and every `(user, value)` of the breakdown.
fn digest(value: &MetricValue) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let words = std::iter::once(value.value().to_bits())
        .chain(value.per_user().iter().flat_map(|(user, v)| [user.value(), v.to_bits()]));
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:#018x}")
}

fn fleet() -> Dataset {
    let mut rng = StdRng::seed_from_u64(1_216);
    TaxiFleetBuilder::new().drivers(8).build(&mut rng).expect("valid fleet")
}

#[test]
fn geoi_sweep_metrics_release_pinned_per_user_breakdowns() {
    let actual = fleet();
    let area_ratio = AreaCoverage::default();
    let cell_f1 = AreaCoverage::cell_overlap();
    let poi = PoiRetrieval::default();
    let prepared = poi.prepare(&actual).expect("POIs extract");
    let mut released = Vec::new();
    // The last two are the ends of the paper sweep; ε = 1e-4 spreads the
    // protected records over the widest grid.
    for (epsilon, seed) in [(0.01, 41u64), (0.03, 42), (0.2, 43), (1e-4, 44), (1.0, 45)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap())
            .protect_dataset(&actual, &mut rng)
            .expect("GEO-I protects");
        let retrieval = poi.evaluate(&actual, &protected).expect("POI retrieval");
        let via_prepared =
            poi.evaluate_prepared(&prepared, &actual, &protected).expect("prepared POI retrieval");
        assert_eq!(retrieval, via_prepared, "prepared and direct POI retrieval diverged");
        for value in [
            area_ratio.evaluate(&actual, &protected).expect("area ratio"),
            cell_f1.evaluate(&actual, &protected).expect("cell F1"),
            retrieval,
        ] {
            assert_eq!(value.per_user().len(), actual.user_count());
            released.push(digest(&value));
        }
    }
    let pinned = [
        "0x6bd3350a513c31fb",
        "0xc9973fb3acc9c352",
        "0xfaa560d771e861c5",
        "0xeac8a7f02fe5b71b",
        "0x0f48500ff47ff08e",
        "0xe00a883c7bcf155f",
        "0xaa4c618ab0505a18",
        "0x1458535b48272188",
        "0xb4371bf789ac93b8",
        "0x48871b295b035dc9",
        "0x208cb5973d5cc3dd",
        "0xfaa560d771e861c5",
        "0x29fa82b93205a41a",
        "0x80c72f5bb7c6b873",
        "0xb4371bf789ac93b8",
    ];
    assert_eq!(released, pinned);
}

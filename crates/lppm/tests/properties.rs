//! Property-based tests of the protection mechanisms.

use geopriv_geo::{distance, GeoPoint, LocalProjection, Meters, Seconds};
use geopriv_lppm::{
    open_stream, CoordinateRounding, Epsilon, GaussianPerturbation, GeoIndistinguishability,
    GridCloaking, Identity, Lppm, ReleaseSampling, SpeedSmoothing, TemporalDownsampling,
};
use geopriv_mobility::generator::TaxiFleetBuilder;
use geopriv_mobility::{Dataset, DatasetBuilder, Record, Trace, UserId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::sync::Arc;

/// A deterministic trace near San Francisco parameterized by length and step size.
fn trace(n: usize, step_m: f64) -> Trace {
    let records: Vec<Record> = (0..n.max(2))
        .map(|i| {
            Record::new(
                Seconds::new(i as f64 * 30.0),
                GeoPoint::clamped(
                    37.75 + (i as f64 * step_m * ((i % 3) as f64 - 1.0)) / 111_000.0,
                    -122.44 + (i as f64 * step_m) / 88_000.0,
                ),
            )
        })
        .collect();
    Trace::new(UserId::new(9), records).expect("ordered records")
}

/// The column path over one trace: `protect_view` with a fresh seeded RNG.
fn columns(lppm: &dyn Lppm, t: &Trace, seed: u64) -> Vec<Record> {
    let mut out = DatasetBuilder::with_capacity(1, t.len());
    let mut rng = StdRng::seed_from_u64(seed);
    lppm.protect_view(t.view(), &mut out, &mut rng).expect("column path protects");
    out.finish().expect("one finished trace").trace_at(0).iter().collect()
}

/// The stream path over one trace: every record pushed through
/// `open_stream` in order.
fn stream(lppm: Arc<dyn Lppm>, t: &Trace, seed: u64) -> Vec<Record> {
    let mut session = open_stream(lppm, t.user(), seed);
    t.iter().map(|r| session.push(r).expect("per-record mechanisms stream")).collect()
}

/// FNV-1a over the bit patterns of every released timestamp and coordinate.
fn digest(records: &[Record]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for r in records {
        for value in [r.timestamp().as_f64(), r.location().latitude(), r.location().longitude()] {
            for byte in value.to_bits().to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    hash
}

/// The five per-record mechanisms pinned to the bits they released before
/// their row, column and stream paths shared one kernel: the three paths
/// are checked against each other below, and these digests stop them from
/// drifting together.
#[test]
fn per_record_mechanisms_release_pinned_bits() {
    let t = trace(120, 45.0);
    let seed = 2024;
    let mechanisms: Vec<Arc<dyn Lppm>> = vec![
        Arc::new(Identity::new()),
        Arc::new(GeoIndistinguishability::new(Epsilon::new(0.01).unwrap())),
        Arc::new(GaussianPerturbation::new(Meters::new(150.0)).unwrap()),
        Arc::new(GridCloaking::new(Meters::new(400.0)).unwrap()),
        Arc::new(CoordinateRounding::new(3).unwrap()),
    ];
    let mut released = Vec::new();
    for mechanism in mechanisms {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = mechanism.protect_trace(&t, &mut rng).unwrap().to_records();
        let cols = columns(mechanism.as_ref(), &t, seed);
        let streamed = stream(Arc::clone(&mechanism), &t, seed);
        assert_eq!(rows, cols, "{}: rows vs columns", mechanism.name());
        assert_eq!(streamed, cols, "{}: stream vs columns", mechanism.name());
        released.push((mechanism.name().to_string(), format!("{:#018x}", digest(&cols))));
    }
    let pinned = [
        ("identity", "0xcde15e45d69f6d28"),
        ("geo-indistinguishability", "0x0f951d00689b9d60"),
        ("gaussian-perturbation", "0xf43285c162695cd1"),
        ("grid-cloaking", "0x838cae7cf86725d9"),
        ("coordinate-rounding", "0x6d75aef858e2ec38"),
    ];
    let pinned: Vec<(String, String)> =
        pinned.iter().map(|(name, bits)| (name.to_string(), bits.to_string())).collect();
    assert_eq!(released, pinned);
}

/// GEO-I pinned at trace lengths that are not multiples of any plausible
/// chunk or lane width (the 120-record trace above is a multiple of both
/// 4 and 8), including a full 24 h taxi trace of 2,881 records, so a
/// remainder chunk cannot drift unnoticed.
#[test]
fn geoi_releases_pinned_bits_at_ragged_trace_lengths() {
    let geoi: Arc<dyn Lppm> = Arc::new(GeoIndistinguishability::new(Epsilon::new(0.01).unwrap()));
    let mut taxi_rng = StdRng::seed_from_u64(77);
    let taxi = TaxiFleetBuilder::new().drivers(1).build(&mut taxi_rng).unwrap();
    let taxi = taxi.trace_at(0).to_trace();
    let mut traces: Vec<Trace> = [1, 3, 7, 9, 121]
        .into_iter()
        .map(|n| Trace::new(UserId::new(9), trace(n, 45.0).to_records()[..n].to_vec()).unwrap())
        .collect();
    traces.push(taxi);
    let mut released = Vec::new();
    for (i, t) in traces.iter().enumerate() {
        let seed = 3_000 + i as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let rows = geoi.protect_trace(t, &mut rng).unwrap().to_records();
        let cols = columns(geoi.as_ref(), t, seed);
        assert_eq!(rows, cols, "{} records: rows vs columns", t.len());
        assert_eq!(stream(Arc::clone(&geoi), t, seed), cols, "{} records: stream", t.len());
        released.push((t.len(), format!("{:#018x}", digest(&cols))));
    }
    let pinned = [
        (1, "0x52cf65b6190106b8"),
        (3, "0x186e67e3ff22af9a"),
        (7, "0xaff0656c36f0a45f"),
        (9, "0x2e0c48b668f5742b"),
        (121, "0xe1cddc43a80b1c5b"),
        (2_881, "0x0b1b12e8bcea8ae7"),
    ];
    let pinned: Vec<(usize, String)> =
        pinned.iter().map(|(len, bits)| (*len, bits.to_string())).collect();
    assert_eq!(released, pinned);
}

/// An `RngCore` that replays a fixed script of 64-bit words.
struct Scripted {
    words: Vec<u64>,
    next: usize,
}

impl RngCore for Scripted {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64 {
        let word = self.words[self.next % self.words.len()];
        self.next += 1;
        word
    }
}

/// The word `gen_range` maps to `unit` (a multiple of 2⁻⁵³ in `[0, 1)`).
fn word(unit: f64) -> u64 {
    ((unit * (1u64 << 53) as f64) as u64) << 11
}

/// GEO-I draws, for each record in record order, `(a, b)` pairs until one
/// falls strictly inside the unit disc off its centre, then `u`. With every
/// first pair accepted a 9-record trace takes 27 words and each record moves
/// by exactly `(a, b)·r/√s`, `r = −ln(s·(1 − u))/ε`. A rejected pair put in
/// front of any one record — outside the disc, on its circle or at its
/// centre — costs exactly two more words and changes no record's release,
/// on the row and the column path alike.
#[test]
fn geoi_rejected_pair_costs_two_words_and_moves_no_release() {
    let t = trace(9, 45.0);
    let projection = LocalProjection::centered_on(t.first().location());
    let epsilon = 0.01;
    let geoi = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap());
    // (a, b, u) per record, in 64ths so every word maps back exactly:
    // |a|, |b| < 1/2, so every pair is accepted.
    let draws: Vec<(f64, f64, f64)> = (0..t.len())
        .map(|i| {
            let i = i as f64;
            ((7.0 * i - 29.0) / 64.0, (28.0 - 6.0 * i) / 64.0, (3.0 + 7.0 * i) / 64.0)
        })
        .collect();
    let script = |reject: Option<(usize, [u64; 2])>| -> Vec<u64> {
        let mut words = Vec::new();
        for (i, &(a, b, u)) in draws.iter().enumerate() {
            if let Some((_, pair)) = reject.filter(|&(at, _)| at == i) {
                words.extend(pair);
            }
            words.extend([word((a + 1.0) / 2.0), word((b + 1.0) / 2.0), word(u)]);
        }
        words
    };
    let release = |words: Vec<u64>| {
        let count = words.len();
        let mut rng = Scripted { words: words.clone(), next: 0 };
        let rows = geoi.protect_trace(&t, &mut rng).unwrap().to_records();
        assert_eq!(rng.next, count, "every scripted word is drawn, no more");
        let mut out = DatasetBuilder::with_capacity(1, t.len());
        let mut rng = Scripted { words, next: 0 };
        geoi.protect_view(t.view(), &mut out, &mut rng).unwrap();
        let cols: Vec<Record> = out.finish().unwrap().trace_at(0).iter().collect();
        assert_eq!(rows, cols, "rows vs columns");
        rows
    };

    let accepted = release(script(None));
    assert_eq!(script(None).len(), 3 * t.len(), "three words per record");
    for ((actual, released), &(a, b, u)) in t.iter().zip(&accepted).zip(&draws) {
        let s = a * a + b * b;
        let scale = -(s * (1.0 - u)).ln() / epsilon / s.sqrt();
        let expected = projection
            .unproject(projection.project(actual.location()).translated(a * scale, b * scale));
        assert_eq!(released.location(), expected, "({a}, {b}, {u})");
        assert_eq!(released.timestamp(), actual.timestamp());
        assert_ne!(released.location(), actual.location());
    }

    // Outside the disc (s = 2), on its circle (s = 1), at its centre (s = 0).
    let rejected = [[word(0.0), word(0.0)], [word(0.0), word(0.5)], [word(0.5), word(0.5)]];
    for at in 0..t.len() {
        for pair in rejected {
            let words = script(Some((at, pair)));
            assert_eq!(words.len(), 3 * t.len() + 2, "two extra words");
            assert_eq!(release(words), accepted, "a rejected pair before record {at}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn all_mechanisms_produce_valid_nonempty_traces(
        n in 2usize..150,
        step in 0.0f64..120.0,
        epsilon in 1e-4f64..1.0,
        sigma in 0.0f64..2_000.0,
        cell in 50.0f64..2_000.0,
        alpha in 10.0f64..1_000.0,
        digits in 0u8..8,
        factor in 1usize..16,
        probability in 0.01f64..1.0,
        seed in 0u64..500,
    ) {
        let t = trace(n, step);
        // (mechanism, whether it releases one record per record it reads)
        let mechanisms: Vec<(Arc<dyn Lppm>, bool)> = vec![
            (Arc::new(Identity::new()), true),
            (Arc::new(GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap())), true),
            (Arc::new(GaussianPerturbation::new(Meters::new(sigma)).unwrap()), true),
            (Arc::new(GridCloaking::new(Meters::new(cell)).unwrap()), true),
            (Arc::new(SpeedSmoothing::new(Meters::new(alpha)).unwrap()), false),
            (Arc::new(CoordinateRounding::new(digits.min(7)).unwrap()), true),
            (Arc::new(TemporalDownsampling::new(factor).unwrap()), false),
            (Arc::new(ReleaseSampling::new(probability).unwrap()), false),
        ];
        for (mechanism, per_record) in &mechanisms {
            let mut rng = StdRng::seed_from_u64(seed);
            let protected = mechanism.protect_trace(&t, &mut rng).unwrap();
            // Rows ≡ dataset, bit for bit.
            let dataset = Dataset::new(vec![t.clone()]).unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let whole = mechanism.protect_dataset(&dataset, &mut rng).unwrap();
            prop_assert_eq!(
                whole.trace_at(0).iter().collect::<Vec<Record>>(),
                protected.to_records(),
                "{}: protect_trace and protect_dataset diverged",
                mechanism.name()
            );
            // Stream ≡ columns, bit for bit, for the per-record mechanisms.
            if *per_record {
                prop_assert_eq!(
                    stream(Arc::clone(mechanism), &t, seed),
                    columns(mechanism.as_ref(), &t, seed),
                    "{}: open_stream and protect_view diverged",
                    mechanism.name()
                );
            }
            prop_assert!(!protected.is_empty(), "{} emptied the trace", mechanism.name());
            prop_assert_eq!(protected.user(), t.user());
            // Timestamps stay within the original observation window and ordered.
            prop_assert!(protected.first().timestamp() >= t.first().timestamp() - Seconds::new(1e-9));
            prop_assert!(protected.last().timestamp() <= t.last().timestamp() + Seconds::new(1e-9));
            for w in protected.to_records().windows(2) {
                prop_assert!(w[0].timestamp() <= w[1].timestamp());
            }
            // Coordinates stay valid.
            for r in &protected {
                prop_assert!((-90.0..=90.0).contains(&r.location().latitude()));
                prop_assert!((-180.0..=180.0).contains(&r.location().longitude()));
            }
        }
    }

    #[test]
    fn geoi_mean_displacement_scales_inversely_with_epsilon(
        epsilon in 0.002f64..0.5,
        seed in 0u64..500,
    ) {
        // Enough records for the empirical mean to concentrate.
        let t = trace(400, 30.0);
        let geoi = GeoIndistinguishability::new(Epsilon::new(epsilon).unwrap());
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = geoi.protect_trace(&t, &mut rng).unwrap();
        let mean: f64 = t
            .iter()
            .zip(protected.iter())
            .map(|(a, b)| distance::haversine(a.location(), b.location()).as_f64())
            .sum::<f64>()
            / t.len() as f64;
        let expected = 2.0 / epsilon;
        prop_assert!(
            (mean - expected).abs() / expected < 0.35,
            "epsilon {}: mean displacement {} expected {}",
            epsilon,
            mean,
            expected
        );
    }

    #[test]
    fn deterministic_mechanisms_ignore_the_rng(
        n in 2usize..100,
        step in 0.0f64..100.0,
        cell in 50.0f64..1_500.0,
        digits in 0u8..8,
        seed_a in 0u64..100,
        seed_b in 100u64..200,
    ) {
        let t = trace(n, step);
        let deterministic: Vec<Box<dyn Lppm>> = vec![
            Box::new(GridCloaking::new(Meters::new(cell)).unwrap()),
            Box::new(CoordinateRounding::new(digits.min(7)).unwrap()),
            Box::new(SpeedSmoothing::new(Meters::new(cell)).unwrap()),
            Box::new(TemporalDownsampling::new(3).unwrap()),
            Box::new(Identity::new()),
        ];
        for mechanism in &deterministic {
            let mut rng_a = StdRng::seed_from_u64(seed_a);
            let mut rng_b = StdRng::seed_from_u64(seed_b);
            prop_assert_eq!(
                mechanism.protect_trace(&t, &mut rng_a).unwrap(),
                mechanism.protect_trace(&t, &mut rng_b).unwrap(),
                "{} is not deterministic",
                mechanism.name()
            );
        }
    }

    #[test]
    fn downsampling_keeps_ceil_n_over_factor_records(n in 2usize..200, factor in 1usize..20) {
        let t = trace(n, 25.0);
        let mut rng = StdRng::seed_from_u64(1);
        let protected = TemporalDownsampling::new(factor).unwrap().protect_trace(&t, &mut rng).unwrap();
        let expected = t.len().div_ceil(factor);
        prop_assert_eq!(protected.len(), expected);
    }

    #[test]
    fn release_sampling_is_a_subset_preserving_order(n in 2usize..200, probability in 0.05f64..1.0, seed in 0u64..300) {
        let t = trace(n, 40.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let protected = ReleaseSampling::new(probability).unwrap().protect_trace(&t, &mut rng).unwrap();
        prop_assert!(protected.len() <= t.len());
        // Every released record exists verbatim in the original trace.
        let originals: Vec<(f64, f64, f64)> = t
            .iter()
            .map(|r| (r.timestamp().as_f64(), r.location().latitude(), r.location().longitude()))
            .collect();
        for r in &protected {
            let key = (r.timestamp().as_f64(), r.location().latitude(), r.location().longitude());
            prop_assert!(originals.contains(&key));
        }
    }

    #[test]
    fn cloaking_and_rounding_displacements_are_bounded(
        n in 2usize..100,
        step in 0.0f64..100.0,
        cell in 50.0f64..2_000.0,
        digits in 2u8..7,
    ) {
        let t = trace(n, step);
        let mut rng = StdRng::seed_from_u64(5);

        let cloaked = GridCloaking::new(Meters::new(cell)).unwrap().protect_trace(&t, &mut rng).unwrap();
        let cloak_bound = cell / 2.0 * 2f64.sqrt() * 1.02;
        for (a, b) in t.iter().zip(cloaked.iter()) {
            prop_assert!(distance::haversine(a.location(), b.location()).as_f64() <= cloak_bound);
        }

        let rounding = CoordinateRounding::new(digits).unwrap();
        let rounded = rounding.protect_trace(&t, &mut rng).unwrap();
        let round_bound = rounding.approximate_granularity_m() * 0.75;
        for (a, b) in t.iter().zip(rounded.iter()) {
            prop_assert!(distance::haversine(a.location(), b.location()).as_f64() <= round_bound);
        }
    }
}

/// Property tests of the configuration-space enumeration contract
/// (`ParameterDescriptor::sweep` and `ConfigSpace::grid` /
/// `ConfigSpace::one_at_a_time`): monotone per axis, exact endpoints, every
/// generated point valid, deterministic ordering.
mod space_enumeration {
    use geopriv_lppm::{ConfigSpace, ParameterDescriptor, ParameterScale};
    use proptest::prelude::*;

    /// A strategy over valid descriptors: name, range and scale (strictly
    /// positive ranges so both scales are valid).
    fn descriptor(name: &'static str) -> impl Strategy<Value = ParameterDescriptor> {
        // The vendored proptest shim has no prop_oneof!; draw the scale from
        // an integer instead.
        (1e-6f64..1e3, 1.0001f64..1e4, 0u8..2).prop_map(move |(min, ratio, scale_pick)| {
            let scale =
                if scale_pick == 0 { ParameterScale::Linear } else { ParameterScale::Logarithmic };
            ParameterDescriptor::new(name, min, min * ratio, scale)
                .expect("strictly positive non-empty range")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn sweeps_are_monotone_with_exact_endpoints_inside_the_range(
            axis in descriptor("p"),
            count in 0usize..60,
        ) {
            let sweep = axis.sweep(count);
            // The count is clamped to at least 2.
            prop_assert_eq!(sweep.len(), count.max(2));
            // Both endpoints exactly — no ULP drift tolerated.
            prop_assert_eq!(sweep[0], axis.min());
            prop_assert_eq!(*sweep.last().unwrap(), axis.max());
            // Strictly increasing, and every value in range.
            prop_assert!(sweep.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(sweep.iter().all(|&v| axis.contains(v)));
            // Deterministic: re-enumeration is identical.
            prop_assert_eq!(sweep, axis.sweep(count));
        }

        #[test]
        fn grids_enumerate_the_full_factorial_in_row_major_order(
            a in descriptor("a"),
            b in descriptor("b"),
            count_a in 2usize..7,
            count_b in 2usize..7,
        ) {
            let space = ConfigSpace::new(vec![a.clone(), b.clone()]).unwrap();
            let grid = space.grid(&[count_a, count_b]).unwrap();
            prop_assert_eq!(grid.len(), count_a * count_b);

            // Every generated point validates against the space.
            prop_assert!(grid.iter().all(|p| space.contains(p)));

            // Row-major: the last axis varies fastest, each axis's own
            // column is monotone within a row/block.
            let sweep_a = a.sweep(count_a);
            let sweep_b = b.sweep(count_b);
            for (index, point) in grid.iter().enumerate() {
                prop_assert_eq!(point.get("a").unwrap(), sweep_a[index / count_b]);
                prop_assert_eq!(point.get("b").unwrap(), sweep_b[index % count_b]);
            }
            // Corners carry the exact endpoints.
            prop_assert_eq!(grid[0].coords(), vec![a.min(), b.min()]);
            prop_assert_eq!(grid[grid.len() - 1].coords(), vec![a.max(), b.max()]);

            // Deterministic ordering: re-enumeration is identical.
            prop_assert_eq!(space.grid(&[count_a, count_b]).unwrap(), grid);
        }

        #[test]
        fn one_at_a_time_legs_hold_other_axes_at_defaults(
            a in descriptor("a"),
            b in descriptor("b"),
            count_a in 2usize..7,
            count_b in 2usize..7,
        ) {
            let space = ConfigSpace::new(vec![a.clone(), b.clone()]).unwrap();
            let star = space.one_at_a_time(&[count_a, count_b]).unwrap();
            prop_assert_eq!(star.len(), count_a + count_b);
            prop_assert!(star.iter().all(|p| space.contains(p)));

            let sweep_a = a.sweep(count_a);
            let sweep_b = b.sweep(count_b);
            for (i, point) in star[..count_a].iter().enumerate() {
                prop_assert_eq!(point.get("a").unwrap(), sweep_a[i]);
                prop_assert_eq!(point.get("b").unwrap(), b.default_value());
            }
            for (i, point) in star[count_a..].iter().enumerate() {
                prop_assert_eq!(point.get("a").unwrap(), a.default_value());
                prop_assert_eq!(point.get("b").unwrap(), sweep_b[i]);
            }
            prop_assert_eq!(space.one_at_a_time(&[count_a, count_b]).unwrap(), star);
        }

        #[test]
        fn one_axis_grids_equal_the_descriptor_sweep(
            axis in descriptor("p"),
            count in 2usize..40,
        ) {
            let space = ConfigSpace::single(axis.clone());
            let grid = space.grid(&[count]).unwrap();
            let star = space.one_at_a_time(&[count]).unwrap();
            let sweep = axis.sweep(count);
            prop_assert_eq!(grid.len(), sweep.len());
            for (point, value) in grid.iter().zip(&sweep) {
                prop_assert_eq!(point.single().unwrap(), *value);
            }
            // Both modes coincide on one axis — the single-scalar contract.
            prop_assert_eq!(star, grid);
        }
    }
}

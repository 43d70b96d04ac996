//! Property-based tests for the geospatial substrate.

use geopriv_geo::{
    distance, BoundingBox, CellId, CellSet, GeoPoint, Grid, LocalProjection, Meters, Point,
    QuadTree,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// City-scale latitudes/longitudes around San Francisco, the paper's study area.
fn sf_coords() -> impl Strategy<Value = (f64, f64)> {
    (37.60f64..37.90f64, -122.60f64..-122.30f64)
}

fn planar_points(max_len: usize) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::vec((-10_000.0f64..10_000.0, -10_000.0f64..10_000.0), 0..max_len)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point::new(x, y)).collect())
}

/// Cells from three bands of each axis — near 0, around 2³¹ and near
/// `u32::MAX` — so the packed keys exercise both halves and every bit,
/// with few enough values per band that sets overlap.
fn cells(max_len: usize) -> impl Strategy<Value = Vec<CellId>> {
    let band = |offset: u32, band: u32| match band {
        0 => offset,
        1 => (1 << 31) + offset,
        _ => u32::MAX - offset,
    };
    prop::collection::vec((0u32..5, 0u32..3, 0u32..5, 0u32..3), 0..max_len).prop_map(move |v| {
        v.into_iter()
            .map(|(col, col_band, row, row_band)| CellId {
                col: band(col, col_band),
                row: band(row, row_band),
            })
            .collect()
    })
}

/// The `BTreeSet` similarity arithmetic the sorted `CellSet` must match.
fn reference_f1(truth: &BTreeSet<CellId>, other: &BTreeSet<CellId>) -> f64 {
    let shared = truth.intersection(other).count() as f64;
    let precision = match (other.is_empty(), truth.is_empty()) {
        (true, true) => 1.0,
        (true, false) => 0.0,
        _ => shared / other.len() as f64,
    };
    let recall = if truth.is_empty() { 1.0 } else { shared / truth.len() as f64 };
    if precision + recall == 0.0 {
        0.0
    } else {
        2.0 * precision * recall / (precision + recall)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_cell_sets_behave_like_btree_sets(
        a in cells(40),
        b in cells(40),
        probes in cells(12),
    ) {
        let set_a: CellSet = a.iter().copied().collect();
        let set_b = CellSet::from_cells(b.iter().copied());
        let ref_a: BTreeSet<CellId> = a.iter().copied().collect();
        let ref_b: BTreeSet<CellId> = b.iter().copied().collect();

        // Length, membership and lexicographic iteration order.
        prop_assert_eq!(set_a.len(), ref_a.len());
        prop_assert_eq!(set_a.is_empty(), ref_a.is_empty());
        prop_assert_eq!(set_a.iter().collect::<Vec<_>>(), ref_a.iter().copied().collect::<Vec<_>>());
        for &cell in probes.iter().chain(&a).chain(&b) {
            prop_assert_eq!(set_a.contains(cell), ref_a.contains(&cell));
        }

        // Intersection, union and the similarity measures, bit for bit.
        let shared = ref_a.intersection(&ref_b).count();
        let union = ref_a.union(&ref_b).count();
        prop_assert_eq!(set_a.intersection_size(&set_b), shared);
        prop_assert_eq!(set_b.intersection_size(&set_a), shared);
        prop_assert_eq!(set_a.union_size(&set_b), union);
        let jaccard = if union == 0 { 1.0 } else { shared as f64 / union as f64 };
        prop_assert_eq!(set_a.jaccard(&set_b).to_bits(), jaccard.to_bits());
        prop_assert_eq!(set_a.f1_of(&set_b).to_bits(), reference_f1(&ref_a, &ref_b).to_bits());
        prop_assert_eq!(set_b.f1_of(&set_a).to_bits(), reference_f1(&ref_b, &ref_a).to_bits());

        // Insertion reports novelty exactly like the reference.
        let mut inserted = set_a.clone();
        let mut ref_inserted = ref_a.clone();
        for &cell in &probes {
            prop_assert_eq!(inserted.insert(cell), ref_inserted.insert(cell));
        }
        prop_assert_eq!(inserted.iter().collect::<Vec<_>>(), ref_inserted.into_iter().collect::<Vec<_>>());

        // Extending is a union that keeps the order.
        let mut extended = set_a.clone();
        extended.extend(b.iter().copied());
        let ref_union: Vec<CellId> = ref_a.union(&ref_b).copied().collect();
        prop_assert_eq!(extended.iter().collect::<Vec<_>>(), ref_union);
        prop_assert_eq!(extended.len(), union);
    }
}

proptest! {
    #[test]
    fn geopoint_accepts_all_valid_coordinates(lat in -90.0f64..=90.0, lon in -180.0f64..=180.0) {
        let p = GeoPoint::new(lat, lon).unwrap();
        prop_assert_eq!(p.latitude(), lat);
        prop_assert_eq!(p.longitude(), lon);
    }

    #[test]
    fn clamped_always_yields_valid_coordinates(lat in -200.0f64..200.0, lon in -500.0f64..500.0) {
        let p = GeoPoint::clamped(lat, lon);
        prop_assert!((-90.0..=90.0).contains(&p.latitude()));
        prop_assert!((-180.0..=180.0).contains(&p.longitude()));
    }

    #[test]
    fn haversine_is_symmetric_and_nonnegative((lat1, lon1) in sf_coords(), (lat2, lon2) in sf_coords()) {
        let a = GeoPoint::new(lat1, lon1).unwrap();
        let b = GeoPoint::new(lat2, lon2).unwrap();
        let ab = distance::haversine(a, b).as_f64();
        let ba = distance::haversine(b, a).as_f64();
        prop_assert!(ab >= 0.0);
        prop_assert!((ab - ba).abs() < 1e-6);
    }

    #[test]
    fn haversine_triangle_inequality((lat1, lon1) in sf_coords(), (lat2, lon2) in sf_coords(), (lat3, lon3) in sf_coords()) {
        let a = GeoPoint::new(lat1, lon1).unwrap();
        let b = GeoPoint::new(lat2, lon2).unwrap();
        let c = GeoPoint::new(lat3, lon3).unwrap();
        let ab = distance::haversine(a, b).as_f64();
        let bc = distance::haversine(b, c).as_f64();
        let ac = distance::haversine(a, c).as_f64();
        prop_assert!(ac <= ab + bc + 1e-6);
    }

    #[test]
    fn projection_roundtrip_is_lossless((clat, clon) in sf_coords(), (lat, lon) in sf_coords()) {
        let proj = LocalProjection::centered_on(GeoPoint::new(clat, clon).unwrap());
        let original = GeoPoint::new(lat, lon).unwrap();
        let back = proj.unproject(proj.project(original));
        prop_assert!((back.latitude() - lat).abs() < 1e-9);
        prop_assert!((back.longitude() - lon).abs() < 1e-9);
    }

    #[test]
    fn projected_distance_matches_haversine((lat1, lon1) in sf_coords(), (lat2, lon2) in sf_coords()) {
        let a = GeoPoint::new(lat1, lon1).unwrap();
        let b = GeoPoint::new(lat2, lon2).unwrap();
        let proj = LocalProjection::centered_on(a);
        let planar = proj.project(a).distance_to(proj.project(b)).as_f64();
        let spherical = distance::haversine(a, b).as_f64();
        // Within 1% (plus 1 m slack for tiny distances) at city scale.
        prop_assert!((planar - spherical).abs() <= 0.01 * spherical + 1.0);
    }

    #[test]
    fn every_point_maps_to_a_valid_grid_cell((lat, lon) in sf_coords(), cell_m in 50.0f64..1000.0) {
        let area = BoundingBox::new(37.60, -122.60, 37.90, -122.30).unwrap();
        let grid = Grid::new(area, Meters::new(cell_m)).unwrap();
        let cell = grid.cell_of(GeoPoint::new(lat, lon).unwrap());
        prop_assert!(cell.col < grid.columns());
        prop_assert!(cell.row < grid.rows());
        // Cell centers always map back to their own cell.
        prop_assert_eq!(grid.cell_of(grid.cell_center(cell)), cell);
    }

    #[test]
    fn counted_cells_equal_the_coverage_size(
        a in planar_points(60),
        b in planar_points(60),
        long in planar_points(400),
        steps in prop::collection::vec((-30.0f64..30.0, -30.0f64..30.0), 0..300),
        cell_scale in 0.0f64..1.0,
    ) {
        // Log-uniform cell sizes from 5 m (a grid thousands of cells wide)
        // to 1 km.
        let cell_m = 5.0 * 200f64.powf(cell_scale);
        let area = BoundingBox::new(37.60, -122.60, 37.90, -122.30).unwrap();
        let grid = Grid::new(area, Meters::new(cell_m)).unwrap();
        let proj = LocalProjection::centered_on(area.center());
        // A street walk: short steps, so consecutive records often share a
        // cell and neighbouring cells recur.
        let walk: Vec<Point> = steps
            .iter()
            .scan(Point::new(0.0, 0.0), |at, &(dx, dy)| {
                *at = Point::new(at.x() + dx, at.y() + dy);
                Some(*at)
            })
            .collect();
        // One key buffer serves every trace, as in the area-ratio metric:
        // short, long, short, walk, short, so the buffer both grows and is
        // reused for fewer cells than it last held.
        let mut keys = Vec::new();
        for points in [&a, &long, &b, &walk, &a] {
            let geos: Vec<GeoPoint> = points.iter().map(|p| proj.unproject(*p)).collect();
            let counted = grid.count_cells(geos.iter().copied(), &mut keys);
            prop_assert_eq!(counted, grid.coverage(geos.iter().copied()).len());
            // With no reported length the count starts from its smallest
            // table and grows.
            let unsized_points = geos.iter().copied().filter(|_| true);
            prop_assert_eq!(grid.count_cells(unsized_points, &mut keys), counted);
        }
    }

    #[test]
    fn jaccard_and_f1_are_bounded(points in planar_points(60), radius in 1.0f64..3000.0) {
        let area = BoundingBox::new(37.60, -122.60, 37.90, -122.30).unwrap();
        let grid = Grid::new(area, Meters::new(200.0)).unwrap();
        let proj = LocalProjection::centered_on(area.center());
        let geos: Vec<GeoPoint> = points.iter().map(|p| proj.unproject(*p)).collect();
        let shifted: Vec<GeoPoint> = points
            .iter()
            .map(|p| proj.unproject(Point::new(p.x() + radius, p.y())))
            .collect();
        let a = grid.coverage(geos.iter().copied());
        let b = grid.coverage(shifted.iter().copied());
        let j = a.jaccard(&b);
        let f1 = a.f1_of(&b);
        prop_assert!((0.0..=1.0).contains(&j));
        prop_assert!((0.0..=1.0).contains(&f1));
        // F1 is never smaller than Jaccard.
        prop_assert!(f1 + 1e-12 >= j);
    }

    #[test]
    fn quadtree_range_query_equals_brute_force(points in planar_points(80), radius in 0.0f64..5000.0,
                                               qx in -10_000.0f64..10_000.0, qy in -10_000.0f64..10_000.0) {
        let tree = QuadTree::build(&points);
        let center = Point::new(qx, qy);
        let mut expected: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.distance_to(center).as_f64() <= radius)
            .map(|(i, _)| i)
            .collect();
        let mut got = tree.within_radius(center, Meters::new(radius));
        expected.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn quadtree_nearest_equals_brute_force(points in planar_points(80),
                                           qx in -10_000.0f64..10_000.0, qy in -10_000.0f64..10_000.0) {
        let tree = QuadTree::build(&points);
        let target = Point::new(qx, qy);
        match tree.nearest(target) {
            None => prop_assert!(points.is_empty()),
            Some((_, d)) => {
                let brute = points.iter().map(|p| p.distance_to(target).as_f64()).fold(f64::INFINITY, f64::min);
                prop_assert!((d.as_f64() - brute).abs() < 1e-9);
            }
        }
    }
}

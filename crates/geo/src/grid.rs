//! Uniform "city block" grids and cell coverage sets.
//!
//! The paper's utility metric compares the *area coverage* of a user's actual
//! and protected traces at the granularity of a city block. [`Grid`]
//! discretizes a geographic bounding box into square cells of a configurable
//! size (200 m by default, a typical San Francisco block), and [`CellSet`]
//! represents the set of cells touched by a trace together with the usual
//! set-similarity measures (Jaccard index, F1 score).
//!
//! Every sweep sample maps every actual and protected record to its cell,
//! so both halves are built for that loop:
//!
//! * [`Grid::cell_of`] clamps the cell coordinate to `[0, n − 1]` and
//!   truncates it with `as u32`, with no `floor`. Truncation equals `floor`
//!   on the non-negative values that survive the clamp, everything negative
//!   clamps to 0 either way, and NaN and ±∞ land on the same border cells
//!   as before — so the cell of every input is unchanged.
//! * A [`CellSet`] is a sorted, deduplicated vector of cells, built by one
//!   sort on packed `u64` keys (column in the high half, so key order is
//!   the lexicographic `(col, row)` order the set iterates in).
//! * [`Grid::count_cells`] counts the distinct cells of a trace in one
//!   hashed pass, with no sort: the caller-owned key buffer becomes an
//!   open-addressing table (Fibonacci hashing, linear probing, at most half
//!   full), so the area-ratio metric allocates nothing per trace. Its
//!   vacant slots hold `u64::MAX`, which no packed key equals: a grid has at
//!   most `u32::MAX` cells, so no column index reaches `u32::MAX`. The
//!   count is the number of distinct keys whatever order they are met in,
//!   so it equals the length of the trace's [`CellSet`].

use crate::bbox::BoundingBox;
use crate::error::GeoError;
use crate::point::GeoPoint;
use crate::projection::LocalProjection;
use crate::units::Meters;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a grid cell: `(column, row)` indices from the south-west corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId {
    /// Column index (west → east).
    pub col: u32,
    /// Row index (south → north).
    pub row: u32,
}

impl CellId {
    /// The cell packed into one `u64`: the column in the high half, the row
    /// in the low half. Key order is the derived `(col, row)` order.
    #[inline]
    fn key(self) -> u64 {
        (u64::from(self.col) << 32) | u64::from(self.row)
    }
}

impl fmt::Display for CellId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.col, self.row)
    }
}

/// A uniform square-cell grid over a geographic bounding box.
///
/// Points outside the bounding box are clamped to the border cells, so every
/// valid [`GeoPoint`] maps to a cell: a heavily-perturbed location must still
/// contribute to coverage comparisons rather than be silently dropped.
///
/// # Examples
///
/// ```
/// use geopriv_geo::{BoundingBox, GeoPoint, Grid, Meters};
///
/// # fn main() -> Result<(), geopriv_geo::GeoError> {
/// let area = BoundingBox::new(37.70, -122.52, 37.83, -122.35)?;
/// let grid = Grid::new(area, Meters::new(200.0))?;
///
/// let cell = grid.cell_of(GeoPoint::new(37.7749, -122.4194)?);
/// assert!(cell.col < grid.columns() && cell.row < grid.rows());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Grid {
    bounds: BoundingBox,
    cell_size: Meters,
    projection: LocalProjection,
    columns: u32,
    rows: u32,
    width_m: f64,
    height_m: f64,
}

impl Grid {
    /// Creates a grid over `bounds` with square cells of side `cell_size`.
    ///
    /// # Errors
    ///
    /// Returns [`GeoError::InvalidLength`] for a non-positive cell size and
    /// [`GeoError::DegenerateGrid`] if the grid would exceed 2³² cells or
    /// contain none.
    pub fn new(bounds: BoundingBox, cell_size: Meters) -> Result<Self, GeoError> {
        let cell_size = cell_size.expect_positive("cell size")?;
        let projection = LocalProjection::centered_on(bounds.south_west());
        let ne = projection.project(bounds.north_east());
        let width_m = ne.x();
        let height_m = ne.y();
        if width_m <= 0.0 || height_m <= 0.0 {
            return Err(GeoError::DegenerateGrid);
        }
        let columns = (width_m / cell_size.as_f64()).ceil() as u64;
        let rows = (height_m / cell_size.as_f64()).ceil() as u64;
        if columns == 0 || rows == 0 || columns.saturating_mul(rows) > u64::from(u32::MAX) {
            return Err(GeoError::DegenerateGrid);
        }
        Ok(Self {
            bounds,
            cell_size,
            projection,
            columns: columns as u32,
            rows: rows as u32,
            width_m,
            height_m,
        })
    }

    /// The bounding box covered by the grid.
    pub fn bounds(&self) -> BoundingBox {
        self.bounds
    }

    /// The side length of a cell.
    pub fn cell_size(&self) -> Meters {
        self.cell_size
    }

    /// Number of columns (east-west cells).
    pub fn columns(&self) -> u32 {
        self.columns
    }

    /// Number of rows (north-south cells).
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> u64 {
        u64::from(self.columns) * u64::from(self.rows)
    }

    /// Returns the cell containing `point`.
    ///
    /// Points outside the bounding box are clamped to the nearest border cell.
    /// The clamp comes before the integer cast and no `floor` is needed: a
    /// clamped coordinate is non-negative, where `as u32` truncates exactly
    /// like `floor`; a NaN coordinate casts to 0 (see the module docs).
    #[inline]
    pub fn cell_of(&self, point: GeoPoint) -> CellId {
        let p = self.projection.project(point);
        CellId {
            col: cell_index(p.x() / self.cell_size.as_f64(), self.columns),
            row: cell_index(p.y() / self.cell_size.as_f64(), self.rows),
        }
    }

    /// Returns the geographic center of a cell.
    ///
    /// Cells outside the grid are clamped to the nearest valid cell.
    pub fn cell_center(&self, cell: CellId) -> GeoPoint {
        let col = cell.col.min(self.columns - 1);
        let row = cell.row.min(self.rows - 1);
        let x = (f64::from(col) + 0.5) * self.cell_size.as_f64();
        let y = (f64::from(row) + 0.5) * self.cell_size.as_f64();
        self.projection
            .unproject(crate::point::Point::new(x.min(self.width_m), y.min(self.height_m)))
    }

    /// Builds the [`CellSet`] of all cells touched by the given points.
    pub fn coverage<I>(&self, points: I) -> CellSet
    where
        I: IntoIterator<Item = GeoPoint>,
    {
        CellSet::from_cells(points.into_iter().map(|p| self.cell_of(p)))
    }

    /// The number of distinct cells touched by the given points — the
    /// length of their [`Grid::coverage`] — using `keys` as scratch space.
    ///
    /// The count is one hashed pass: `keys` becomes an open-addressing
    /// table of packed cell keys, filled with the sentinel `u64::MAX` at the
    /// start of every call, and each first insertion counts. No cell key
    /// equals the sentinel: [`Grid::new`] caps a grid at `u32::MAX` cells,
    /// so no column index reaches `u32::MAX`. Reusing one buffer across
    /// many traces avoids an allocation per trace; its contents on return
    /// are unspecified.
    #[inline]
    pub fn count_cells<I>(&self, points: I, keys: &mut Vec<u64>) -> usize
    where
        I: IntoIterator<Item = GeoPoint>,
    {
        let points = points.into_iter();
        let mut table = KeyTable::new(keys, points.size_hint().0);
        let mut last = EMPTY_SLOT;
        for point in points {
            // Consecutive records often share a cell (a dwell, a slow
            // street): a repeat of the last key is already in the table.
            let key = self.cell_of(point).key();
            if key != last {
                table.insert(key);
                last = key;
            }
        }
        table.len
    }

    /// Builds a histogram of visits per cell for the given points.
    pub fn histogram<I>(&self, points: I) -> BTreeMap<CellId, usize>
    where
        I: IntoIterator<Item = GeoPoint>,
    {
        let mut hist = BTreeMap::new();
        for p in points {
            *hist.entry(self.cell_of(p)).or_insert(0) += 1;
        }
        hist
    }
}

/// The index of the cell holding a coordinate measured in cells from the
/// grid's origin, clamped to the `cells` cells of its axis: `floor` without
/// calling it (see the module docs).
#[inline]
fn cell_index(coordinate: f64, cells: u32) -> u32 {
    coordinate.clamp(0.0, f64::from(cells - 1)) as u32
}

/// The vacant slot of a [`KeyTable`]; no packed cell key equals it (see
/// [`Grid::count_cells`]).
const EMPTY_SLOT: u64 = u64::MAX;

/// Largest number of points whose reported count sizes a fresh table: an
/// iterator's length is a hint, and growth covers any that it understates.
const MAX_HINTED_POINTS: usize = 1 << 15;

/// A set of packed cell keys in a caller-owned buffer: open addressing with
/// a Fibonacci-multiplicative hash and linear probing, kept at most half
/// full so every probe meets a vacant slot. The hash is unkeyed: keys that
/// collide can slow a count, never change it.
struct KeyTable<'a> {
    /// A power-of-two number of slots, each a key or [`EMPTY_SLOT`].
    slots: &'a mut Vec<u64>,
    /// `64 − log₂(slots)`: the hash keeps the top bits of the product.
    shift: u32,
    /// Number of keys held.
    len: usize,
}

impl<'a> KeyTable<'a> {
    /// An empty table in `slots` with room for about `expected` keys.
    #[inline]
    fn new(slots: &'a mut Vec<u64>, expected: usize) -> Self {
        let size = (2 * expected.min(MAX_HINTED_POINTS)).next_power_of_two().max(16);
        slots.clear();
        slots.resize(size, EMPTY_SLOT);
        Self { slots, shift: 64 - size.trailing_zeros(), len: 0 }
    }

    /// Adds `key` if it is absent.
    #[inline]
    fn insert(&mut self, key: u64) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
        }
        if self.place(key) {
            self.len += 1;
        }
    }

    /// Doubles the slots and re-places every key.
    #[cold]
    fn grow(&mut self) {
        let old = std::mem::take(self.slots);
        self.slots.resize(2 * old.len(), EMPTY_SLOT);
        self.shift -= 1;
        for key in old.into_iter().filter(|&key| key != EMPTY_SLOT) {
            self.place(key);
        }
    }

    /// Puts `key` in the first vacant slot of its probe sequence unless it
    /// meets `key` first; returns whether it was placed. The probe visits
    /// each slot at most once, so it ends even on a full table (which
    /// [`KeyTable::insert`] never lets happen).
    #[inline]
    fn place(&mut self, key: u64) -> bool {
        let mask = self.slots.len() - 1;
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        for _ in 0..self.slots.len() {
            match self.slots.get_mut(slot) {
                Some(entry) if *entry == key => return false,
                Some(entry) if *entry == EMPTY_SLOT => {
                    *entry = key;
                    return true;
                }
                _ => slot = (slot + 1) & mask,
            }
        }
        false
    }
}

/// A set of grid cells, typically the coverage of a mobility trace.
///
/// Provides the set-similarity measures used by the area-coverage utility
/// metric. The cells are kept in one sorted, deduplicated vector, so
/// building a set is a single sort and comparing two is a linear merge.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CellSet {
    /// Strictly increasing in `(col, row)` order.
    cells: Vec<CellId>,
}

impl CellSet {
    /// Creates an empty cell set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a set from an iterator of cells.
    pub fn from_cells<I: IntoIterator<Item = CellId>>(cells: I) -> Self {
        let mut set = Self::new();
        set.extend(cells);
        set
    }

    /// Number of distinct cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Returns `true` if the set contains no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Returns `true` if the set contains `cell`.
    pub fn contains(&self, cell: CellId) -> bool {
        self.cells.binary_search_by_key(&cell.key(), |c| c.key()).is_ok()
    }

    /// Inserts a cell, returning `true` if it was not already present.
    pub fn insert(&mut self, cell: CellId) -> bool {
        match self.cells.binary_search_by_key(&cell.key(), |c| c.key()) {
            Ok(_) => false,
            Err(position) => {
                self.cells.insert(position, cell);
                true
            }
        }
    }

    /// Iterates over the cells in lexicographic order.
    pub fn iter(&self) -> impl Iterator<Item = CellId> + '_ {
        self.cells.iter().copied()
    }

    /// Number of cells present in both sets.
    pub fn intersection_size(&self, other: &CellSet) -> usize {
        let mut others = other.cells.iter().peekable();
        let mut shared = 0;
        for cell in &self.cells {
            while others.next_if(|o| o.key() < cell.key()).is_some() {}
            if others.next_if(|o| *o == cell).is_some() {
                shared += 1;
            }
        }
        shared
    }

    /// Number of cells present in either set.
    pub fn union_size(&self, other: &CellSet) -> usize {
        self.len() + other.len() - self.intersection_size(other)
    }

    /// Jaccard similarity `|A ∩ B| / |A ∪ B|` in `[0, 1]`.
    ///
    /// Two empty sets are considered identical (similarity 1).
    pub fn jaccard(&self, other: &CellSet) -> f64 {
        let union = self.union_size(other);
        if union == 0 {
            return 1.0;
        }
        self.intersection_size(other) as f64 / union as f64
    }

    /// Precision of `other` against `self` taken as ground truth:
    /// the fraction of `other`'s cells that are also in `self`.
    pub fn precision_of(&self, other: &CellSet) -> f64 {
        if other.is_empty() {
            return if self.is_empty() { 1.0 } else { 0.0 };
        }
        self.intersection_size(other) as f64 / other.len() as f64
    }

    /// Recall of `other` against `self` taken as ground truth:
    /// the fraction of `self`'s cells that are covered by `other`.
    pub fn recall_of(&self, other: &CellSet) -> f64 {
        if self.is_empty() {
            return 1.0;
        }
        self.intersection_size(other) as f64 / self.len() as f64
    }

    /// F1 score (harmonic mean of precision and recall) of `other` against
    /// `self` taken as ground truth.
    ///
    /// This is the default area-coverage similarity of the utility metric.
    pub fn f1_of(&self, other: &CellSet) -> f64 {
        let p = self.precision_of(other);
        let r = self.recall_of(other);
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl FromIterator<CellId> for CellSet {
    fn from_iter<I: IntoIterator<Item = CellId>>(iter: I) -> Self {
        Self::from_cells(iter)
    }
}

impl Extend<CellId> for CellSet {
    /// Appends the cells, then restores the order with one sort on the packed
    /// keys and drops the duplicates.
    fn extend<I: IntoIterator<Item = CellId>>(&mut self, iter: I) {
        self.cells.extend(iter);
        self.cells.sort_unstable_by_key(|c| c.key());
        self.cells.dedup();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf_grid(cell_m: f64) -> Grid {
        let area = BoundingBox::new(37.70, -122.52, 37.83, -122.35).unwrap();
        Grid::new(area, Meters::new(cell_m)).unwrap()
    }

    fn cell(col: u32, row: u32) -> CellId {
        CellId { col, row }
    }

    #[test]
    fn grid_dimensions_match_cell_size() {
        let g = sf_grid(200.0);
        // SF box is ~15 km x ~14.5 km -> about 75 x 72 cells.
        assert!((60..90).contains(&g.columns()), "cols={}", g.columns());
        assert!((60..90).contains(&g.rows()), "rows={}", g.rows());
        assert_eq!(g.cell_count(), u64::from(g.columns()) * u64::from(g.rows()));

        let fine = sf_grid(100.0);
        assert!(fine.columns() > g.columns());
        assert!(fine.rows() > g.rows());
    }

    #[test]
    fn invalid_cell_sizes_are_rejected() {
        let area = BoundingBox::new(37.70, -122.52, 37.83, -122.35).unwrap();
        assert!(Grid::new(area, Meters::new(0.0)).is_err());
        assert!(Grid::new(area, Meters::new(-5.0)).is_err());
        assert!(Grid::new(area, Meters::new(f64::NAN)).is_err());
        // A cell size of 0.01 m over a planet-scale box would overflow u32.
        let planet = BoundingBox::new(-80.0, -179.0, 80.0, 179.0).unwrap();
        assert!(Grid::new(planet, Meters::new(0.01)).is_err());
    }

    #[test]
    fn corner_points_map_to_corner_cells() {
        let g = sf_grid(200.0);
        let sw = g.cell_of(g.bounds().south_west());
        assert_eq!(sw, cell(0, 0));
        let ne = g.cell_of(g.bounds().north_east());
        assert_eq!(ne, cell(g.columns() - 1, g.rows() - 1));
    }

    #[test]
    fn out_of_bounds_points_clamp_to_border() {
        let g = sf_grid(200.0);
        let far_north = GeoPoint::new(45.0, -122.4194).unwrap();
        let c = g.cell_of(far_north);
        assert_eq!(c.row, g.rows() - 1);
        let far_west = GeoPoint::new(37.75, -130.0).unwrap();
        assert_eq!(g.cell_of(far_west).col, 0);
    }

    /// The historical `cell_of`: floor, then clamp, then cast.
    fn floor_cell_index(coordinate: f64, cells: u32) -> u32 {
        coordinate.floor().clamp(0.0, f64::from(cells - 1)) as u32
    }

    #[test]
    fn floor_free_cell_index_matches_floor_on_every_kind_of_input() {
        let mut inputs = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1e300,
            -1e300,
        ];
        // Every exact cell edge of a 75-cell axis and floats just either
        // side of it, plus negative offsets below the origin.
        for edge in -80i32..=80 {
            let edge = f64::from(edge);
            let ulp = edge.abs() * f64::EPSILON;
            inputs.extend([edge, edge - ulp, edge + ulp, edge - 1e-12, edge + 0.5, edge - 0.25]);
        }
        for cells in [1, 2, 75, 76, u32::MAX] {
            for &v in &inputs {
                assert_eq!(cell_index(v, cells), floor_cell_index(v, cells), "{v} over {cells}");
            }
        }
    }

    #[test]
    fn floor_free_cell_of_matches_the_floor_reference() {
        let g = sf_grid(200.0);
        let reference = |point: GeoPoint| {
            let p = g.projection.project(point);
            CellId {
                col: floor_cell_index(p.x() / g.cell_size.as_f64(), g.columns),
                row: floor_cell_index(p.y() / g.cell_size.as_f64(), g.rows),
            }
        };
        let size = g.cell_size.as_f64();
        let mut points = Vec::new();
        // Cell corners, from three cells before the origin to three past
        // the far edge, and points a hair to either side of them.
        for col in -3..=i64::from(g.columns()) + 3 {
            for row in [-3i64, -1, 0, 1, 40, i64::from(g.rows()) - 1, i64::from(g.rows()) + 3] {
                let corner = crate::point::Point::new(col as f64 * size, row as f64 * size);
                for (dx, dy) in [(0.0, 0.0), (1e-9, 1e-9), (-1e-9, -1e-9), (0.5, -0.5)] {
                    let p = crate::point::Point::new(corner.x() + dx, corner.y() + dy);
                    points.push(g.projection.unproject(p));
                }
            }
        }
        // Far out of bounds, on every side and at the poles and antimeridian.
        for (lat, lon) in [(89.9, -122.4), (-89.9, -122.4), (37.75, 179.9), (37.75, -179.9)] {
            points.push(GeoPoint::new(lat, lon).unwrap());
        }
        points.push(g.bounds().south_west());
        points.push(g.bounds().north_east());
        for point in points {
            assert_eq!(g.cell_of(point), reference(point), "{point}");
        }
    }

    #[test]
    fn nearby_points_share_a_cell_distant_points_do_not() {
        let g = sf_grid(200.0);
        let a = GeoPoint::new(37.7749, -122.4194).unwrap();
        let b = GeoPoint::new(37.77495, -122.41945).unwrap(); // a few meters away
        assert_eq!(g.cell_of(a), g.cell_of(b));
        let c = GeoPoint::new(37.79, -122.40).unwrap(); // ~2 km away
        assert_ne!(g.cell_of(a), g.cell_of(c));
    }

    #[test]
    fn cell_center_roundtrips_to_same_cell() {
        let g = sf_grid(200.0);
        for point in [
            GeoPoint::new(37.7749, -122.4194).unwrap(),
            GeoPoint::new(37.71, -122.50).unwrap(),
            GeoPoint::new(37.82, -122.36).unwrap(),
        ] {
            let c = g.cell_of(point);
            let center = g.cell_center(c);
            assert_eq!(g.cell_of(center), c, "cell {c} center {center}");
        }
    }

    #[test]
    fn coverage_and_histogram() {
        let g = sf_grid(200.0);
        let a = GeoPoint::new(37.7749, -122.4194).unwrap();
        let b = GeoPoint::new(37.79, -122.40).unwrap();
        let cov = g.coverage([a, a, b]);
        assert_eq!(cov.len(), 2);
        let hist = g.histogram([a, a, b]);
        assert_eq!(hist[&g.cell_of(a)], 2);
        assert_eq!(hist[&g.cell_of(b)], 1);
    }

    /// `count_cells` through one reused buffer, checked against the size of
    /// the reference [`CellSet`].
    fn counted(g: &Grid, points: &[GeoPoint], keys: &mut Vec<u64>) -> usize {
        let count = g.count_cells(points.iter().copied(), keys);
        assert_eq!(count, g.coverage(points.iter().copied()).len(), "{} points", points.len());
        count
    }

    #[test]
    fn count_cells_of_no_points_is_zero() {
        let g = sf_grid(200.0);
        let mut keys = vec![7, 7, 7];
        assert_eq!(counted(&g, &[], &mut keys), 0);
    }

    #[test]
    fn count_cells_of_one_cell_is_one() {
        let g = sf_grid(200.0);
        let a = GeoPoint::new(37.7749, -122.4194).unwrap();
        let b = GeoPoint::new(37.77495, -122.41945).unwrap();
        let mut keys = Vec::new();
        assert_eq!(counted(&g, &[a; 500], &mut keys), 1);
        assert_eq!(counted(&g, &[a, b, a, b, b, a], &mut keys), 1);
    }

    #[test]
    fn count_cells_of_two_alternating_cells_is_two() {
        // No record repeats its predecessor's cell, so the repeat skip
        // never fires and every key reaches the count.
        let g = sf_grid(200.0);
        let a = GeoPoint::new(37.7749, -122.4194).unwrap();
        let b = GeoPoint::new(37.79, -122.40).unwrap();
        let points: Vec<GeoPoint> = (0..999).map(|i| if i % 2 == 0 { a } else { b }).collect();
        let mut keys = Vec::new();
        assert_eq!(counted(&g, &points, &mut keys), 2);
    }

    #[test]
    fn count_cells_of_distinct_cells_is_their_number() {
        let g = sf_grid(50.0);
        let mut points = Vec::new();
        for col in (0..g.columns()).step_by(3) {
            for row in (0..g.rows()).step_by(7) {
                points.push(g.cell_center(cell(col, row)));
            }
        }
        let mut keys = Vec::new();
        let every = counted(&g, &points, &mut keys);
        assert_eq!(every, points.len());
        // Then fewer through the same, larger buffer, and more again.
        assert_eq!(counted(&g, &points[..37], &mut keys), 37);
        assert_eq!(counted(&g, &[points.clone(), points.clone()].concat(), &mut keys), every);
    }

    /// The points of a slice behind a made-up `size_hint`.
    struct Misreported<'a> {
        points: std::slice::Iter<'a, GeoPoint>,
        hint: (usize, Option<usize>),
    }

    impl Iterator for Misreported<'_> {
        type Item = GeoPoint;

        fn next(&mut self) -> Option<GeoPoint> {
            self.points.next().copied()
        }

        fn size_hint(&self) -> (usize, Option<usize>) {
            self.hint
        }
    }

    #[test]
    fn count_cells_does_not_trust_the_reported_length() {
        let g = sf_grid(50.0);
        let points: Vec<GeoPoint> = (0..g.columns())
            .flat_map(|col| (0..g.rows()).step_by(20).map(move |row| cell(col, row)))
            .map(|c| g.cell_center(c))
            .collect();
        let mut keys = Vec::new();
        for hint in [(0, Some(0)), (1, Some(1)), (usize::MAX, None), (usize::MAX, Some(0))] {
            for len in [0, 1, 17, 300, points.len()] {
                // Every cell twice, the second time after the table has
                // grown, so a key lost in growth would count again.
                let twice: Vec<GeoPoint> =
                    points[..len].iter().chain(points[..len].iter().rev()).copied().collect();
                let shown = Misreported { points: twice.iter(), hint };
                assert_eq!(g.count_cells(shown, &mut keys), len, "{len} points, hint {hint:?}");
            }
        }
    }

    #[test]
    fn count_cells_clamps_far_points_to_border_cells() {
        let g = sf_grid(200.0);
        let far = [
            (89.9, -122.4),
            (-89.9, -122.4),
            (37.75, 179.9),
            (37.75, -179.9),
            (89.9, 179.9),
            (-89.9, -179.9),
            (45.0, -122.4194),
            (50.0, -122.4194),
        ];
        let points: Vec<GeoPoint> =
            far.iter().map(|&(lat, lon)| GeoPoint::new(lat, lon).unwrap()).collect();
        let mut keys = Vec::new();
        // The last two clamp to the same top-row cell.
        assert_eq!(counted(&g, &points, &mut keys), far.len() - 1);
        let corners = [g.bounds().south_west(), g.bounds().north_east()];
        assert_eq!(counted(&g, &[&points[..], &corners].concat(), &mut keys), far.len() - 1);
    }

    #[test]
    fn cellset_similarities() {
        let a = CellSet::from_cells([cell(0, 0), cell(1, 0), cell(2, 0)]);
        let b = CellSet::from_cells([cell(1, 0), cell(2, 0), cell(3, 0)]);
        assert_eq!(a.intersection_size(&b), 2);
        assert_eq!(a.union_size(&b), 4);
        assert!((a.jaccard(&b) - 0.5).abs() < 1e-12);
        assert!((a.precision_of(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.recall_of(&b) - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.f1_of(&b) - 2.0 / 3.0).abs() < 1e-12);

        // Identity.
        assert_eq!(a.jaccard(&a), 1.0);
        assert_eq!(a.f1_of(&a), 1.0);

        // Disjoint sets.
        let c = CellSet::from_cells([cell(9, 9)]);
        assert_eq!(a.jaccard(&c), 0.0);
        assert_eq!(a.f1_of(&c), 0.0);
    }

    #[test]
    fn cellset_empty_conventions() {
        let empty = CellSet::new();
        let nonempty = CellSet::from_cells([cell(0, 0)]);
        assert!(empty.is_empty());
        assert_eq!(empty.jaccard(&empty), 1.0);
        assert_eq!(empty.f1_of(&empty), 1.0);
        assert_eq!(nonempty.precision_of(&empty), 0.0);
        assert_eq!(empty.recall_of(&nonempty), 1.0);
    }

    #[test]
    fn cellset_collect_and_extend() {
        let mut s: CellSet = [cell(0, 0), cell(1, 1)].into_iter().collect();
        assert_eq!(s.len(), 2);
        s.extend([cell(1, 1), cell(2, 2)]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(cell(2, 2)));
        assert!(s.insert(cell(3, 3)));
        assert!(!s.insert(cell(3, 3)));
        assert_eq!(s.iter().count(), 4);
    }
}

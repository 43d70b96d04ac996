//! A point quadtree over the local planar frame.
//!
//! Used for spatial matching problems (e.g. "is any protected POI within
//! `r` meters of this actual POI?") where the quadratic scan over all pairs
//! would dominate experiment time on larger datasets.

use crate::point::Point;
use crate::units::Meters;

const MAX_POINTS_PER_LEAF: usize = 16;
const MAX_DEPTH: usize = 24;

/// Axis-aligned rectangle in the planar frame (meters).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Rect {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl Rect {
    fn intersects_circle(&self, center: Point, radius: f64) -> bool {
        let nearest_x = center.x().clamp(self.min_x, self.max_x);
        let nearest_y = center.y().clamp(self.min_y, self.max_y);
        let dx = center.x() - nearest_x;
        let dy = center.y() - nearest_y;
        dx * dx + dy * dy <= radius * radius
    }

    fn quadrant(&self, i: usize) -> Rect {
        let mid_x = (self.min_x + self.max_x) / 2.0;
        let mid_y = (self.min_y + self.max_y) / 2.0;
        match i {
            0 => Rect { min_x: self.min_x, min_y: self.min_y, max_x: mid_x, max_y: mid_y },
            1 => Rect { min_x: mid_x, min_y: self.min_y, max_x: self.max_x, max_y: mid_y },
            2 => Rect { min_x: self.min_x, min_y: mid_y, max_x: mid_x, max_y: self.max_y },
            _ => Rect { min_x: mid_x, min_y: mid_y, max_x: self.max_x, max_y: self.max_y },
        }
    }

    /// The entry of `quadrants` — one per quadrant, in [`Rect::quadrant`]
    /// order (south-west, south-east, north-west, north-east) — whose
    /// quadrant holds `p`.
    fn quadrant_of<T>(&self, p: Point, [sw, se, nw, ne]: [T; 4]) -> T {
        let mid_x = (self.min_x + self.max_x) / 2.0;
        let mid_y = (self.min_y + self.max_y) / 2.0;
        match (p.x() >= mid_x, p.y() >= mid_y) {
            (false, false) => sw,
            (true, false) => se,
            (false, true) => nw,
            (true, true) => ne,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf { points: Vec<(Point, usize)> },
    Internal { children: Box<[Node; 4]>, bounds: [Rect; 4] },
}

/// A point quadtree indexing planar points with associated payload indices.
///
/// Construction is `O(n log n)`; circular range queries and nearest-neighbour
/// queries are `O(log n)` on non-degenerate data.
///
/// # Examples
///
/// ```
/// use geopriv_geo::{Point, QuadTree, Meters};
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(100.0, 0.0), Point::new(0.0, 300.0)];
/// let tree = QuadTree::build(&pts);
///
/// // Which points lie within 150 m of the origin?
/// let near: Vec<usize> = tree.within_radius(Point::new(0.0, 0.0), Meters::new(150.0));
/// assert_eq!(near.len(), 2);
///
/// // Closest point to (90, 10) is index 1.
/// assert_eq!(tree.nearest(Point::new(90.0, 10.0)).unwrap().0, 1);
/// ```
#[derive(Debug, Clone)]
pub struct QuadTree {
    root: Node,
    bounds: Rect,
    len: usize,
}

impl QuadTree {
    /// Builds a quadtree over the given points.
    ///
    /// The payload of each point is its index in the input slice. Points with
    /// non-finite coordinates are skipped.
    pub fn build(points: &[Point]) -> Self {
        let finite: Vec<(Point, usize)> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| p.is_finite())
            .map(|(i, &p)| (p, i))
            .collect();

        let bounds = if finite.is_empty() {
            Rect { min_x: 0.0, min_y: 0.0, max_x: 1.0, max_y: 1.0 }
        } else {
            let mut r = Rect {
                min_x: f64::INFINITY,
                min_y: f64::INFINITY,
                max_x: f64::NEG_INFINITY,
                max_y: f64::NEG_INFINITY,
            };
            for (p, _) in &finite {
                r.min_x = r.min_x.min(p.x());
                r.min_y = r.min_y.min(p.y());
                r.max_x = r.max_x.max(p.x());
                r.max_y = r.max_y.max(p.y());
            }
            // Avoid zero-extent rectangles.
            if r.max_x - r.min_x < 1e-9 {
                r.max_x += 1.0;
            }
            if r.max_y - r.min_y < 1e-9 {
                r.max_y += 1.0;
            }
            r
        };

        let len = finite.len();
        let mut root = Node::Leaf { points: Vec::new() };
        for (p, idx) in finite {
            Self::insert_into(&mut root, bounds, p, idx, 0);
        }
        Self { root, bounds, len }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree indexes no points.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn insert_into(node: &mut Node, bounds: Rect, p: Point, idx: usize, depth: usize) {
        match node {
            Node::Leaf { points } => {
                points.push((p, idx));
                if points.len() > MAX_POINTS_PER_LEAF && depth < MAX_DEPTH {
                    let quadrant_bounds = [
                        bounds.quadrant(0),
                        bounds.quadrant(1),
                        bounds.quadrant(2),
                        bounds.quadrant(3),
                    ];
                    let drained = std::mem::take(points);
                    let mut children = Box::new([
                        Node::Leaf { points: Vec::new() },
                        Node::Leaf { points: Vec::new() },
                        Node::Leaf { points: Vec::new() },
                        Node::Leaf { points: Vec::new() },
                    ]);
                    for (q, i) in drained {
                        let child = bounds.quadrant_of(q, children.each_mut());
                        let child_bounds = bounds.quadrant_of(q, quadrant_bounds);
                        Self::insert_into(child, child_bounds, q, i, depth + 1);
                    }
                    *node = Node::Internal { children, bounds: quadrant_bounds };
                }
            }
            Node::Internal { children, bounds: quadrant_bounds } => {
                let child = bounds.quadrant_of(p, children.each_mut());
                let child_bounds = bounds.quadrant_of(p, *quadrant_bounds);
                Self::insert_into(child, child_bounds, p, idx, depth + 1);
            }
        }
    }

    /// Returns the payload indices of all points within `radius` of `center`.
    ///
    /// The result order is unspecified.
    pub fn within_radius(&self, center: Point, radius: Meters) -> Vec<usize> {
        let mut out = Vec::new();
        if radius.as_f64() < 0.0 {
            return out;
        }
        Self::range_query(&self.root, self.bounds, center, radius.as_f64(), &mut out);
        out
    }

    /// Returns `true` if any indexed point lies within `radius` of `center`.
    ///
    /// Faster than [`QuadTree::within_radius`] when only existence matters
    /// (the common case in POI-retrieval matching).
    pub fn any_within_radius(&self, center: Point, radius: Meters) -> bool {
        if radius.as_f64() < 0.0 {
            return false;
        }
        Self::any_query(&self.root, self.bounds, center, radius.as_f64())
    }

    fn range_query(node: &Node, bounds: Rect, center: Point, radius: f64, out: &mut Vec<usize>) {
        if !bounds.intersects_circle(center, radius) {
            return;
        }
        match node {
            Node::Leaf { points } => {
                for (p, idx) in points {
                    if p.distance_squared_to(center) <= radius * radius {
                        out.push(*idx);
                    }
                }
            }
            Node::Internal { children, bounds: qb } => {
                for (child, &child_bounds) in children.iter().zip(qb) {
                    Self::range_query(child, child_bounds, center, radius, out);
                }
            }
        }
    }

    fn any_query(node: &Node, bounds: Rect, center: Point, radius: f64) -> bool {
        if !bounds.intersects_circle(center, radius) {
            return false;
        }
        match node {
            Node::Leaf { points } => {
                points.iter().any(|(p, _)| p.distance_squared_to(center) <= radius * radius)
            }
            Node::Internal { children, bounds: qb } => children
                .iter()
                .zip(qb)
                .any(|(child, &child_bounds)| Self::any_query(child, child_bounds, center, radius)),
        }
    }

    /// Returns the payload index and distance of the point nearest to `target`,
    /// or `None` if the tree is empty.
    pub fn nearest(&self, target: Point) -> Option<(usize, Meters)> {
        let mut best: Option<(usize, f64)> = None;
        Self::nearest_query(&self.root, self.bounds, target, &mut best);
        best.map(|(idx, d2)| (idx, Meters::new(d2.sqrt())))
    }

    fn nearest_query(node: &Node, bounds: Rect, target: Point, best: &mut Option<(usize, f64)>) {
        if let Some((_, best_d2)) = best {
            if !bounds.intersects_circle(target, best_d2.sqrt()) {
                return;
            }
        }
        match node {
            Node::Leaf { points } => {
                for (p, idx) in points {
                    let d2 = p.distance_squared_to(target);
                    if best.map_or(true, |(_, b)| d2 < b) {
                        *best = Some((*idx, d2));
                    }
                }
            }
            Node::Internal { children, bounds: qb } => {
                // Visit the quadrant containing the target first to tighten the bound.
                let first = bounds.quadrant_of(target, [0, 1, 2, 3]);
                let child = bounds.quadrant_of(target, children.each_ref());
                Self::nearest_query(child, bounds.quadrant_of(target, *qb), target, best);
                for (i, (child, &child_bounds)) in children.iter().zip(qb).enumerate() {
                    if i != first {
                        Self::nearest_query(child, child_bounds, target, best);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree() {
        let tree = QuadTree::build(&[]);
        assert!(tree.is_empty());
        assert_eq!(tree.len(), 0);
        assert!(tree.nearest(Point::origin()).is_none());
        assert!(tree.within_radius(Point::origin(), Meters::new(100.0)).is_empty());
        assert!(!tree.any_within_radius(Point::origin(), Meters::new(100.0)));
    }

    #[test]
    fn single_point() {
        let tree = QuadTree::build(&[Point::new(5.0, 5.0)]);
        assert_eq!(tree.len(), 1);
        let (idx, d) = tree.nearest(Point::new(8.0, 9.0)).unwrap();
        assert_eq!(idx, 0);
        assert!((d.as_f64() - 5.0).abs() < 1e-9);
        assert!(tree.any_within_radius(Point::new(5.0, 5.0), Meters::new(0.1)));
        assert!(!tree.any_within_radius(Point::new(100.0, 100.0), Meters::new(1.0)));
    }

    #[test]
    fn range_query_matches_brute_force() {
        // Deterministic pseudo-random layout without pulling in rand here.
        let points: Vec<Point> = (0..500)
            .map(|i| {
                let x = ((i * 2_654_435_761_u64) % 10_000) as f64 / 10.0;
                let y = ((i * 40_503_u64 + 7) % 10_000) as f64 / 10.0;
                Point::new(x, y)
            })
            .collect();
        let tree = QuadTree::build(&points);
        assert_eq!(tree.len(), points.len());

        for (center, radius) in [
            (Point::new(500.0, 500.0), 120.0),
            (Point::new(0.0, 0.0), 300.0),
            (Point::new(999.0, 10.0), 50.0),
        ] {
            let mut expected: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| p.distance_to(center).as_f64() <= radius)
                .map(|(i, _)| i)
                .collect();
            let mut got = tree.within_radius(center, Meters::new(radius));
            expected.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expected);
            assert_eq!(tree.any_within_radius(center, Meters::new(radius)), !expected.is_empty());
        }
    }

    #[test]
    fn nearest_matches_brute_force() {
        let points: Vec<Point> = (0..300)
            .map(|i| {
                let x = ((i * 48_271_u64) % 7_919) as f64;
                let y = ((i * 16_807_u64 + 13) % 7_919) as f64;
                Point::new(x, y)
            })
            .collect();
        let tree = QuadTree::build(&points);
        for target in
            [Point::new(100.0, 100.0), Point::new(4000.0, 7000.0), Point::new(-50.0, 9000.0)]
        {
            let (best_idx, best_d) = tree.nearest(target).unwrap();
            let brute =
                points.iter().map(|p| p.distance_to(target).as_f64()).fold(f64::INFINITY, f64::min);
            assert!((best_d.as_f64() - brute).abs() < 1e-9);
            assert!((points[best_idx].distance_to(target).as_f64() - brute).abs() < 1e-9);
        }
    }

    #[test]
    fn duplicate_and_colinear_points_are_handled() {
        // All points identical: forces the depth cutoff rather than an infinite split.
        let points = vec![Point::new(1.0, 1.0); 100];
        let tree = QuadTree::build(&points);
        assert_eq!(tree.len(), 100);
        assert_eq!(tree.within_radius(Point::new(1.0, 1.0), Meters::new(0.5)).len(), 100);

        // Colinear points (zero height).
        let line: Vec<Point> = (0..100).map(|i| Point::new(i as f64, 0.0)).collect();
        let tree = QuadTree::build(&line);
        assert_eq!(tree.within_radius(Point::new(50.0, 0.0), Meters::new(2.5)).len(), 5);
    }

    #[test]
    fn non_finite_points_are_skipped() {
        let points = vec![Point::new(0.0, 0.0), Point::new(f64::NAN, 1.0), Point::new(2.0, 2.0)];
        let tree = QuadTree::build(&points);
        assert_eq!(tree.len(), 2);
        // Payload indices refer to the original slice.
        let mut idx = tree.within_radius(Point::new(1.0, 1.0), Meters::new(5.0));
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn negative_radius_returns_nothing() {
        let tree = QuadTree::build(&[Point::origin()]);
        assert!(tree.within_radius(Point::origin(), Meters::new(-1.0)).is_empty());
        assert!(!tree.any_within_radius(Point::origin(), Meters::new(-1.0)));
    }
}

//! Region-level routing trees.
//!
//! A global route for net `Nᵢ` is a tree over routing regions: its edges
//! join adjacent regions. From the tree we derive everything the crosstalk
//! models need — which regions the net crosses, in which direction (a
//! horizontal edge consumes a horizontal track), the wire length `lⱼ` of the
//! net inside each region (for the LSK sum of paper Eq. (1)), and the
//! region path from the source to each sink (for budgeting).

use crate::net::NetId;
use crate::region::{RegionGrid, RegionIdx};
use crate::{GridError, Result};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// Routing direction of a track or edge. Ordered `H` before `V`, so a
/// `(region, dir)` key sorts region first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Dir {
    /// Horizontal (east–west) — consumes horizontal tracks.
    H,
    /// Vertical (north–south) — consumes vertical tracks.
    V,
}

/// An undirected edge between two adjacent regions, stored with `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct GridEdge {
    a: RegionIdx,
    b: RegionIdx,
}

impl GridEdge {
    /// Creates a normalized edge.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::NonAdjacentEdge`] if the regions do not share an
    /// edge in `grid` (this also rejects self-loops).
    pub fn new(grid: &RegionGrid, a: RegionIdx, b: RegionIdx) -> Result<Self> {
        if !grid.adjacent(a, b) {
            return Err(GridError::NonAdjacentEdge { edge: (a, b) });
        }
        Ok(GridEdge {
            a: a.min(b),
            b: a.max(b),
        })
    }

    /// Lower region index.
    pub fn a(&self) -> RegionIdx {
        self.a
    }

    /// Higher region index.
    pub fn b(&self) -> RegionIdx {
        self.b
    }

    /// Direction of the edge: regions in the same row couple horizontally.
    pub fn dir(&self, grid: &RegionGrid) -> Dir {
        let (_, ay) = grid.coords(self.a);
        let (_, by) = grid.coords(self.b);
        if ay == by {
            Dir::H
        } else {
            Dir::V
        }
    }

    /// Wire length contributed by this edge (center-to-center, µm).
    pub fn length(&self, grid: &RegionGrid) -> f64 {
        match self.dir(grid) {
            Dir::H => grid.tile_w(),
            Dir::V => grid.tile_h(),
        }
    }
}

/// A routed net: a tree of region edges plus the root region that holds the
/// source pin (needed for nets entirely inside one region).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RouteTree {
    net: NetId,
    root: RegionIdx,
    edges: Vec<GridEdge>,
    #[serde(skip)]
    adjacency: HashMap<RegionIdx, Vec<RegionIdx>>,
}

impl RouteTree {
    /// Builds a route, validating that the edges form a connected tree that
    /// includes `root`.
    ///
    /// # Errors
    ///
    /// * [`GridError::NonAdjacentEdge`] via [`GridEdge::new`] if callers
    ///   constructed raw edges (already-validated edges cannot fail this).
    /// * [`GridError::DisconnectedRoute`] if the edges do not form a single
    ///   connected component containing `root`, or contain a cycle.
    pub fn new(
        grid: &RegionGrid,
        net: NetId,
        root: RegionIdx,
        mut edges: Vec<GridEdge>,
    ) -> Result<Self> {
        edges.sort_unstable();
        edges.dedup();
        let adjacency = build_adjacency(&edges);
        // Connected & acyclic check: BFS from root must reach every region
        // named by an edge, and |V| must equal |E| + 1 (or 0 edges).
        let mut seen: HashMap<RegionIdx, ()> = HashMap::new();
        let mut queue = VecDeque::new();
        seen.insert(root, ());
        queue.push_back(root);
        while let Some(r) = queue.pop_front() {
            if let Some(ns) = adjacency.get(&r) {
                for &n in ns {
                    if seen.insert(n, ()).is_none() {
                        queue.push_back(n);
                    }
                }
            }
        }
        let vertex_count = adjacency.len().max(1);
        if seen.len() != vertex_count || vertex_count != edges.len() + 1 {
            // Either part of the tree is unreachable from the root or the
            // edges contain a cycle.
            let _ = grid;
            return Err(GridError::DisconnectedRoute { net });
        }
        Ok(RouteTree {
            net,
            root,
            edges,
            adjacency,
        })
    }

    /// A route that never leaves the root region (all pins in one region).
    pub fn trivial(net: NetId, root: RegionIdx) -> Self {
        RouteTree {
            net,
            root,
            edges: Vec::new(),
            adjacency: HashMap::new(),
        }
    }

    /// The routed net's id.
    pub fn net(&self) -> NetId {
        self.net
    }

    /// The root region (region of the source pin).
    pub fn root(&self) -> RegionIdx {
        self.root
    }

    /// The tree edges.
    pub fn edges(&self) -> &[GridEdge] {
        &self.edges
    }

    /// Every region the route touches (root included), ascending.
    pub fn regions(&self) -> Vec<RegionIdx> {
        let mut out: Vec<RegionIdx> = self.adjacency.keys().copied().collect();
        if out.is_empty() {
            out.push(self.root);
        }
        out.sort_unstable();
        out
    }

    /// Whether the route occupies a track of direction `dir` in region `r`.
    pub fn occupies(&self, grid: &RegionGrid, r: RegionIdx, dir: Dir) -> bool {
        self.edges
            .iter()
            .any(|e| (e.a() == r || e.b() == r) && e.dir(grid) == dir)
    }

    /// Wire length of the route (µm): sum of center-to-center edge lengths.
    /// A trivial route reports 0; callers add intra-region pin length.
    pub fn wirelength(&self, grid: &RegionGrid) -> f64 {
        self.edges.iter().map(|e| e.length(grid)).sum()
    }

    /// Length of this net inside region `r`, split by direction
    /// (half a tile per incident edge) — the `lⱼ` of LSK Eq. (1).
    pub fn length_in_region(&self, grid: &RegionGrid, r: RegionIdx) -> (f64, f64) {
        let mut h = 0.0;
        let mut v = 0.0;
        for e in &self.edges {
            if e.a() == r || e.b() == r {
                match e.dir(grid) {
                    Dir::H => h += grid.tile_w() / 2.0,
                    Dir::V => v += grid.tile_h() / 2.0,
                }
            }
        }
        (h, v)
    }

    /// Region path between two regions on the tree (inclusive of both ends),
    /// or `None` if either region is not on the tree.
    pub fn path(&self, from: RegionIdx, to: RegionIdx) -> Option<Vec<RegionIdx>> {
        let on_tree = |r: RegionIdx| r == self.root || self.adjacency.contains_key(&r);
        if !on_tree(from) || !on_tree(to) {
            return None;
        }
        if from == to {
            return Some(vec![from]);
        }
        let mut prev: HashMap<RegionIdx, RegionIdx> = HashMap::new();
        let mut queue = VecDeque::new();
        prev.insert(from, from);
        queue.push_back(from);
        while let Some(r) = queue.pop_front() {
            if r == to {
                break;
            }
            if let Some(ns) = self.adjacency.get(&r) {
                for &n in ns {
                    if let std::collections::hash_map::Entry::Vacant(e) = prev.entry(n) {
                        e.insert(r);
                        queue.push_back(n);
                    }
                }
            }
        }
        if !prev.contains_key(&to) {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = prev[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }
}

fn build_adjacency(edges: &[GridEdge]) -> HashMap<RegionIdx, Vec<RegionIdx>> {
    let mut adjacency: HashMap<RegionIdx, Vec<RegionIdx>> = HashMap::new();
    for e in edges {
        adjacency.entry(e.a()).or_default().push(e.b());
        adjacency.entry(e.b()).or_default().push(e.a());
    }
    adjacency
}

/// The complete routing solution: one tree per routed net.
///
/// The trees are kept in one vector sorted by net id, so every cost
/// (memory, `clone`, drop, [`RouteSet::len`], iteration) scales with the
/// number of routed nets, never with the largest id: a net added at id
/// 1,000,000 costs one slot, not a million. [`RouteSet::get`] is a binary
/// search, iteration runs in ascending id order, and two sets are equal
/// exactly when they hold the same routes.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RouteSet {
    /// Sorted by net id, one tree per id.
    routes: Vec<RouteTree>,
}

impl RouteSet {
    /// Creates an empty route set with room for `num_nets` routes.
    pub fn with_capacity(num_nets: usize) -> Self {
        RouteSet {
            routes: Vec::with_capacity(num_nets),
        }
    }

    /// Where `net`'s route is (`Ok`) or would be inserted (`Err`). Routes
    /// arriving in ascending id order land at the end without a search.
    fn slot(&self, net: NetId) -> std::result::Result<usize, usize> {
        match self.routes.last() {
            None => Err(0),
            Some(last) if last.net() < net => Err(self.routes.len()),
            Some(_) => self.routes.binary_search_by_key(&net, RouteTree::net),
        }
    }

    /// Inserts a route.
    ///
    /// # Errors
    ///
    /// Returns [`GridError::DuplicateRoute`] if the net already has one.
    pub fn insert(&mut self, route: RouteTree) -> Result<()> {
        match self.slot(route.net()) {
            Ok(_) => Err(GridError::DuplicateRoute { net: route.net() }),
            Err(at) => {
                self.routes.insert(at, route);
                Ok(())
            }
        }
    }

    /// Replaces (or inserts) a route, returning the previous one if any.
    pub fn replace(&mut self, route: RouteTree) -> Option<RouteTree> {
        match self.slot(route.net()) {
            Ok(at) => Some(std::mem::replace(&mut self.routes[at], route)),
            Err(at) => {
                self.routes.insert(at, route);
                None
            }
        }
    }

    /// The route of a net, if routed.
    pub fn get(&self, net: NetId) -> Option<&RouteTree> {
        self.slot(net).ok().map(|at| &self.routes[at])
    }

    /// Iterates over all routed nets in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &RouteTree> {
        self.routes.iter()
    }

    /// Number of routed nets.
    pub fn len(&self) -> usize {
        self.routes.len()
    }

    /// Whether no nets are routed.
    pub fn is_empty(&self) -> bool {
        self.routes.is_empty()
    }

    /// Total wire length over all routes (µm), edges only.
    pub fn total_wirelength(&self, grid: &RegionGrid) -> f64 {
        self.iter().map(|r| r.wirelength(grid)).sum()
    }
}

/// Collects, then sorts once. When a net appears more than once the last
/// of its routes wins, as with repeated [`RouteSet::replace`] calls.
impl FromIterator<RouteTree> for RouteSet {
    fn from_iter<I: IntoIterator<Item = RouteTree>>(iter: I) -> Self {
        let mut routes: Vec<RouteTree> = iter.into_iter().collect();
        // Stable: routes of one net keep their arrival order.
        routes.sort_by_key(RouteTree::net);
        // `dedup_by` keeps the first of a run of equal ids; swapping each
        // later route into the kept slot makes the last one survive.
        routes.dedup_by(|later, kept| {
            let same = later.net() == kept.net();
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
        RouteSet { routes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{Point, Rect};
    use crate::tech::Technology;

    fn grid() -> RegionGrid {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(320.0, 320.0)).unwrap();
        RegionGrid::from_die(die, &Technology::itrs_100nm(), 64.0).unwrap()
    }

    fn edge(g: &RegionGrid, a: (u32, u32), b: (u32, u32)) -> GridEdge {
        GridEdge::new(g, g.idx(a.0, a.1), g.idx(b.0, b.1)).unwrap()
    }

    /// An L-shaped route: (0,0) → (2,0) → (2,2).
    fn l_route(g: &RegionGrid) -> RouteTree {
        let edges = vec![
            edge(g, (0, 0), (1, 0)),
            edge(g, (1, 0), (2, 0)),
            edge(g, (2, 0), (2, 1)),
            edge(g, (2, 1), (2, 2)),
        ];
        RouteTree::new(g, 0, g.idx(0, 0), edges).unwrap()
    }

    #[test]
    fn edge_normalization_and_dir() {
        let g = grid();
        let e = GridEdge::new(&g, g.idx(1, 0), g.idx(0, 0)).unwrap();
        assert!(e.a() < e.b());
        assert_eq!(e.dir(&g), Dir::H);
        let e = edge(&g, (0, 0), (0, 1));
        assert_eq!(e.dir(&g), Dir::V);
        assert_eq!(e.length(&g), 64.0);
    }

    #[test]
    fn non_adjacent_edge_rejected() {
        let g = grid();
        assert!(GridEdge::new(&g, g.idx(0, 0), g.idx(2, 0)).is_err());
        assert!(GridEdge::new(&g, g.idx(0, 0), g.idx(0, 0)).is_err());
        assert!(GridEdge::new(&g, g.idx(0, 0), g.idx(1, 1)).is_err());
    }

    #[test]
    fn route_regions_and_wirelength() {
        let g = grid();
        let r = l_route(&g);
        assert_eq!(r.regions().len(), 5);
        assert_eq!(r.wirelength(&g), 4.0 * 64.0);
    }

    #[test]
    fn occupies_by_direction() {
        let g = grid();
        let r = l_route(&g);
        assert!(r.occupies(&g, g.idx(1, 0), Dir::H));
        assert!(!r.occupies(&g, g.idx(1, 0), Dir::V));
        // Corner region has both.
        assert!(r.occupies(&g, g.idx(2, 0), Dir::H));
        assert!(r.occupies(&g, g.idx(2, 0), Dir::V));
    }

    #[test]
    fn length_in_region_half_tile_per_incident_edge() {
        let g = grid();
        let r = l_route(&g);
        // Pass-through region (1,0): two H edges → full tile.
        assert_eq!(r.length_in_region(&g, g.idx(1, 0)), (64.0, 0.0));
        // End region (0,0): one H edge → half tile.
        assert_eq!(r.length_in_region(&g, g.idx(0, 0)), (32.0, 0.0));
        // Corner: one H + one V.
        assert_eq!(r.length_in_region(&g, g.idx(2, 0)), (32.0, 32.0));
        // Sum over regions equals wirelength.
        let total: f64 = r
            .regions()
            .iter()
            .map(|&q| {
                let (h, v) = r.length_in_region(&g, q);
                h + v
            })
            .sum();
        assert_eq!(total, r.wirelength(&g));
    }

    #[test]
    fn path_follows_tree() {
        let g = grid();
        let r = l_route(&g);
        let p = r.path(g.idx(0, 0), g.idx(2, 2)).unwrap();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], g.idx(0, 0));
        assert_eq!(p[4], g.idx(2, 2));
        // Path endpoints not on the tree → None.
        assert!(r.path(g.idx(0, 0), g.idx(4, 4)).is_none());
        // Same-region path.
        assert_eq!(r.path(g.idx(1, 0), g.idx(1, 0)).unwrap(), vec![g.idx(1, 0)]);
    }

    #[test]
    fn cycle_is_rejected() {
        let g = grid();
        let edges = vec![
            edge(&g, (0, 0), (1, 0)),
            edge(&g, (1, 0), (1, 1)),
            edge(&g, (1, 1), (0, 1)),
            edge(&g, (0, 1), (0, 0)),
        ];
        assert!(matches!(
            RouteTree::new(&g, 0, g.idx(0, 0), edges),
            Err(GridError::DisconnectedRoute { .. })
        ));
    }

    #[test]
    fn disconnected_is_rejected() {
        let g = grid();
        let edges = vec![edge(&g, (0, 0), (1, 0)), edge(&g, (3, 3), (4, 3))];
        assert!(matches!(
            RouteTree::new(&g, 0, g.idx(0, 0), edges),
            Err(GridError::DisconnectedRoute { .. })
        ));
    }

    #[test]
    fn root_not_on_edges_is_rejected() {
        let g = grid();
        let edges = vec![edge(&g, (1, 0), (2, 0))];
        assert!(RouteTree::new(&g, 0, g.idx(4, 4), edges).is_err());
    }

    #[test]
    fn trivial_route() {
        let g = grid();
        let r = RouteTree::trivial(9, g.idx(2, 2));
        assert_eq!(r.regions(), vec![g.idx(2, 2)]);
        assert_eq!(r.wirelength(&g), 0.0);
        assert_eq!(r.path(g.idx(2, 2), g.idx(2, 2)).unwrap(), vec![g.idx(2, 2)]);
    }

    #[test]
    fn route_set_insert_and_duplicate() {
        let g = grid();
        let mut set = RouteSet::with_capacity(2);
        set.insert(RouteTree::trivial(0, g.idx(0, 0))).unwrap();
        assert!(matches!(
            set.insert(RouteTree::trivial(0, g.idx(0, 0))),
            Err(GridError::DuplicateRoute { net: 0 })
        ));
        assert_eq!(set.len(), 1);
        assert!(set.get(0).is_some());
        assert!(set.get(1).is_none());
        set.replace(RouteTree::trivial(1, g.idx(1, 1)));
        assert_eq!(set.len(), 2);
        assert!(!set.is_empty());
    }

    #[test]
    fn route_set_equality_is_content_equality() {
        let g = grid();
        // Spare capacity beyond the largest id, then a sparse id.
        for ids in [vec![7, 0, 3, 12], vec![7, 1_000_000, 0, 42]] {
            let mut inserted = RouteSet::with_capacity(16);
            for &id in &ids {
                inserted
                    .insert(RouteTree::trivial(id, g.idx(1, 1)))
                    .unwrap();
            }
            let collected: RouteSet = ids
                .iter()
                .map(|&id| RouteTree::trivial(id, g.idx(1, 1)))
                .collect();
            assert_eq!(inserted, collected, "ids {ids:?}");
            let mut ascending = ids.clone();
            ascending.sort_unstable();
            let order: Vec<NetId> = collected.iter().map(RouteTree::net).collect();
            assert_eq!(order, ascending);
        }
    }

    #[test]
    fn route_set_total_wirelength() {
        let g = grid();
        let set: RouteSet = vec![l_route(&g), RouteTree::trivial(1, g.idx(0, 0))]
            .into_iter()
            .collect();
        assert_eq!(set.total_wirelength(&g), 256.0);
    }

    mod model {
        use super::super::*;
        use proptest::prelude::*;
        use std::collections::BTreeMap;

        /// Sparse ids from 0 up to 1,064,700, so ids collide often and the
        /// largest sits far beyond the number of routes.
        fn sparse_id(k: u32) -> NetId {
            k * k * 700
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn route_set_matches_btreemap_model(
                ops in prop::collection::vec((0u8..3, 0u32..40, 0u32..1000), 0..120),
            ) {
                let mut set = RouteSet::default();
                let mut model: BTreeMap<NetId, RegionIdx> = BTreeMap::new();
                for &(op, k, root) in &ops {
                    let id = sparse_id(k);
                    match op {
                        0 => match set.insert(RouteTree::trivial(id, root)) {
                            Ok(()) => prop_assert!(model.insert(id, root).is_none()),
                            Err(GridError::DuplicateRoute { net }) => {
                                prop_assert_eq!(net, id);
                                prop_assert!(model.contains_key(&id));
                            }
                            Err(e) => panic!("unexpected error {e:?}"),
                        },
                        1 => {
                            let old = set.replace(RouteTree::trivial(id, root));
                            prop_assert_eq!(old.map(|r| r.root()), model.insert(id, root));
                        }
                        _ => prop_assert_eq!(
                            set.get(id).map(RouteTree::root),
                            model.get(&id).copied()
                        ),
                    }
                    prop_assert_eq!(set.len(), model.len());
                    prop_assert_eq!(set.is_empty(), model.is_empty());
                }
                let seen: Vec<(NetId, RegionIdx)> =
                    set.iter().map(|r| (r.net(), r.root())).collect();
                let expected: Vec<(NetId, RegionIdx)> = model.into_iter().collect();
                prop_assert_eq!(&seen, &expected);
                for k in 0..40 {
                    let id = sparse_id(k);
                    let want = expected.iter().find(|(n, _)| *n == id).map(|&(_, r)| r);
                    prop_assert_eq!(set.get(id).map(RouteTree::root), want);
                }
            }

            #[test]
            fn collect_keeps_the_last_route_per_net(
                routes in prop::collection::vec((0u32..40, 0u32..1000), 0..120),
            ) {
                let mut replaced = RouteSet::default();
                for &(k, root) in &routes {
                    replaced.replace(RouteTree::trivial(sparse_id(k), root));
                }
                let collected: RouteSet = routes
                    .iter()
                    .map(|&(k, root)| RouteTree::trivial(sparse_id(k), root))
                    .collect();
                prop_assert_eq!(&collected, &replaced);
                let mut with_capacity = RouteSet::with_capacity(routes.len());
                // Descending order: every insert lands in front.
                let mut descending: Vec<RouteTree> = collected.iter().cloned().collect();
                descending.reverse();
                for r in descending {
                    with_capacity.insert(r).unwrap();
                }
                prop_assert_eq!(&with_capacity, &collected);
            }
        }
    }
}

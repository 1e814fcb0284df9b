//! Incremental corridor connectivity for the iterative-deletion router.
//!
//! The ID main loop asks one question per candidate deletion: *do the two
//! terminals stay connected if this edge dies?* The seed kernel answered
//! with a full BFS over corridor adjacency per query
//! ([`Corridor::connected_without`]), which made connectivity the dominant
//! Phase I cost. This module replaces the per-query BFS with a cached
//! bridge analysis so that almost every query is O(1), and scopes the
//! remaining passes to the terminals' connected component:
//!
//! * One **Tarjan low-link DFS** over the alive corridor graph finds every
//!   bridge in O(V+E); a BFS from the same pass extracts a short witness
//!   path `P` between the terminals. An edge disconnects the terminals iff
//!   it is a bridge **and** lies on `P` (a separating edge lies on every
//!   terminal path, and a bridge on one simple terminal path separates).
//! * Both traversals walk the corridor's **alive adjacency**
//!   ([`Corridor::first_arc`]/[`Corridor::next_arc`] over one 4-bit alive
//!   mask per region, which [`Corridor::kill`] clears in O(1); the walk
//!   visits a region's edges in descending edge index, the order of the
//!   linked arc lists the masks replaced, so every traversal, witness
//!   path and repair is unchanged). Starting from a terminal they
//!   visit exactly the terminal component's alive edges — a recompute is
//!   **component-scoped**, O(V_c + E_c), never the PR-2 corridor-scoped
//!   O(V + E_total) rebuild that iterated every edge (dead ones included)
//!   to copy adjacency into scratch.
//! * The analysis is stamped with the corridor's **revision** (bumped by
//!   every [`Corridor::kill`]). While the revision matches, a query is a
//!   plain double array lookup.
//! * After a kill the cache goes *stale*, but it is **not** recomputed
//!   eagerly — three monotonicity facts answer almost everything in O(1):
//!   deletion never reconnects, so a cached "already disconnected" verdict
//!   is final; a separating bridge stays separating while deletions
//!   continue, so `SEP` verdicts persist across revisions; and while the
//!   witness path is intact (no kill touched it — see
//!   [`BridgeCache::note_kill`]) any query about an off-path edge is
//!   answered `true`, because `P` itself avoids that edge.
//! * Every other stale query — the witness path **broke** (a kill hit
//!   it), or the query is about a path edge the monotone facts cannot
//!   classify — is settled by a **localized repair**
//!   (`BridgeCache::resolve_stale`): one component-scoped BFS around the
//!   queried edge either installs a fresh witness path (re-arming the
//!   O(1) shortcut) or, by failing while a live path exists, proves the
//!   edge separating. Repairs are *batched* by construction — a burst of
//!   deletions along one route invalidates the path once, and the single
//!   BFS at the next query heals every break at once, instead of the
//!   PR-2 behaviour of one full Tarjan recompute per path hit.
//! * The full Tarjan pass therefore runs **once per corridor** (the first
//!   query, seeding the monotone bridge set so every bridge that exists
//!   up front yields O(1) `SEP` verdicts) and again only if a caller
//!   violates the kill-notification contract below. Its witness path is
//!   routed **around** the queried edge when possible so the kill that
//!   typically follows a `true` answer leaves the new path intact.
//!
//! The per-call DFS/BFS state lives in [`ConnectivityScratch`], shared by
//! every corridor of an ID run and epoch-stamped exactly like
//! [`super::SearchScratch`] and [`super::CorridorScratch`]: starting a
//! recompute is an O(1) counter bump, never an O(regions) clear.
//!
//! # Invalidation contract
//!
//! Callers that kill corridor edges directly should pair every effective
//! [`Corridor::kill`] with one [`BridgeCache::note_kill`] on the
//! corridor's cache — that is how the intact-path shortcut learns about
//! witness-path deaths. The pairing is enforced structurally: the
//! shortcut *and* the repair cross-check the corridor's revision counter
//! against the number of reported kills, so an unpaired kill degrades to a
//! recompute instead of a stale answer (and debug builds verify the
//! witness path on every shortcut). See
//! `crates/core/src/router/README.md` for the full contract.

use super::corridor::Corridor;

/// Sentinel for "no parent edge" (DFS root) / "no parent region".
const NONE: u32 = u32::MAX;

/// Counters describing how the incremental connectivity behaved.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnectivityCounters {
    /// Queries answered from a revision-fresh bridge set (O(1)).
    pub fresh_hits: usize,
    /// Stale-cache queries answered through the intact witness path (O(1)).
    pub shortcut_hits: usize,
    /// Localized stale-query resolutions ([`BridgeCache`]'s
    /// `resolve_stale`): a component-scoped BFS repaired the witness path
    /// (healing a whole burst of breaks at once) or proved the queried
    /// edge separating, without recomputing the bridge analysis.
    pub repairs: usize,
    /// Full component-scoped Tarjan/BFS bridge recomputes.
    pub recomputes: usize,
}

/// Reusable DFS/BFS buffers for the bridge analysis.
///
/// One scratch serves every corridor of a routing run. All arrays are
/// epoch-stamped: an entry is live only when its stamp equals the current
/// epoch, so starting a recompute costs O(1) regardless of how large the
/// previous corridor was. Adjacency is *not* copied here — traversals walk
/// the corridor's own alive masks, so their cost is bounded by the
/// traversed component.
#[derive(Debug, Default)]
pub struct ConnectivityScratch {
    epoch: u32,
    /// DFS discovery stamp / order / low-link per region.
    visit: Vec<u32>,
    tin: Vec<u32>,
    low: Vec<u32>,
    /// DFS frames: (region, next alive arc, edge to parent).
    stack: Vec<(u16, i32, u32)>,
    /// Bridge flags per edge, valid for the current recompute only.
    bridge: Vec<bool>,
    /// Edges flagged in `bridge` (bounds the post-recompute clear).
    bridge_set: Vec<u32>,
    /// BFS visitation stamp and parent edge per region. The BFS runs up to
    /// twice per recompute (once avoiding the queried edge, once without
    /// the restriction), so it carries its own epoch.
    bfs_epoch: u32,
    bfs_visit: Vec<u32>,
    bfs_parent: Vec<u32>,
    bfs_queue: Vec<u16>,
    /// Behaviour counters accumulated across queries (reset by the caller).
    pub counters: ConnectivityCounters,
}

impl ConnectivityScratch {
    /// Creates empty scratch space.
    pub fn new() -> Self {
        ConnectivityScratch::default()
    }

    /// Grows the region/edge-indexed arrays; never shrinks them.
    fn ensure_capacity(&mut self, regions: usize, edges: usize) {
        if self.visit.len() < regions {
            self.visit.resize(regions, 0);
            self.tin.resize(regions, 0);
            self.low.resize(regions, 0);
            self.bfs_visit.resize(regions, 0);
            self.bfs_parent.resize(regions, NONE);
        }
        if self.bridge.len() < edges {
            self.bridge.resize(edges, false);
        }
    }

    fn prepare(&mut self, regions: usize, edges: usize) {
        self.ensure_capacity(regions, edges);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.visit.fill(0);
            self.epoch = 1;
        }
        self.stack.clear();
        self.bfs_queue.clear();
        while let Some(e) = self.bridge_set.pop() {
            self.bridge[e as usize] = false;
        }
    }

    /// Iterative Tarjan low-link DFS from `root` over the corridor's alive
    /// adjacency. Marks every bridge of `root`'s component in
    /// `self.bridge`; regions outside the component are never touched.
    fn dfs_bridges(&mut self, corridor: &Corridor, root: u16) {
        let mut timer = 0u32;
        self.visit[root as usize] = self.epoch;
        self.tin[root as usize] = timer;
        self.low[root as usize] = timer;
        timer += 1;
        self.stack.push((root, corridor.first_arc(root), NONE));
        while let Some(&(node, arc, parent_edge)) = self.stack.last() {
            if arc < 0 {
                self.stack.pop();
                if let Some(&(parent, _, _)) = self.stack.last() {
                    let (ni, pi) = (node as usize, parent as usize);
                    if self.low[ni] < self.low[pi] {
                        self.low[pi] = self.low[ni];
                    }
                    if self.low[ni] > self.tin[pi] {
                        self.bridge[parent_edge as usize] = true;
                        self.bridge_set.push(parent_edge);
                    }
                }
                continue;
            }
            let (to, eid) = (corridor.arc_to(arc), corridor.arc_edge(arc) as u32);
            // invariant: the enclosing loop only runs while the stack is
            // non-empty; this frame was peeked at the top of the iteration.
            self.stack.last_mut().expect("frame exists").1 = corridor.next_arc(arc);
            if eid == parent_edge {
                continue;
            }
            let (ni, ti) = (node as usize, to as usize);
            if self.visit[ti] == self.epoch {
                if self.tin[ti] < self.low[ni] {
                    self.low[ni] = self.tin[ti];
                }
            } else {
                self.visit[ti] = self.epoch;
                self.tin[ti] = timer;
                self.low[ti] = timer;
                timer += 1;
                self.stack.push((to, corridor.first_arc(to), eid));
            }
        }
    }

    /// BFS from `from` to `to` over the alive adjacency, skipping edge
    /// `avoid` (pass [`NONE`] for no restriction); returns whether `to`
    /// was reached and leaves parent edges in `self.bfs_parent` for path
    /// extraction. Cost is bounded by `from`'s component.
    fn bfs_path(&mut self, corridor: &Corridor, from: u16, to: u16, avoid: u32) -> bool {
        self.bfs_epoch = self.bfs_epoch.wrapping_add(1);
        if self.bfs_epoch == 0 {
            self.bfs_visit.fill(0);
            self.bfs_epoch = 1;
        }
        self.bfs_queue.clear();
        self.bfs_visit[from as usize] = self.bfs_epoch;
        self.bfs_parent[from as usize] = NONE;
        self.bfs_queue.push(from);
        let mut head = 0;
        while head < self.bfs_queue.len() {
            let r = self.bfs_queue[head];
            head += 1;
            if r == to {
                return true;
            }
            let mut arc = corridor.first_arc(r);
            while arc >= 0 {
                let n = corridor.arc_to(arc);
                if self.bfs_visit[n as usize] != self.bfs_epoch {
                    let eid = corridor.arc_edge(arc) as u32;
                    if eid != avoid {
                        self.bfs_visit[n as usize] = self.bfs_epoch;
                        self.bfs_parent[n as usize] = eid;
                        self.bfs_queue.push(n);
                    }
                }
                arc = corridor.next_arc(arc);
            }
        }
        false
    }
}

/// Per-corridor cached bridge analysis.
///
/// One cache accompanies each [`Corridor`] through an ID run; the heavy
/// per-recompute state lives in the shared [`ConnectivityScratch`].
#[derive(Debug, Default)]
pub struct BridgeCache {
    /// Corridor revision the analysis was computed at.
    revision: u32,
    /// Whether any analysis has been computed yet.
    valid: bool,
    /// Whether the terminals were connected at `revision`.
    connected: bool,
    /// Whether the witness path is known intact (every edge alive).
    path_intact: bool,
    /// Per edge, the [`ON_PATH`], [`SEP`] and [`BRIDGE`] bits, in one
    /// byte so a query reads one cache line.
    flags: Vec<u8>,
    /// Edges of the witness path (bounds clears of [`ON_PATH`]).
    path_edges: Vec<u32>,
    /// Kills reported via [`Self::note_kill`] since the last recompute.
    /// The intact-path shortcut and the localized repair also require
    /// `revision + noted_kills == corridor.revision()`, so an unpaired
    /// [`Corridor::kill`] degrades to a recompute instead of a stale
    /// answer — the contract is enforced structurally, not just by the
    /// debug assert.
    noted_kills: u32,
}

/// [`BridgeCache`] edge flag: the edge lies on the witness path (exact for
/// the currently installed path, which a repair may have refreshed after
/// the analysis's revision).
const ON_PATH: u8 = 1 << 0;
/// Edge flag: killing the edge separates the terminals. **Monotone**: once
/// an edge separates the pair it keeps separating under further
/// deletions, so the flag persists across recomputes and answers stale
/// queries in O(1).
const SEP: u8 = 1 << 1;
/// Edge flag: the edge is a bridge of the corridor graph. **Monotone**
/// like [`SEP`]: deletion never creates a cycle, so a bridge stays a
/// bridge for as long as it lives. Merged from every Tarjan pass and
/// combined with the witness path: a known bridge lying on a path that
/// was fully alive when installed was separating at that instant, hence
/// (also monotone) separating forever — an O(1) `false` that needs
/// neither a BFS nor a fresh bridge analysis.
const BRIDGE: u8 = 1 << 2;

impl BridgeCache {
    /// Creates an empty cache; the first query recomputes.
    pub fn new() -> Self {
        BridgeCache::default()
    }

    /// Whether edge `e` carries `flag`.
    #[inline]
    fn has(&self, e: usize, flag: u8) -> bool {
        self.flags[e] & flag != 0
    }

    /// Clears [`ON_PATH`] on every witness-path edge and forgets the path.
    fn clear_path(&mut self) {
        while let Some(pe) = self.path_edges.pop() {
            self.flags[pe as usize] &= !ON_PATH;
        }
    }

    /// Records that `e` was killed in the corridor this cache mirrors.
    ///
    /// Call it exactly once per effective [`Corridor::kill`]; this is what
    /// keeps the O(1) intact-path shortcut fast (see the module docs). A
    /// missed (or spurious) call is detected through the corridor's
    /// revision counter and costs a recompute, never a wrong answer.
    #[inline]
    pub fn note_kill(&mut self, e: usize) {
        self.noted_kills = self.noted_kills.wrapping_add(1);
        if self.valid && self.flags.get(e).is_some_and(|f| f & ON_PATH != 0) {
            self.path_intact = false;
        }
    }

    /// Whether the terminals of `corridor` stay connected if edge `e` were
    /// dead — same semantics as the BFS [`Corridor::connected_without`],
    /// including the disconnected-corridor case: once the terminal pair is
    /// disconnected the answer is `false` for every `e`, even when `e` is
    /// the only edge touching some isolated region.
    pub fn connected_without(
        &mut self,
        corridor: &Corridor,
        e: usize,
        scratch: &mut ConnectivityScratch,
    ) -> bool {
        let (t1, t2) = corridor.terminals();
        if t1 == t2 {
            return true;
        }
        if self.valid {
            // Monotone verdicts are good at any revision: a separating
            // edge keeps separating, a disconnected pair stays apart.
            if self.has(e, SEP) {
                scratch.counters.fresh_hits += 1;
                return false;
            }
            if !self.connected {
                scratch.counters.fresh_hits += 1;
                return false;
            }
            if self.revision == corridor.revision() {
                scratch.counters.fresh_hits += 1;
                return true; // connected, and `e` is not separating
            }
            // Stale shortcuts need every kill accounted for: the revision
            // arithmetic rejects them whenever some kill was not reported
            // through `note_kill` (the path might be secretly dead),
            // falling through to a recompute.
            if corridor.revision() == self.revision.wrapping_add(self.noted_kills) {
                // The witness path avoids `e` and every edge on it is
                // still alive, so it proves connectivity without `e` by
                // itself.
                if self.path_intact && !self.has(e, ON_PATH) {
                    debug_assert!(
                        self.path_edges
                            .iter()
                            .all(|&pe| corridor.is_alive(pe as usize)),
                        "witness path has a dead edge: a kill was not paired with note_kill"
                    );
                    scratch.counters.shortcut_hits += 1;
                    return true;
                }
                return self.resolve_stale(corridor, e, scratch);
            }
        }
        self.recompute(corridor, e, scratch);
        self.connected && !self.has(e, SEP)
    }

    /// Settles a stale query the O(1) shortcuts could not answer — the
    /// witness path broke (possibly in several places, if a burst of
    /// deletions ran along the old route) or the query is about a path
    /// edge — with one component-scoped BFS around `e`, never a full
    /// bridge recompute:
    ///
    /// * BFS reaches the far terminal → that fresh path (which avoids `e`
    ///   and heals every accumulated break at once) proves the verdict
    ///   `true` and re-arms the O(1) shortcut.
    /// * BFS fails but the installed path is intact → the path itself
    ///   proves the terminals connected while the BFS proves no terminal
    ///   path avoids `e`: verdict `false`, `e` is learned separating
    ///   (monotone) without a second pass.
    /// * BFS fails with a broken path → one unrestricted BFS decides
    ///   between "`e` separating" (install the found path, learn `SEP`)
    ///   and "pair disconnected" (monotone `false` forever).
    fn resolve_stale(
        &mut self,
        corridor: &Corridor,
        e: usize,
        scratch: &mut ConnectivityScratch,
    ) -> bool {
        let (t1, t2) = corridor.terminals();
        scratch.ensure_capacity(corridor.num_regions(), corridor.num_edges());
        scratch.counters.repairs += 1;
        if scratch.bfs_path(corridor, t1, t2, e as u32) {
            self.install_path(corridor, scratch);
            return true;
        }
        if self.path_intact {
            // Intact path ⇒ connected; failed BFS ⇒ nothing avoids `e`.
            debug_assert!(
                self.has(e, ON_PATH),
                "off-path intact queries hit the shortcut"
            );
            self.flags[e] |= SEP;
            return false;
        }
        if scratch.bfs_path(corridor, t1, t2, NONE) {
            self.install_path(corridor, scratch);
            self.flags[e] |= SEP;
        } else {
            self.connected = false;
            self.clear_path();
            self.path_intact = false;
        }
        false
    }

    /// Installs the BFS parent chain `t1 → t2` from `scratch` as the new
    /// witness path, replacing the previous one. Every path edge that is
    /// a known (monotone) bridge is flagged separating in bulk: the path
    /// is fully alive right now, so each bridge on it separates the
    /// terminals — valid after a fresh Tarjan pass *and* after a repair
    /// whose bridge knowledge is older than the path.
    fn install_path(&mut self, corridor: &Corridor, scratch: &ConnectivityScratch) {
        self.clear_path();
        let (t1, t2) = corridor.terminals();
        let mut r = t2;
        while r != t1 {
            let pe = scratch.bfs_parent[r as usize];
            let (a, b, _) = corridor.edge(pe as usize);
            let flags = &mut self.flags[pe as usize];
            *flags |= ON_PATH;
            if *flags & BRIDGE != 0 {
                *flags |= SEP;
            }
            self.path_edges.push(pe);
            r = if a == r { b } else { a };
        }
        self.path_intact = true;
    }

    /// One component-scoped O(V_c + E_c) pass: Tarjan bridges of the
    /// terminal component (over the alive adjacency — dead edges and
    /// foreign components are never visited), BFS witness path (routed
    /// around `queried` when possible, so the kill that typically follows
    /// a `true` answer keeps the path intact), separating-edge flags for
    /// every bridge on the path. Runs on the first query of a corridor
    /// (seeding the monotone bridge set) and on the unpaired-kill
    /// contract-violation fallback; every later stale query is settled by
    /// [`Self::resolve_stale`]'s BFS passes instead.
    fn recompute(
        &mut self,
        corridor: &Corridor,
        queried: usize,
        scratch: &mut ConnectivityScratch,
    ) {
        scratch.counters.recomputes += 1;
        let (t1, t2) = corridor.terminals();
        let num_edges = corridor.num_edges();
        scratch.prepare(corridor.num_regions(), num_edges);
        if self.flags.len() < num_edges {
            self.flags.resize(num_edges, 0);
        }
        scratch.dfs_bridges(corridor, t1);
        // Fold the fresh bridges into the monotone set (never cleared:
        // deletion cannot un-bridge an edge).
        for &be in &scratch.bridge_set {
            self.flags[be as usize] |= BRIDGE;
        }
        self.connected = scratch.visit[t2 as usize] == scratch.epoch;
        if self.connected {
            // Prefer a witness path that avoids the queried edge; fall
            // back to any path when the queried edge is on every one
            // (i.e. it separates the terminals).
            let reached = scratch.bfs_path(corridor, t1, t2, queried as u32)
                || scratch.bfs_path(corridor, t1, t2, NONE);
            debug_assert!(reached, "BFS and DFS must agree on reachability");
            // Walk the BFS parents back from t2: a bridge on this (simple)
            // path separates the terminals; a separating edge must lie on
            // every terminal path, so this path finds them all.
            self.install_path(corridor, scratch);
        } else {
            self.clear_path();
            self.path_intact = false;
        }
        self.revision = corridor.revision();
        self.noted_kills = 0;
        self.valid = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsino_grid::geom::{Point, Rect};
    use gsino_grid::region::RegionGrid;
    use gsino_grid::tech::Technology;

    fn grid() -> RegionGrid {
        let die = Rect::new(Point::new(0.0, 0.0), Point::new(640.0, 640.0)).unwrap();
        RegionGrid::from_die(die, &Technology::itrs_100nm(), 64.0).unwrap()
    }

    /// Every query agrees with the BFS reference across a full ID-style
    /// deletion sequence on a small corridor.
    #[test]
    fn agrees_with_bfs_through_deletion_sequence() {
        let g = grid();
        let mut c = Corridor::new(&g, g.idx(1, 1), g.idx(4, 3), 1);
        let mut cache = BridgeCache::new();
        let mut scratch = ConnectivityScratch::new();
        let mut bfs = super::super::corridor::CorridorScratch::new();
        // Deterministic pseudo-random deletion order.
        let mut state = 0x9e3779b9u64;
        loop {
            let mut progressed = false;
            for _ in 0..c.num_edges() {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let e = (state >> 33) as usize % c.num_edges();
                let fast = cache.connected_without(&c, e, &mut scratch);
                let slow = c.connected_without(e, &mut bfs);
                assert_eq!(fast, slow, "edge {e} disagrees");
                if fast && c.is_alive(e) {
                    c.kill(e);
                    cache.note_kill(e);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        // Terminals must still be connected at the end.
        assert!(
            cache.connected_without(&c, c.num_edges() - 1, &mut scratch) || {
                let (t1, t2) = c.terminals();
                t1 == t2
            }
        );
    }

    #[test]
    fn single_bridge_is_not_deletable() {
        let g = grid();
        let c = Corridor::new(&g, g.idx(0, 0), g.idx(1, 0), 0);
        let mut cache = BridgeCache::new();
        let mut scratch = ConnectivityScratch::new();
        assert!(!cache.connected_without(&c, 0, &mut scratch));
    }

    #[test]
    fn cycle_edges_are_deletable_in_o1_after_one_pass() {
        let g = grid();
        let c = Corridor::new(&g, g.idx(0, 0), g.idx(1, 1), 0);
        let mut cache = BridgeCache::new();
        let mut scratch = ConnectivityScratch::new();
        for e in 0..4 {
            assert!(cache.connected_without(&c, e, &mut scratch), "edge {e}");
        }
        assert_eq!(
            scratch.counters.recomputes, 1,
            "one pass serves all queries"
        );
    }

    #[test]
    fn disconnected_terminals_answer_false_for_every_edge() {
        let g = grid();
        // 3x1 corridor: 0 -e0- 1 -e1- 2, terminals at the ends.
        let mut c = Corridor::new(&g, g.idx(0, 0), g.idx(2, 0), 0);
        assert_eq!(c.num_edges(), 2);
        let mut cache = BridgeCache::new();
        let mut scratch = ConnectivityScratch::new();
        assert!(!cache.connected_without(&c, 0, &mut scratch));
        assert!(!cache.connected_without(&c, 1, &mut scratch));
        // Force-disconnect (never happens in the ID loop, which only kills
        // deletable edges — but the public API must stay truthful).
        c.kill(1);
        cache.note_kill(1);
        for e in 0..2 {
            assert!(
                !cache.connected_without(&c, e, &mut scratch),
                "already-disconnected corridor must report false for edge {e}"
            );
        }
    }

    /// An unpaired `Corridor::kill` (contract violation) must cost a
    /// recompute, never a stale answer: the revision arithmetic rejects
    /// the intact-path shortcut and the localized repair when kills were
    /// not reported.
    #[test]
    fn unpaired_kill_degrades_to_recompute_not_stale_answer() {
        let g = grid();
        // 2x2 cycle corridor between diagonal terminals.
        let mut c = Corridor::new(&g, g.idx(0, 0), g.idx(1, 1), 0);
        let mut cache = BridgeCache::new();
        let mut scratch = ConnectivityScratch::new();
        let mut bfs = super::super::corridor::CorridorScratch::new();
        assert!(cache.connected_without(&c, 0, &mut scratch));
        // Kill WITHOUT note_kill — possibly a witness-path edge.
        for e in 0..c.num_edges() {
            if c.is_alive(e) {
                c.kill(e);
                break;
            }
        }
        for e in 0..c.num_edges() {
            let fast = cache.connected_without(&c, e, &mut scratch);
            let slow = c.connected_without(e, &mut bfs);
            assert_eq!(fast, slow, "edge {e} stale after unpaired kill");
        }
    }

    #[test]
    fn stale_shortcut_skips_recomputes_for_off_path_edges() {
        let g = grid();
        // A wide corridor: killing far-apart cycle edges must not force a
        // recompute each time.
        let c = Corridor::new(&g, g.idx(0, 0), g.idx(5, 3), 1);
        let mut cache = BridgeCache::new();
        let mut scratch = ConnectivityScratch::new();
        let mut c = c;
        let mut kills = 0;
        for e in 0..c.num_edges() {
            if cache.connected_without(&c, e, &mut scratch) {
                c.kill(e);
                cache.note_kill(e);
                kills += 1;
            }
            if kills >= 8 {
                break;
            }
        }
        assert!(kills >= 8);
        assert!(
            scratch.counters.recomputes < kills,
            "expected fewer recomputes ({}) than kills ({kills})",
            scratch.counters.recomputes
        );
    }

    /// A burst of deletions along the witness path is healed by ONE
    /// localized repair at the next query, not one recompute per hit.
    #[test]
    fn path_kill_burst_heals_with_one_repair() {
        let g = grid();
        let mut c = Corridor::new(&g, g.idx(0, 0), g.idx(5, 0), 1);
        let mut cache = BridgeCache::new();
        let mut scratch = ConnectivityScratch::new();
        let mut bfs = super::super::corridor::CorridorScratch::new();
        // Seed the analysis (the verdict itself is irrelevant here).
        let _ = cache.connected_without(&c, 0, &mut scratch);
        assert_eq!(scratch.counters.recomputes, 1);
        // Kill two edges of the installed witness path back to back (a
        // same-route deletion burst), properly paired with note_kill.
        let burst: Vec<u32> = cache.path_edges.iter().copied().take(2).collect();
        assert_eq!(burst.len(), 2, "witness path long enough for a burst");
        for &pe in &burst {
            c.kill(pe as usize);
            cache.note_kill(pe as usize);
        }
        assert!(!cache.path_intact, "burst must break the path");
        // Query an edge that is alive and off the (old) path: exactly one
        // repair, zero additional recomputes.
        let probe = (0..c.num_edges())
            .find(|&e| c.is_alive(e) && !cache.has(e, ON_PATH))
            .expect("an off-path alive edge exists");
        let fast = cache.connected_without(&c, probe, &mut scratch);
        assert_eq!(fast, c.connected_without(probe, &mut bfs));
        assert!(fast, "wide corridor stays connected without one edge");
        assert_eq!(scratch.counters.repairs, 1, "one repair heals the burst");
        assert_eq!(scratch.counters.recomputes, 1, "no second full recompute");
        assert!(cache.path_intact, "repair re-arms the O(1) shortcut");
        // The very next off-path query rides the repaired path in O(1).
        let probe2 = (0..c.num_edges())
            .find(|&e| c.is_alive(e) && !cache.has(e, ON_PATH))
            .expect("an off-path alive edge exists");
        let before = scratch.counters.shortcut_hits;
        assert!(cache.connected_without(&c, probe2, &mut scratch));
        assert_eq!(scratch.counters.shortcut_hits, before + 1);
    }

    /// A failed repair (the queried edge became separating while the
    /// cache was stale) is settled locally — the BFS that failed to avoid
    /// the edge doubles as the separation proof — and still answers
    /// exactly like the BFS oracle.
    #[test]
    fn failed_repair_learns_separating_edges() {
        let g = grid();
        // 3x2 corridor between far corners: two rows of a ladder.
        let mut c = Corridor::new(&g, g.idx(0, 0), g.idx(2, 1), 0);
        let mut cache = BridgeCache::new();
        let mut scratch = ConnectivityScratch::new();
        let mut bfs = super::super::corridor::CorridorScratch::new();
        // Whittle the corridor down until only one terminal path is left,
        // keeping the cache honest throughout.
        loop {
            let mut killed = false;
            for e in 0..c.num_edges() {
                if c.is_alive(e) && cache.connected_without(&c, e, &mut scratch) {
                    c.kill(e);
                    cache.note_kill(e);
                    killed = true;
                    break;
                }
            }
            if !killed {
                break;
            }
        }
        // Every surviving edge is now separating; the oracle must agree.
        for e in 0..c.num_edges() {
            if c.is_alive(e) {
                assert!(!cache.connected_without(&c, e, &mut scratch));
                assert!(!c.connected_without(e, &mut bfs));
            }
        }
    }
}

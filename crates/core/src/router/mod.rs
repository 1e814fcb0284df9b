//! Phase I global routers: iterative deletion and sequential A*.
//!
//! Paper §3.1 and Fig. 1, following Cong–Preas: construct a connection
//! graph per net over the routing regions, then *iteratively delete the
//! maximum-weight edge* whose removal keeps the net connected, until every
//! graph is a tree. Because all nets' edges compete in one pool, the
//! result is independent of any net ordering — the property the paper
//! chose the ID algorithm for. The sequential A* router ([`AstarRouter`])
//! is the paper's §5 future-work alternative: faster, order-dependent.
//!
//! Multi-pin nets are decomposed into two-pin connections along their
//! Steiner topology first (see [`gsino_steiner::decompose`]); each
//! connection's graph is its corridor — the bounding box of its endpoints
//! plus a one-region halo.
//!
//! # The flat-array search core
//!
//! Routing regions live in a small dense index space (`RegionIdx` is
//! `cy·nx + cx`), so all per-search state is kept in flat arrays indexed
//! by region rather than hash maps — the same layout STAIRoute and the
//! multicommodity-flow routers use. The pieces:
//!
//! * [`SearchScratch`] — reusable A* state: `g`/`prev` arrays stamped with
//!   a search *epoch* (reset is an O(1) counter bump; an entry is live
//!   only if its stamp equals the current epoch) plus a monotone bucket
//!   heap binned by quantized f-cost whose pop order is exactly
//!   `(f, region)` — byte-compatible with the seed's `BinaryHeap`.
//! * `assemble` — shared route-tree assembly over epoch-stamped CSR
//!   adjacency with an O(E) worklist pruner (the seed rebuilt `HashMap`s
//!   per net and pruned leaves in O(E²)).
//! * [`gsino_grid::region::RegionGrid::neighbor_array`] — fixed
//!   `[Option<RegionIdx>; 4]` neighbor lookup, no boxed iterators in the
//!   expansion loop.
//! * [`connectivity`] — incremental corridor connectivity for the ID
//!   router: one Tarjan low-link pass per corridor revision caches every
//!   bridge, so the per-deletion "do the terminals survive?" query is an
//!   O(1) lookup (plus an intact-witness-path shortcut that answers most
//!   stale queries without recomputing). See
//!   `crates/core/src/router/README.md` for the epoch/revision contract.
//! * [`mod@reference`] — the seed A* implementation and the PR-1 BFS-based ID
//!   implementation, kept verbatim so tests and benches can prove
//!   equivalence and measure the speedup.

mod assemble;
mod astar;
pub mod connectivity;
mod corridor;
mod id;
pub mod reference;
mod scratch;

pub use astar::AstarRouter;
pub use connectivity::{BridgeCache, ConnectivityCounters, ConnectivityScratch};
pub use corridor::{Corridor, CorridorScratch};
pub use id::{route_all, IdRouter, RouterStats};
pub use scratch::{SearchCounters, SearchScratch, Unreachable};

use gsino_sino::nss::NssModel;
use serde::{Deserialize, Serialize};

/// The weight constants of Formula (2): `w = α·f(WL) + β·HD + γ·HOFR`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Weights {
    /// Wire-length coefficient (paper: 2).
    pub alpha: f64,
    /// Density coefficient (paper: 1).
    pub beta: f64,
    /// Overflow coefficient (paper: 50, "much larger than α and β so that
    /// virtually no overflow is allowed").
    pub gamma: f64,
}

impl Default for Weights {
    fn default() -> Self {
        Weights {
            alpha: 2.0,
            beta: 1.0,
            gamma: 50.0,
        }
    }
}

/// Shield-awareness of the router's utilization term.
///
/// GSINO's Phase I includes the estimated shield count `Nss` (Formula (3))
/// in the utilization `HU = Nns + Nss`; the ID+NO and iSINO baselines omit
/// it (paper §4: "no shielding area reservation or minimization").
#[derive(Debug, Clone, PartialEq)]
pub enum ShieldTerm {
    /// Baselines: `HU = Nns`.
    None,
    /// GSINO: `HU = Nns + Nss(Nns, S)` with local sensitivities
    /// approximated by the global sensitivity `rate` during routing.
    Estimated {
        /// The fitted Formula (3) model.
        model: NssModel,
        /// The circuit's sensitivity rate (the expected `Sᵢ`).
        rate: f64,
    },
}

impl ShieldTerm {
    /// Estimated shields for a region currently holding `nns` (expected)
    /// segments.
    pub fn shields(&self, nns: f64) -> f64 {
        match self {
            ShieldTerm::None => 0.0,
            ShieldTerm::Estimated { model, rate } => {
                model.estimate_continuous(nns, nns * rate, nns * rate * rate)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_weights_match_paper() {
        let w = Weights::default();
        assert_eq!((w.alpha, w.beta, w.gamma), (2.0, 1.0, 50.0));
    }

    #[test]
    fn shield_term_none_is_zero() {
        assert_eq!(ShieldTerm::None.shields(100.0), 0.0);
    }

    #[test]
    fn shield_term_estimates_grow_with_occupancy() {
        let model = NssModel::from_coefficients([0.5, 0.0, 0.5, 0.0, 0.05, 0.0], 0.5);
        let term = ShieldTerm::Estimated { model, rate: 0.5 };
        assert!(term.shields(20.0) > term.shields(5.0));
        assert_eq!(term.shields(0.0), 0.0);
        assert_eq!(term.shields(1.5), 0.0);
    }
}

//! Simultaneous shield insertion and net ordering (SINO) within one routing
//! region — the Phase II engine of the paper and the substrate its Phase I
//! and III lean on.
//!
//! The SINO problem (He–Lepak, ISPD 2000 — the paper's reference \[4\]) takes
//! the net segments crossing a region in one direction and asks for a track
//! assignment (an ordering) plus inserted shields such that:
//!
//! * **capacitive freedom** — no two mutually sensitive segments sit on
//!   adjacent tracks, and
//! * **inductive bound** — every segment's total coupling `Kᵢ = Σⱼ Kᵢⱼ`
//!   stays below its budget `Kth(i)`,
//!
//! with as few tracks (area) as possible. The modules:
//!
//! * [`instance`] — a SINO problem: segments, budgets, pairwise sensitivity;
//! * [`layout`] — a candidate solution: an ordered sequence of signal and
//!   shield tracks;
//! * [`keff`] — the block-based Keff coupling model and solution evaluation;
//! * [`delta`] — the incremental evaluation engine: single-track edits mark
//!   the affected blocks stale, and a read recomputes only those, with
//!   bit-identical values to a from-scratch [`keff::evaluate`];
//! * [`greedy`] — constructive solver (order + shield insertion + compaction),
//!   scoring candidates through [`delta::DeltaEval`];
//! * [`solver`] — the user-facing facade: the greedy solver every phase
//!   runs, with validation;
//! * [`anneal`] — simulated-annealing polish (apply/undo moves, no clones),
//!   run only by the `sino_solvers` ablation;
//! * [`warm`] — the warm-start budget check: certifies that a slack budget
//!   change cannot move the solver output, so callers may skip re-solving;
//! * [`mod@reference`] — the seed clone-and-reevaluate solvers, preserved
//!   verbatim as the bit-identical correctness/performance baseline;
//! * [`nss`] — the paper's Formula (3): the fitted 6-term shield-count
//!   estimator used inside the global router's weight function.
//!
//! See `crates/sino/README.md` for the delta-evaluation contract (what each
//! move invalidates, determinism guarantees).
//!
//! # Example
//!
//! ```
//! use gsino_grid::SensitivityModel;
//! use gsino_sino::instance::{SegmentSpec, SinoInstance};
//! use gsino_sino::solver::SinoSolver;
//!
//! # fn main() -> Result<(), gsino_sino::SinoError> {
//! let segs: Vec<SegmentSpec> =
//!     (0..8).map(|i| SegmentSpec { net: i, kth: 0.6 }).collect();
//! let inst = SinoInstance::from_model(segs, &SensitivityModel::new(0.5, 7))?;
//! let solution = SinoSolver.solve(&inst)?;
//! let eval = gsino_sino::keff::evaluate(&inst, &solution);
//! assert!(eval.feasible);
//! # Ok(())
//! # }
//! ```
//!
//! # Architecture
//!
//! The pipeline-wide map — which phase this crate serves and the
//! incremental-engine contracts shared across the workspace — lives in
//! `ARCHITECTURE.md` at the repository root.

pub mod anneal;
pub mod delta;
pub mod exact;
pub mod greedy;
pub mod instance;
pub mod keff;
pub mod layout;
pub mod nss;
pub mod reference;
pub mod solver;
pub mod warm;

pub use delta::DeltaEval;
pub use instance::{SegmentSpec, SinoInstance};
pub use keff::{evaluate, Evaluation};
pub use layout::{Layout, Slot};
pub use nss::NssModel;
pub use solver::{SinoSolver, SolverConfig};

use std::error::Error;
use std::fmt;

/// Errors produced by SINO construction and solving.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SinoError {
    /// A segment with a non-positive or non-finite inductive budget.
    BadBudget {
        /// Segment index.
        segment: usize,
        /// The offending `Kth`.
        kth: f64,
    },
    /// A layout that does not contain every segment exactly once.
    MalformedLayout {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// Fitting Formula (3) failed (degenerate sample set).
    FitFailed(gsino_numeric::NumericError),
}

impl fmt::Display for SinoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SinoError::BadBudget { segment, kth } => {
                write!(f, "segment {segment} has invalid Kth {kth}")
            }
            SinoError::MalformedLayout { reason } => write!(f, "malformed layout: {reason}"),
            SinoError::FitFailed(e) => write!(f, "shield-model fit failed: {e}"),
        }
    }
}

impl Error for SinoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SinoError::FitFailed(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gsino_numeric::NumericError> for SinoError {
    fn from(e: gsino_numeric::NumericError) -> Self {
        SinoError::FitFailed(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T, E = SinoError> = std::result::Result<T, E>;

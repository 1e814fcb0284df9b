//! Coupled-RLC interconnect transient simulation — the SPICE substitute.
//!
//! The paper builds and verifies its LSK noise model with SPICE simulations
//! of SINO solutions (§2.2). SPICE is not available here, so this crate
//! implements the same experiment from first principles:
//!
//! * [`partial`] — Grover/Ruehli partial self- and mutual-inductance
//!   formulas for rectangular on-chip conductors;
//! * [`netlist`] — a small circuit description (R, C, L, mutual K, ramp
//!   voltage sources) with validation;
//! * [`mna`] — modified nodal analysis assembly (`C ẋ + G x = b(t)`);
//! * [`sim`] — trapezoidal-rule transient integration with probes;
//! * [`coupled`] — construction of the coupled-line block circuit for a
//!   SINO track layout (aggressors, victim, quiet wires and grounded
//!   shields), using the ITRS 0.10 µm parameters of
//!   [`gsino_grid::tech::Technology`];
//! * [`noise`] — the recorded metric: peak noise at the victim's far end
//!   while aggressors switch.
//!
//! # Example
//!
//! ```
//! use gsino_grid::tech::Technology;
//! use gsino_rlc::coupled::{BlockSpec, WireRole};
//! use gsino_rlc::noise::peak_noise;
//!
//! # fn main() -> Result<(), gsino_rlc::RlcError> {
//! // A victim flanked by two rising aggressors, 1 mm of parallel run.
//! let spec = BlockSpec::new(
//!     vec![WireRole::AggressorRising, WireRole::Victim, WireRole::AggressorRising],
//!     1000.0,
//!     &Technology::itrs_100nm(),
//! )?;
//! let noise = peak_noise(&spec)?;
//! assert!(noise > 0.0 && noise < 1.05);
//! # Ok(())
//! # }
//! ```
//!
//! # Architecture
//!
//! The pipeline-wide map — which phase this crate serves and the
//! incremental-engine contracts shared across the workspace — lives in
//! `ARCHITECTURE.md` at the repository root.

pub mod coupled;
pub mod delay;
pub mod mna;
pub mod netlist;
pub mod noise;
pub mod partial;
pub mod sim;

pub use coupled::{BlockSpec, WireRole};
pub use netlist::{Netlist, Waveform};
pub use noise::peak_noise;
pub use sim::{TransientResult, TransientSim};

use std::error::Error;
use std::fmt;

/// Errors produced by circuit construction and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RlcError {
    /// A circuit element referenced a node beyond the declared count.
    NodeOutOfRange {
        /// Offending node id.
        node: usize,
        /// Declared number of non-ground nodes.
        num_nodes: usize,
    },
    /// A non-positive resistance, inductance or negative capacitance.
    BadElementValue {
        /// Element kind.
        kind: &'static str,
        /// Offending value.
        value: f64,
    },
    /// Mutual inductance violating passivity (`M² > L₁·L₂`).
    NonPassiveMutual {
        /// Branch indices.
        pair: (usize, usize),
    },
    /// A mutual coupling referencing an unknown inductor branch.
    InductorOutOfRange {
        /// Offending inductor index.
        index: usize,
        /// Number of inductors.
        count: usize,
    },
    /// Simulation parameters out of range (step or stop time non-positive).
    BadTimeStep {
        /// Step size requested.
        step: f64,
        /// Stop time requested.
        stop: f64,
    },
    /// A probe node outside the circuit.
    BadProbe {
        /// Offending probe node.
        node: usize,
    },
    /// Block construction errors (no victim, empty wire list, bad length).
    BadBlock {
        /// Human-readable reason.
        reason: &'static str,
    },
    /// The MNA matrix could not be factored.
    Numeric(gsino_numeric::NumericError),
}

impl fmt::Display for RlcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RlcError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (have {num_nodes})")
            }
            RlcError::BadElementValue { kind, value } => {
                write!(f, "invalid {kind} value {value}")
            }
            RlcError::NonPassiveMutual { pair } => {
                write!(
                    f,
                    "mutual inductance between branches {pair:?} violates passivity"
                )
            }
            RlcError::InductorOutOfRange { index, count } => {
                write!(f, "inductor index {index} out of range (have {count})")
            }
            RlcError::BadTimeStep { step, stop } => {
                write!(f, "invalid transient window: step {step}, stop {stop}")
            }
            RlcError::BadProbe { node } => write!(f, "probe node {node} out of range"),
            RlcError::BadBlock { reason } => write!(f, "invalid block: {reason}"),
            RlcError::Numeric(e) => write!(f, "numeric failure: {e}"),
        }
    }
}

impl Error for RlcError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RlcError::Numeric(e) => Some(e),
            _ => None,
        }
    }
}

impl From<gsino_numeric::NumericError> for RlcError {
    fn from(e: gsino_numeric::NumericError) -> Self {
        RlcError::Numeric(e)
    }
}

/// Convenience alias for results in this crate.
pub type Result<T, E = RlcError> = std::result::Result<T, E>;

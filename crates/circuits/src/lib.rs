//! Synthetic ISPD'98/IBM-like benchmark circuits and the experiment
//! harness that regenerates the paper's tables.
//!
//! The original ISPD'98 netlists and their DRAGON placements are not
//! available offline, so [`generator`] synthesizes circuits calibrated to
//! the published observables the experiments depend on (see [`spec`]):
//! the die dimensions of Table 3's ID+NO row, the average wire lengths of
//! Table 2's ID+NO column, a 2-pin-dominated pin-count distribution, and a
//! net count sized so the paper's single over-the-cell layer pair runs at
//! a realistic track density ([`spec::TARGET_DENSITY`], 70% before
//! shields).
//!
//! [`experiment`] runs the ID+NO / iSINO / GSINO flows across the suite
//! and renders the paper's three tables plus the derived observations.
//!
//! # Example
//!
//! ```no_run
//! use gsino_circuits::spec::CircuitSpec;
//! use gsino_circuits::generator::generate;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let spec = CircuitSpec::ibm01().scaled(0.1);
//! let circuit = generate(&spec, 42)?;
//! assert_eq!(circuit.num_nets(), spec.num_nets);
//! # Ok(())
//! # }
//! ```
//!
//! # Architecture
//!
//! The pipeline-wide map — which phase this crate serves and the
//! incremental-engine contracts shared across the workspace — lives in
//! `ARCHITECTURE.md` at the repository root.

pub mod experiment;
pub mod generator;
pub mod io;
pub mod spec;

pub use experiment::{ExperimentConfig, SuiteResults};
pub use generator::{circuit_digest, generate, generate_scaled, generate_with, ScaleSpec};
pub use io::{
    load_workload, parse_workload, parse_workload_str, save_workload, write_workload, ParseError,
    Workload,
};
pub use spec::CircuitSpec;

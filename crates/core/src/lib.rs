//! # fedopt-core
//!
//! The primary contribution of *"Joint Optimization of Energy Consumption and Completion Time
//! in Federated Learning"* (ICDCS 2022): a resource-allocation algorithm that picks every
//! device's transmit power, CPU frequency and FDMA bandwidth share to minimize the weighted
//! sum `w1·E + w2·R_g·T` of total energy and total completion time.
//!
//! The solver follows the paper's decomposition:
//!
//! * [`sp1`] — Subproblem 1 (frequencies + round time): convex, solved directly and through
//!   the paper's Lagrangian dual (17).
//! * [`sp2`] — Subproblem 2 (powers + bandwidths): a sum-of-ratios problem, solved exactly
//!   by one bandwidth price by default, or with the paper's Newton-like parametric method
//!   (its Algorithm 1) whose inner problem is the Theorem-2 KKT system.
//! * [`alg2`] — Algorithm 2: the alternating outer loop, the deadline-constrained variant
//!   used by Figures 7–8, and the pure delay-minimization path.
//!
//! Each layer has one entry point, which borrows a [`SolverWorkspace`] and allocates nothing
//! in steady state: `sp1::solve_direct_with_arrays_in`, `sp2::solve_with_arrays_in` (over
//! `sp2::kkt::solve_parametric_into` and `sp2::reference::solve_reference_into`), and
//! [`JointOptimizer::solve_summary_with`] / [`JointOptimizer::solve_with_deadline_summary_in`].
//! [`JointOptimizer::solve`] and [`JointOptimizer::solve_with_deadline`] wrap the last two in
//! a fresh workspace and return an owned [`Outcome`].
//!
//! ## Example
//!
//! ```rust
//! use fedopt_core::{JointOptimizer, SolverConfig};
//! use flsys::{ScenarioBuilder, Weights};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let scenario = ScenarioBuilder::paper_default().with_devices(10).build(1)?;
//! let optimizer = JointOptimizer::new(SolverConfig::fast());
//! let outcome = optimizer.solve(&scenario, Weights::new(0.5, 0.5)?)?;
//! assert!(outcome.allocation.is_feasible(&scenario, 1e-5));
//! println!("energy {:.1} J, time {:.1} s", outcome.total_energy_j, outcome.total_time_s);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alg2;
pub mod config;
pub mod error;
pub mod sp1;
pub mod sp2;
pub mod trace;
pub mod workspace;

pub use alg2::{JointOptimizer, Outcome, OutcomeSummary};
pub use config::SolverConfig;
pub use error::CoreError;
pub use sp2::kkt::KktScratch;
pub use sp2::{Sp2Scratch, Sp2Summary};
pub use trace::{OuterIteration, SolveCounters, Trace};
pub use workspace::SolverWorkspace;

// Re-exported so downstream users can write `fedopt_core::Weights` without importing `flsys`.
pub use flsys::Weights;

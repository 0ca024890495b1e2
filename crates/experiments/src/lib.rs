//! # experiments
//!
//! The reproduction harness for the evaluation section (Section VII) of the ICDCS 2022 paper.
//!
//! The blessed entry point is the **declarative spec API**: an experiment is a
//! serializable [`spec::ExperimentSpec`] (axis + scenario template + arms + seed policy +
//! solver/engine options + reports) — the seven figures are just preset spec values in
//! [`presets`], the single `fedopt` binary ([`cli`]) runs any spec from a figure number or
//! a JSON file, and [`engine::SweepEngine::run_spec`] compiles a spec onto the imperative
//! [`engine::SweepGrid`] machinery. Because specs are data (lossless JSON round trip,
//! byte-stable serialization), a sweep can be received over a wire, cached, diffed,
//! replayed, and sharded — a shard is a spec plus a seed range.
//!
//! Every scheme the figures compare is one [`spec::ArmKind`] variant, and the spec's
//! [`spec::ArmSpec`] is itself the arm: [`arms`] holds the one scheme match,
//! [`spec::ArmKind::evaluate`], which sweep cells and `fedopt serve` requests both call
//! with one resolved `SolverConfig`.
//!
//! All sweeps evaluate through the same substrate: a declarative [`engine::SweepGrid`]
//! (sweep points × arms × scenario seeds, plus the base solver configuration) evaluated
//! by the parallel [`engine::SweepEngine`] across threads in chunks of (point, seed)
//! cell-groups — one scenario build shared by every arm of the group, one reusable
//! [`SolverWorkspace`](fedopt_core::SolverWorkspace) per worker thread, per-(point, arm)
//! results folded by the streaming reduction — with deterministic, thread-count-independent
//! output (see the [`engine`] module docs for the cell-group architecture and the seeding
//! scheme).
//!
//! | preset | paper figure | sweep |
//! |---|---|---|
//! | [`presets::fig2`] | Fig. 2a/2b | energy & delay vs maximum transmit power, five weight pairs + benchmark |
//! | [`presets::fig3`] | Fig. 3a/3b | energy & delay vs maximum CPU frequency, five weight pairs + benchmark |
//! | [`presets::fig4`] | Fig. 4a/4b | energy & delay vs number of devices (total samples fixed) |
//! | [`presets::fig5`] | Fig. 5a/5b | energy & delay vs cell radius for N ∈ {20, 50, 80} |
//! | [`presets::fig6`] | Fig. 6a/6b | energy & delay vs local iterations for R_g ∈ {50…400} |
//! | [`presets::fig7`] | Fig. 7 | energy vs completion-time deadline: joint vs comm-only vs comp-only |
//! | [`presets::fig8`] | Fig. 8 | energy vs maximum transmit power at fixed deadlines: proposed vs Scheme 1 |
//!
//! ```rust
//! use experiments::presets::{self, Variant};
//! use experiments::SweepEngine;
//!
//! # fn main() -> Result<(), experiments::SpecError> {
//! let mut spec = presets::fig7(Variant::Quick);
//! spec.scenario.devices = Some(6); // keep the doctest fast
//! spec.axis.values = vec![110.0, 150.0];
//! let run = spec.run_with_engine(&SweepEngine::single_thread())?;
//! assert_eq!(run.reports[0].series_names().len(), 3);
//! println!("{}", run.reports[0].to_table_string());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arms;
pub mod cli;
pub mod engine;
pub mod fault;
pub mod json;
pub mod presets;
pub mod report;
pub mod rounds;
pub mod serve;
pub mod shard;
pub mod spec;

pub use engine::{Aggregate, SweepCounters, SweepEngine, SweepGrid, SweepResult};
pub use report::FigureReport;
pub use rounds::RoundSimRun;
pub use shard::{FleetOptions, FleetStats, ShardCache, ShardError, ShardResult};
pub use spec::{ExperimentSpec, SpecError, SpecRun};

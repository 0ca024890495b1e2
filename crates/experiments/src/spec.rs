//! The declarative experiment API: a serializable [`ExperimentSpec`] describing one sweep.
//!
//! Every figure of the paper's evaluation — and any scenario beyond it — is one value of
//! this module: a named sweep **axis** with its values, a **scenario template** mapped
//! onto [`ScenarioBuilder`], a closed set of **arms** (every scheme the figures compare),
//! a **seed policy** (explicit list or a `start..start+count` range, with the
//! stream-seed derivation pinned by [`baselines::StreamDerivation`] name), **solver**
//! settings (preset plus tolerance overrides), **engine** options (threads, seed chunking,
//! warm start, fleet retries and timeouts), and the **reports** to render from the
//! evaluated grid.
//!
//! A spec is *data*: it serializes to JSON ([`ExperimentSpec::to_json_string`]) and back
//! ([`ExperimentSpec::from_json_str`]) losslessly, so a sweep description can be received
//! over a wire, cached, diffed, replayed, and sharded (a shard is a spec plus a seed
//! range). Running one compiles it — via [`ExperimentSpec::grid`] — onto the imperative
//! [`SweepGrid`] machinery, so the engine's scenario sharing, allocation-free hot path,
//! streaming reduction and warm-start continuation apply to every spec. The seven figure
//! presets' cold run documents are pinned byte for byte by the `cli_golden` integration
//! test.
//!
//! ```rust
//! use experiments::presets;
//! use experiments::SweepEngine;
//!
//! # fn main() -> Result<(), experiments::spec::SpecError> {
//! let mut spec = presets::spec(2, presets::Variant::Quick).expect("figure 2 exists");
//! spec.seeds.policy = experiments::spec::SeedPolicy::Range { start: 0, count: 1 };
//! spec.scenario.devices = Some(6); // keep the doctest fast
//!
//! // Lossless JSON round trip: the serialized form *is* the experiment.
//! let text = spec.to_json_string();
//! assert_eq!(experiments::spec::ExperimentSpec::from_json_str(&text)?, spec);
//!
//! let run = spec.run_with_engine(&SweepEngine::single_thread())?;
//! assert_eq!(run.reports.len(), 2); // fig2a (energy) and fig2b (delay)
//! # Ok(())
//! # }
//! ```
//!
//! # Wire format
//!
//! The JSON schema is versioned by the top-level `schema_version` field (currently
//! [`SCHEMA_VERSION`]). Each record type is described once, by the field table next to
//! it (`json_record!`, see [`crate::json`]): one row per key with its field and its
//! absent-rule. The table yields the writer — members in table order, unset optional
//! fields omitted — and the strict reader, which rejects other versions and unknown keys
//! by dotted path (typos fail loudly instead of silently changing the experiment). The
//! tagged unions [`ArmSpec`] and [`RoundPolicySpec`] and the `list`-or-`count`
//! [`SeedSpec`] are read by hand through the same reader. Floats use shortest-round-trip
//! formatting, so serialization is deterministic and byte-stable — see `examples/specs/`
//! for a committed example and the README for the annotated schema.

use crate::engine::{SweepEngine, SweepGrid, SweepResult};
use crate::json::{
    json_name, json_record, Field, Json, JsonError, Obj, Path, ReadError, MAX_EXACT_INT,
};
use crate::report::FigureReport;
use baselines::StreamDerivation;
use fedopt_core::{CoreError, SolverConfig};
use flsys::{ScenarioBuilder, Weights};
use serde::{Deserialize, Serialize};
use std::fmt;
use wireless::units::Hertz;

/// The wire-format version this module reads and writes.
pub const SCHEMA_VERSION: u64 = 1;

/// Most scenario seeds one spec may carry (10⁷ ≈ an 80 MB materialized seed vector).
/// Larger experiments must be sharded: a shard is the same spec with a seed sub-range
/// (`seeds.start`/`seeds.count`), so the cap bounds a *unit of work*, not the protocol.
/// `fedopt run --shards N` splits and runs one automatically; `fedopt shard split`
/// prints the shard specs (see [`crate::shard::split`]).
pub const MAX_SEEDS: u64 = 10_000_000;

/// Most devices one scenario may hold (10⁶). One solve at this count is feasible with the
/// struct-of-arrays hot path (seven `f64` lanes ≈ 56 MB plus the allocation buffers), but
/// a *sweep* over such scenarios is not a unit of work this crate schedules — past the
/// guardrail the spec layer fails loudly and points at the [`crate::presets::large_n`]
/// quick preset, which expresses the fleet-scale single-scenario experiment (few seeds,
/// the fast solver preset) instead of a paper-style grid. Mirrors the [`MAX_SEEDS`] cap: it
/// bounds a unit of work, not the protocol.
pub const MAX_DEVICES: usize = 1_000_000;

/// Why a spec could not be parsed, validated, compiled, or run.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// The input was not valid JSON.
    Json(JsonError),
    /// The JSON was well-formed but not a valid spec; `path` locates the offending field.
    Invalid {
        /// Dotted path of the field, e.g. `axis.values[2]`.
        path: String,
        /// What is wrong with it.
        message: String,
    },
    /// The compiled sweep failed while running.
    Sweep(CoreError),
}

impl SpecError {
    pub(crate) fn invalid(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self::Invalid { path: path.into(), message: message.into() }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Json(e) => write!(f, "spec is not valid JSON: {e}"),
            SpecError::Invalid { path, message } => {
                write!(f, "invalid spec at `{path}`: {message}")
            }
            SpecError::Sweep(e) => write!(f, "sweep failed: {e}"),
        }
    }
}

impl std::error::Error for SpecError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpecError::Json(e) => Some(e),
            SpecError::Sweep(e) => Some(e),
            SpecError::Invalid { .. } => None,
        }
    }
}

impl From<JsonError> for SpecError {
    fn from(e: JsonError) -> Self {
        SpecError::Json(e)
    }
}

impl From<CoreError> for SpecError {
    fn from(e: CoreError) -> Self {
        SpecError::Sweep(e)
    }
}

impl From<ReadError> for SpecError {
    fn from(e: ReadError) -> Self {
        SpecError::Invalid { path: e.path, message: e.message }
    }
}

/// Lets a table's `#[validate]` hook report through the reader (validation only ever
/// fails with [`SpecError::Invalid`]).
impl From<SpecError> for ReadError {
    fn from(e: SpecError) -> Self {
        match e {
            SpecError::Invalid { path, message } => ReadError { path, message },
            other => ReadError { path: String::new(), message: other.to_string() },
        }
    }
}

// ---------------------------------------------------------------------------
// Axis
// ---------------------------------------------------------------------------

/// Which scenario knob (or arm input) the sweep's x values drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AxisKind {
    /// Maximum transmit power in dBm (Figures 2 and 8).
    PMaxDbm,
    /// Maximum CPU frequency in GHz (Figure 3).
    FMaxGhz,
    /// Number of devices (Figure 4); values must be positive integers.
    Devices,
    /// Radius of the placement disc in kilometres (Figure 5).
    RadiusKm,
    /// Local iterations per global round (Figure 6); values must be positive integers.
    LocalIterations,
    /// Global aggregation rounds; values must be positive integers.
    GlobalRounds,
    /// Completion-time deadline in seconds (Figure 7). Leaves the scenario untouched —
    /// deadline-constrained arms read the x value directly.
    DeadlineS,
}

impl AxisKind {
    /// The stable wire name of this axis.
    pub const fn name(self) -> &'static str {
        match self {
            Self::PMaxDbm => "p_max_dbm",
            Self::FMaxGhz => "f_max_ghz",
            Self::Devices => "devices",
            Self::RadiusKm => "radius_km",
            Self::LocalIterations => "local_iterations",
            Self::GlobalRounds => "global_rounds",
            Self::DeadlineS => "deadline_s",
        }
    }

    /// Looks an axis up by its wire name.
    pub fn from_name(name: &str) -> Option<Self> {
        [
            Self::PMaxDbm,
            Self::FMaxGhz,
            Self::Devices,
            Self::RadiusKm,
            Self::LocalIterations,
            Self::GlobalRounds,
            Self::DeadlineS,
        ]
        .into_iter()
        .find(|k| k.name() == name)
    }

    /// Whether values on this axis must be positive integers.
    pub fn is_integer(self) -> bool {
        matches!(self, Self::Devices | Self::LocalIterations | Self::GlobalRounds)
    }

    fn check(self, x: f64, path: &Path<'_>) -> Result<(), SpecError> {
        if !x.is_finite() {
            return Err(SpecError::invalid(path.to_string(), "axis values must be finite"));
        }
        if self.is_integer() && (x.fract() != 0.0 || !(1.0..=4_294_967_295.0).contains(&x)) {
            return Err(SpecError::invalid(
                path.to_string(),
                format!("axis `{}` requires positive integer values, got {x}", self.name()),
            ));
        }
        if self == Self::Devices && x > MAX_DEVICES as f64 {
            return Err(SpecError::invalid(
                path.to_string(),
                format!(
                    "axis `devices` is capped at {MAX_DEVICES} devices per scenario (got {x}); \
                     fleet-scale experiments should start from the `large_n` quick preset \
                     (`experiments::presets::large_n`) and split the seed grid across \
                     workers with `fedopt run --shards N` or `fedopt shard split`, not \
                     grow a single sweep past the guardrail"
                ),
            ));
        }
        // dBm is a log scale (negative is meaningful); the physical magnitudes are not —
        // and a non-positive deadline would only produce silent all-infeasible rows,
        // while the equivalent fixed-deadline arm fails loudly.
        let must_be_positive = matches!(self, Self::FMaxGhz | Self::RadiusKm | Self::DeadlineS);
        if must_be_positive && x <= 0.0 {
            return Err(SpecError::invalid(
                path.to_string(),
                format!("axis `{}` requires strictly positive values, got {x}", self.name()),
            ));
        }
        Ok(())
    }

    /// Applies one axis value to a sweep point's scenario builder.
    pub(crate) fn apply(self, builder: ScenarioBuilder, x: f64) -> ScenarioBuilder {
        match self {
            Self::PMaxDbm => builder.with_p_max_dbm(x),
            Self::FMaxGhz => builder.with_f_max_ghz(x),
            Self::Devices => builder.with_devices(x as usize),
            Self::RadiusKm => builder.with_radius_km(x),
            Self::LocalIterations => builder.with_local_iterations(x as u32),
            Self::GlobalRounds => builder.with_global_rounds(x as u32),
            Self::DeadlineS => builder,
        }
    }
}

/// The sweep axis: which knob varies and the values it takes (the figure's x values).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AxisSpec {
    /// The swept knob.
    pub kind: AxisKind,
    /// The x values, in plot order.
    pub values: Vec<f64>,
}

json_name!(AxisKind, "axis name");

json_record! { AxisSpec {
    "name" => kind,
    "values" => values,
}}

// ---------------------------------------------------------------------------
// Scenario template / patch
// ---------------------------------------------------------------------------

/// A serializable patch over [`ScenarioBuilder::paper_default`]: every field is optional
/// and unset fields keep the paper's Section VII-A defaults.
///
/// Used twice: as the spec's scenario **template** (shared by every sweep point) and as a
/// per-arm **patch** ([`ArmSpec::scenario`], how Figures 5 and 6 express per-series
/// device counts and round counts).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Number of devices `N`.
    pub devices: Option<usize>,
    /// Radius of the placement disc in kilometres.
    pub radius_km: Option<f64>,
    /// Samples per device (mutually exclusive with [`Self::total_samples`]).
    pub samples_per_device: Option<u64>,
    /// Total samples split equally across devices (Figure 4's setting).
    pub total_samples: Option<u64>,
    /// Per-sample CPU-cycle range `[lo, hi]` from which `c_n` is drawn.
    pub cycles_per_sample: Option<(f64, f64)>,
    /// Upload payload `d_n` in bits.
    pub upload_bits: Option<f64>,
    /// Minimum transmit power in dBm.
    pub p_min_dbm: Option<f64>,
    /// Maximum transmit power in dBm.
    pub p_max_dbm: Option<f64>,
    /// Minimum CPU frequency in Hz.
    pub f_min_hz: Option<f64>,
    /// Maximum CPU frequency in GHz.
    pub f_max_ghz: Option<f64>,
    /// Global aggregation rounds `R_g`.
    pub global_rounds: Option<u32>,
    /// Local iterations per global round `R_l`.
    pub local_iterations: Option<u32>,
    /// Total uplink bandwidth `B` in Hz.
    pub total_bandwidth_hz: Option<f64>,
    /// Log-normal shadowing standard deviation in dB (`0` disables fading).
    pub shadowing_db: Option<f64>,
}

impl ScenarioSpec {
    /// Applies the patch to a builder (unset fields leave it unchanged).
    pub fn apply(&self, builder: ScenarioBuilder) -> ScenarioBuilder {
        type With<T> = fn(ScenarioBuilder, T) -> ScenarioBuilder;
        fn set<T>(b: ScenarioBuilder, value: Option<T>, with: With<T>) -> ScenarioBuilder {
            match value {
                Some(v) => with(b, v),
                None => b,
            }
        }
        let b = set(builder, self.devices, ScenarioBuilder::with_devices);
        let b = set(b, self.radius_km, ScenarioBuilder::with_radius_km);
        let b = set(b, self.samples_per_device, ScenarioBuilder::with_samples_per_device);
        let b = set(b, self.total_samples, ScenarioBuilder::with_total_samples);
        let b =
            set(b, self.cycles_per_sample, |b, (lo, hi)| b.with_cycles_per_sample_range(lo, hi));
        let b = set(b, self.upload_bits, ScenarioBuilder::with_upload_bits);
        let b = set(b, self.p_min_dbm, ScenarioBuilder::with_p_min_dbm);
        let b = set(b, self.p_max_dbm, ScenarioBuilder::with_p_max_dbm);
        let b = set(b, self.f_min_hz, ScenarioBuilder::with_f_min_hz);
        let b = set(b, self.f_max_ghz, ScenarioBuilder::with_f_max_ghz);
        let b = set(b, self.global_rounds, ScenarioBuilder::with_global_rounds);
        let b = set(b, self.local_iterations, ScenarioBuilder::with_local_iterations);
        let b = set(b, self.total_bandwidth_hz, |b, hz| b.with_total_bandwidth(Hertz::new(hz)));
        set(b, self.shadowing_db, ScenarioBuilder::with_shadowing_db)
    }

    /// Whether every field is unset (an identity patch).
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    pub(crate) fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        if self.samples_per_device.is_some() && self.total_samples.is_some() {
            return Err(SpecError::invalid(
                path.to_string(),
                "`samples_per_device` and `total_samples` are mutually exclusive",
            ));
        }
        if let Some((lo, hi)) = self.cycles_per_sample {
            if !(lo.is_finite() && hi.is_finite() && lo > 0.0 && hi >= lo) {
                return Err(SpecError::invalid(
                    format!("{path}.cycles_per_sample"),
                    format!("range [{lo}, {hi}] must be positive and ordered"),
                ));
            }
        }
        // dBm values are log-scale (negative is fine) and shadowing may be 0 (disabled);
        // the physical magnitudes must be strictly positive.
        type Rule = (fn(f64) -> bool, &'static str);
        let finite: Rule = (f64::is_finite, "must be finite");
        let non_negative: Rule = (|v| v.is_finite() && v >= 0.0, "must be finite and non-negative");
        let positive: Rule = (|v| v.is_finite() && v > 0.0, "must be a positive finite number");
        for (name, value, (ok, message)) in [
            ("p_min_dbm", self.p_min_dbm, finite),
            ("p_max_dbm", self.p_max_dbm, finite),
            ("shadowing_db", self.shadowing_db, non_negative),
            ("radius_km", self.radius_km, positive),
            ("upload_bits", self.upload_bits, positive),
            ("f_min_hz", self.f_min_hz, positive),
            ("f_max_ghz", self.f_max_ghz, positive),
            ("total_bandwidth_hz", self.total_bandwidth_hz, positive),
        ] {
            if value.is_some_and(|v| !ok(v)) {
                return Err(SpecError::invalid(format!("{path}.{name}"), message));
            }
        }
        match self.devices {
            Some(0) => Err(SpecError::invalid(format!("{path}.devices"), "must be at least 1")),
            Some(n) if n > MAX_DEVICES => Err(SpecError::invalid(
                format!("{path}.devices"),
                format!(
                    "capped at {MAX_DEVICES} devices per scenario (got {n}); fleet-scale \
                     experiments should start from the `large_n` quick preset \
                     (`experiments::presets::large_n`) and spread the seed grid with \
                     `fedopt run --shards N` instead of growing a single scenario past \
                     the guardrail"
                ),
            )),
            _ => Ok(()),
        }
    }
}

json_record! { #[validate] ScenarioSpec {
    "devices" => devices: opt,
    "radius_km" => radius_km: opt,
    "samples_per_device" => samples_per_device: opt,
    "total_samples" => total_samples: opt,
    "cycles_per_sample" => cycles_per_sample: opt,
    "upload_bits" => upload_bits: opt,
    "p_min_dbm" => p_min_dbm: opt,
    "p_max_dbm" => p_max_dbm: opt,
    "f_min_hz" => f_min_hz: opt,
    "f_max_ghz" => f_max_ghz: opt,
    "global_rounds" => global_rounds: opt,
    "local_iterations" => local_iterations: opt,
    "total_bandwidth_hz" => total_bandwidth_hz: opt,
    "shadowing_db" => shadowing_db: opt,
}}

// ---------------------------------------------------------------------------
// Arms
// ---------------------------------------------------------------------------

/// Which random draw the benchmark arm makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BenchmarkDraw {
    /// Random CPU frequency at maximum power (the Figure-2 benchmark).
    Frequency,
    /// Random transmit power at maximum frequency (the Figure-3 benchmark).
    Power,
}

impl BenchmarkDraw {
    const fn name(self) -> &'static str {
        match self {
            Self::Frequency => "frequency",
            Self::Power => "power",
        }
    }
}

json_name!(BenchmarkDraw, "benchmark draw", [Frequency, Power]);

/// Where a deadline-constrained arm reads its deadline from.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum DeadlineSpec {
    /// The sweep point's x value is the deadline (requires a
    /// [`AxisKind::DeadlineS`] axis).
    Axis,
    /// A fixed deadline in seconds (one series per value, as in Figure 8).
    FixedS(f64),
}

/// `"axis"` or a number of seconds.
impl Field for DeadlineSpec {
    fn encode(&self, _brief: bool) -> Json {
        match self {
            DeadlineSpec::Axis => Json::Str("axis".to_string()),
            DeadlineSpec::FixedS(t) => Json::Num(*t),
        }
    }
    fn from_json(v: &Json, path: &Path<'_>) -> Result<Self, ReadError> {
        match v {
            Json::Str(s) if s == "axis" => Ok(DeadlineSpec::Axis),
            Json::Num(t) => Ok(DeadlineSpec::FixedS(*t)),
            _ => Err(ReadError::new(path, "must be \"axis\" or a number of seconds")),
        }
    }
}

/// The closed set of schemes an arm can run — every comparison of the paper's evaluation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ArmKind {
    /// The proposed joint optimizer at a fixed weight pair (Figures 2–6).
    Proposed {
        /// The objective weights `(w1, w2)`.
        weights: Weights,
    },
    /// The deadline-constrained proposed optimizer (Figures 7 and 8).
    DeadlineProposed {
        /// Where the deadline comes from.
        deadline: DeadlineSpec,
    },
    /// The random benchmark of Figures 2 and 3.
    Benchmark {
        /// Which resource is drawn at random.
        draw: BenchmarkDraw,
    },
    /// Communication-only optimization under the axis deadline (Figure 7).
    CommOnly,
    /// Computation-only optimization under the axis deadline (Figure 7).
    CompOnly,
    /// Scheme 1 (Yang et al., IEEE TWC 2021) at a fixed deadline (Figure 8).
    Scheme1 {
        /// The fixed deadline in seconds.
        deadline_s: f64,
    },
}

impl ArmKind {
    const fn name(&self) -> &'static str {
        match self {
            Self::Proposed { .. } => "proposed",
            Self::DeadlineProposed { .. } => "deadline_proposed",
            Self::Benchmark { .. } => "benchmark",
            Self::CommOnly => "comm_only",
            Self::CompOnly => "comp_only",
            Self::Scheme1 { .. } => "scheme1",
        }
    }
}

/// One column of the figure: a scheme, an optional display label, and an optional
/// per-arm scenario patch (applied after the sweep point's template + axis value).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArmSpec {
    /// The scheme.
    pub kind: ArmKind,
    /// Overrides the scheme's generated column label.
    pub label: Option<String>,
    /// Per-arm scenario overrides (Figures 5 and 6 sweep per-series device and round
    /// counts this way). Arms whose *effective* builders compare equal still share one
    /// scenario build per (point, seed) — the engine groups by prepared builder.
    pub scenario: Option<ScenarioSpec>,
}

impl ArmSpec {
    /// A plain arm of the given kind (no label or scenario overrides).
    pub fn new(kind: ArmKind) -> Self {
        Self { kind, label: None, scenario: None }
    }

    /// This arm with a display label.
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// This arm with a per-arm scenario patch.
    #[must_use]
    pub fn with_scenario(mut self, scenario: ScenarioSpec) -> Self {
        self.scenario = Some(scenario);
        self
    }

    pub(crate) fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        match &self.kind {
            ArmKind::Scheme1 { deadline_s } if !(deadline_s.is_finite() && *deadline_s > 0.0) => {
                return Err(SpecError::invalid(
                    format!("{path}.deadline_s"),
                    "must be a positive finite number of seconds",
                ));
            }
            ArmKind::DeadlineProposed { deadline: DeadlineSpec::FixedS(t) }
                if !(t.is_finite() && *t > 0.0) =>
            {
                return Err(SpecError::invalid(
                    format!("{path}.deadline"),
                    "must be \"axis\" or a positive finite number of seconds",
                ));
            }
            _ => {}
        }
        if let Some(patch) = &self.scenario {
            patch.validate(&Path::Key(path, "scenario"))?;
        }
        Ok(())
    }
}

/// A tagged union on `kind`: each scheme allows exactly its own payload keys next to
/// `kind`, `label` and `scenario`.
impl Field for ArmSpec {
    fn encode(&self, _brief: bool) -> Json {
        let mut members = vec![("kind".to_string(), Json::Str(self.kind.name().to_string()))];
        let mut push = |key: &str, value: Json| members.push((key.to_string(), value));
        match &self.kind {
            ArmKind::Proposed { weights } => write_weights(&mut push, weights),
            ArmKind::DeadlineProposed { deadline } => push("deadline", deadline.to_json()),
            ArmKind::Benchmark { draw } => push("draw", draw.to_json()),
            ArmKind::Scheme1 { deadline_s } => push("deadline_s", deadline_s.to_json()),
            ArmKind::CommOnly | ArmKind::CompOnly => {}
        }
        if let Some(label) = &self.label {
            push("label", label.to_json());
        }
        if let Some(patch) = &self.scenario {
            push("scenario", patch.to_json());
        }
        Json::Obj(members)
    }

    fn from_json(v: &Json, path: &Path<'_>) -> Result<Self, ReadError> {
        let mut obj = Obj::new(v, path)?;
        // Every payload key is asked for before any payload error returns, so an unknown
        // key reports first.
        let kind = match obj.req::<String>("kind")?.as_str() {
            "proposed" => read_weights(&mut obj, path).map(|weights| ArmKind::Proposed { weights }),
            "deadline_proposed" => {
                obj.req("deadline").map(|deadline| ArmKind::DeadlineProposed { deadline })
            }
            "benchmark" => obj.req("draw").map(|draw| ArmKind::Benchmark { draw }),
            "comm_only" => Ok(ArmKind::CommOnly),
            "comp_only" => Ok(ArmKind::CompOnly),
            "scheme1" => obj.req("deadline_s").map(|deadline_s| ArmKind::Scheme1 { deadline_s }),
            other => {
                return Err(ReadError::new(
                    &Path::Key(path, "kind"),
                    format!("unknown arm kind {other:?}"),
                ))
            }
        };
        let (label, scenario) = (obj.opt("label"), obj.opt("scenario"));
        obj.end()?;
        let spec = Self { kind: kind?, label: label?, scenario: scenario? };
        spec.validate(path)?;
        Ok(spec)
    }
}

/// Writes the `w1`/`w2` members of a weighted arm or round policy.
fn write_weights(push: &mut impl FnMut(&str, Json), weights: &Weights) {
    push("w1", Json::Num(weights.energy()));
    push("w2", Json::Num(weights.time()));
}

/// Reads the `w1`/`w2` pair of a weighted arm or round policy. Both keys are asked for
/// before either error returns.
fn read_weights(obj: &mut Obj<'_>, path: &Path<'_>) -> Result<Weights, ReadError> {
    let (w1, w2) = (obj.req("w1"), obj.req("w2"));
    Weights::new(w1?, w2?).map_err(|e| ReadError::new(path, format!("invalid weights: {e}")))
}

// ---------------------------------------------------------------------------
// Seeds
// ---------------------------------------------------------------------------

/// How the scenario seeds averaged over are produced.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedPolicy {
    /// The contiguous range `start .. start + count` — the natural shard unit: splitting
    /// a sweep across processes is splitting this range.
    Range {
        /// First seed.
        start: u64,
        /// Number of seeds (draws per point).
        count: u64,
    },
    /// An explicit seed list (the historical quick presets).
    List(Vec<u64>),
}

/// The spec's seed block: the scenario-seed policy plus the named stream-seed derivation
/// rule (see [`baselines::StreamDerivation`]) arms with internal randomness use.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeedSpec {
    /// How the base (scenario) seeds are produced.
    pub policy: SeedPolicy,
    /// The derivation of arm-internal stream seeds from base seeds. Pinned by name in the
    /// wire format so a replay under a different rule is refused instead of silently
    /// producing different benchmark columns.
    pub stream_derivation: StreamDerivation,
}

impl SeedSpec {
    /// An explicit seed list under the default stream derivation.
    pub fn list(seeds: impl Into<Vec<u64>>) -> Self {
        Self {
            policy: SeedPolicy::List(seeds.into()),
            stream_derivation: StreamDerivation::default(),
        }
    }

    /// The range `0..count` under the default stream derivation.
    pub fn count(count: u64) -> Self {
        Self {
            policy: SeedPolicy::Range { start: 0, count },
            stream_derivation: StreamDerivation::default(),
        }
    }

    /// Number of scenario seeds (draws per point) without materializing them.
    pub fn len(&self) -> u64 {
        match &self.policy {
            SeedPolicy::Range { count, .. } => *count,
            SeedPolicy::List(seeds) => seeds.len() as u64,
        }
    }

    /// Whether the policy yields no seeds (invalid; rejected by validation).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materializes the seed values, in order.
    pub fn values(&self) -> Vec<u64> {
        match &self.policy {
            SeedPolicy::Range { start, count } => (*start..start + count).collect(),
            SeedPolicy::List(seeds) => seeds.clone(),
        }
    }

    fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        match &self.policy {
            SeedPolicy::Range { start, count } => {
                if *count == 0 {
                    return Err(SpecError::invalid(format!("{path}.count"), "must be at least 1"));
                }
                if *count > MAX_SEEDS {
                    return Err(SpecError::invalid(
                        format!("{path}.count"),
                        format!(
                            "at most {MAX_SEEDS} seeds per spec — shard larger sweeps \
                             into seed sub-ranges with `fedopt run --shards N` or \
                             `fedopt shard split`"
                        ),
                    ));
                }
                if start.checked_add(*count).map_or(true, |end| end > MAX_EXACT_INT) {
                    return Err(SpecError::invalid(
                        path.to_string(),
                        "seed range must stay within the exact JSON integer range (2^53)",
                    ));
                }
            }
            SeedPolicy::List(seeds) => {
                if seeds.is_empty() {
                    return Err(SpecError::invalid(format!("{path}.list"), "must not be empty"));
                }
                if seeds.len() as u64 > MAX_SEEDS {
                    return Err(SpecError::invalid(
                        format!("{path}.list"),
                        format!(
                            "at most {MAX_SEEDS} seeds per spec — shard larger sweeps \
                             into seed sub-lists with `fedopt run --shards N` or \
                             `fedopt shard split`"
                        ),
                    ));
                }
                if seeds.iter().any(|&s| s > MAX_EXACT_INT) {
                    return Err(SpecError::invalid(
                        format!("{path}.list"),
                        "seeds must stay within the exact JSON integer range (2^53)",
                    ));
                }
            }
        }
        Ok(())
    }
}

/// Either `list`, or `count` with an optional `start`, plus the stream derivation.
impl Field for SeedSpec {
    fn encode(&self, _brief: bool) -> Json {
        let mut members = match &self.policy {
            SeedPolicy::Range { start, count } => {
                vec![("start", start.to_json()), ("count", count.to_json())]
            }
            SeedPolicy::List(seeds) => vec![("list", seeds.to_json())],
        };
        members.push(("stream_derivation", self.stream_derivation.to_json()));
        Json::obj(members)
    }

    fn from_json(v: &Json, path: &Path<'_>) -> Result<Self, ReadError> {
        let mut obj = Obj::new(v, path)?;
        let (start, count, list) = (obj.opt("start"), obj.opt("count"), obj.opt("list"));
        let stream_derivation = obj.req("stream_derivation");
        obj.end()?;
        let policy = match (list?, count?) {
            (Some(_), None) if !matches!(start, Ok(None)) => {
                return Err(ReadError::new(
                    &Path::Key(path, "start"),
                    "`start` only applies to range seed policies",
                ))
            }
            (Some(list), None) => SeedPolicy::List(list),
            (None, Some(count)) => SeedPolicy::Range { start: start?.unwrap_or(0), count },
            _ => {
                return Err(ReadError::new(
                    path,
                    "seeds need exactly one of `list` or `count` (+ optional `start`)",
                ))
            }
        };
        let spec = Self { policy, stream_derivation: stream_derivation? };
        spec.validate(path)?;
        Ok(spec)
    }
}

json_name!(StreamDerivation, "stream derivation");

// ---------------------------------------------------------------------------
// Solver
// ---------------------------------------------------------------------------

/// Which [`SolverConfig`] the overrides start from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SolverPreset {
    /// [`SolverConfig::default`] — the paper-faithful tolerances.
    #[default]
    Default,
    /// [`SolverConfig::fast`] — the looser quick-preset tolerances.
    Fast,
}

impl SolverPreset {
    const fn name(self) -> &'static str {
        match self {
            Self::Default => "default",
            Self::Fast => "fast",
        }
    }

    fn base(self) -> SolverConfig {
        match self {
            Self::Default => SolverConfig::default(),
            Self::Fast => SolverConfig::fast(),
        }
    }
}

json_name!(SolverPreset, "solver preset", [Default, Fast]);

/// Serializable solver settings: a preset plus optional tolerance overrides.
///
/// The warm-start switch is *not* here: it is an engine-level decision
/// ([`EngineSpec::warm_start`]) because the sweep engine overrides every arm's solver
/// config with its own flag to keep one sweep uniformly cold or warm.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SolverSpec {
    /// The starting configuration.
    pub preset: SolverPreset,
    /// Override of [`SolverConfig::outer_max_iter`].
    pub outer_max_iter: Option<usize>,
    /// Override of [`SolverConfig::outer_tol`].
    pub outer_tol: Option<f64>,
    /// Override of [`SolverConfig::mu_tol`].
    pub mu_tol: Option<f64>,
    /// Override of [`SolverConfig::scalar_tol`].
    pub scalar_tol: Option<f64>,
    /// Override of [`SolverConfig::feasibility_tol`].
    pub feasibility_tol: Option<f64>,
    /// Override of [`SolverConfig::bandwidth_floor_hz`].
    pub bandwidth_floor_hz: Option<f64>,
    /// Override of [`SolverConfig::polish_with_reference`].
    pub polish_with_reference: Option<bool>,
    /// Override of [`SolverConfig::warm_rmin_tol`].
    pub warm_rmin_tol: Option<f64>,
}

impl SolverSpec {
    /// The fast preset with no overrides.
    pub fn fast() -> Self {
        Self { preset: SolverPreset::Fast, ..Self::default() }
    }

    /// Resolves the preset and overrides into a concrete [`SolverConfig`].
    pub fn resolve(&self) -> SolverConfig {
        fn set<T>(slot: &mut T, value: Option<T>) {
            if let Some(v) = value {
                *slot = v;
            }
        }
        let mut c = self.preset.base();
        set(&mut c.outer_max_iter, self.outer_max_iter);
        set(&mut c.outer_tol, self.outer_tol);
        set(&mut c.mu_tol, self.mu_tol);
        set(&mut c.scalar_tol, self.scalar_tol);
        set(&mut c.feasibility_tol, self.feasibility_tol);
        set(&mut c.bandwidth_floor_hz, self.bandwidth_floor_hz);
        set(&mut c.polish_with_reference, self.polish_with_reference);
        set(&mut c.warm_rmin_tol, self.warm_rmin_tol);
        c
    }

    pub(crate) fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        for (name, value) in [
            ("outer_tol", self.outer_tol),
            ("mu_tol", self.mu_tol),
            ("scalar_tol", self.scalar_tol),
            ("feasibility_tol", self.feasibility_tol),
            ("bandwidth_floor_hz", self.bandwidth_floor_hz),
            ("warm_rmin_tol", self.warm_rmin_tol),
        ] {
            if let Some(v) = value {
                if !(v.is_finite() && v > 0.0) {
                    return Err(SpecError::invalid(
                        format!("{path}.{name}"),
                        "must be a positive finite number",
                    ));
                }
            }
        }
        if self.outer_max_iter == Some(0) {
            return Err(SpecError::invalid(format!("{path}.outer_max_iter"), "must be at least 1"));
        }
        Ok(())
    }
}

json_record! { #[validate] SolverSpec {
    "preset" => preset,
    "outer_max_iter" => outer_max_iter: opt,
    "outer_tol" => outer_tol: opt,
    "mu_tol" => mu_tol: opt,
    "scalar_tol" => scalar_tol: opt,
    "feasibility_tol" => feasibility_tol: opt,
    "bandwidth_floor_hz" => bandwidth_floor_hz: opt,
    "polish_with_reference" => polish_with_reference: opt,
    "warm_rmin_tol" => warm_rmin_tol: opt,
}}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// Serializable engine options. Unset fields keep [`SweepEngine::new`]'s defaults
/// (all cores / environment overrides).
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EngineSpec {
    /// Worker thread count ([`SweepEngine::with_threads`]).
    pub threads: Option<usize>,
    /// Warm-start continuation default for this spec. An explicit
    /// [`crate::engine::WARM_START_ENV`] environment setting still wins (so
    /// `FEDOPT_WARM_START=0` forces any spec cold), but when the environment is silent
    /// this field decides — the paper presets default it on.
    pub warm_start: Option<bool>,
    /// Seeds per streaming chunk ([`SweepEngine::with_seed_chunk`]).
    pub seed_chunk: Option<usize>,
    /// Retries per failed fleet shard before the shard counts as failed
    /// ([`crate::shard::FleetOptions::max_retries`]). `0` disables retries. Only
    /// consulted by sharded (`--shards`) runs; an explicit `--shard-retries` CLI flag
    /// wins over this field. Cache keys ignore it — retry policy cannot change results.
    pub shard_retries: Option<u64>,
    /// Per-shard wall-clock timeout in seconds for subprocess fleet workers
    /// ([`crate::shard::SubprocessRunner`]). Must be at least 1. Only consulted by
    /// sharded runs; an explicit `--shard-timeout` CLI flag wins over this field. Cache
    /// keys ignore it — a timeout cannot change what a surviving shard computes.
    pub shard_timeout_s: Option<u64>,
}

impl EngineSpec {
    /// Builds the engine these options describe. Precedence for the warm-start switch:
    /// explicit environment setting > spec field > off.
    pub fn to_engine(&self) -> SweepEngine {
        let mut engine = match self.threads {
            Some(n) => SweepEngine::with_threads(n),
            None => SweepEngine::new(),
        };
        if let Some(chunk) = self.seed_chunk {
            engine = engine.with_seed_chunk(chunk);
        }
        // `SweepEngine::new` already folded the environment in; only a *silent*
        // environment lets the spec's default take effect.
        if crate::engine::warm_start_env().is_none() {
            if let Some(warm) = self.warm_start {
                engine = engine.with_warm_start(warm);
            }
        }
        engine
    }

    fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        if self.threads == Some(0) {
            return Err(SpecError::invalid(format!("{path}.threads"), "must be at least 1"));
        }
        if self.seed_chunk == Some(0) {
            return Err(SpecError::invalid(format!("{path}.seed_chunk"), "must be at least 1"));
        }
        if self.shard_timeout_s == Some(0) {
            return Err(SpecError::invalid(
                format!("{path}.shard_timeout_s"),
                "must be at least 1",
            ));
        }
        Ok(())
    }
}

json_record! { #[validate] EngineSpec {
    "threads" => threads: opt,
    "warm_start" => warm_start: opt,
    "seed_chunk" => seed_chunk: opt,
    "shard_retries" => shard_retries: opt,
    "shard_timeout_s" => shard_timeout_s: opt,
}}

// ---------------------------------------------------------------------------
// Reports
// ---------------------------------------------------------------------------

/// Which aggregate metric a report plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Metric {
    /// Mean total energy in joules.
    Energy,
    /// Mean total completion time in seconds.
    Time,
}

impl Metric {
    const fn name(self) -> &'static str {
        match self {
            Self::Energy => "energy",
            Self::Time => "time",
        }
    }
}

json_name!(Metric, "metric", [Energy, Time]);

/// One figure (or sub-figure) rendered from the evaluated grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReportSpec {
    /// Identifier matching the paper, e.g. `"fig2a"`.
    pub id: String,
    /// The plotted metric.
    pub metric: Metric,
    /// Human-readable title.
    pub title: String,
    /// Label of the x axis.
    pub x_label: String,
}

impl ReportSpec {
    /// A report description.
    pub fn new(id: &str, metric: Metric, title: &str, x_label: &str) -> Self {
        Self { id: id.to_string(), metric, title: title.to_string(), x_label: x_label.to_string() }
    }

    /// Renders this report from an evaluated grid.
    pub fn render(&self, result: &SweepResult) -> FigureReport {
        match self.metric {
            Metric::Energy => result.energy_report(&self.id, &self.title, &self.x_label),
            Metric::Time => result.time_report(&self.id, &self.title, &self.x_label),
        }
    }
}

json_record! { ReportSpec {
    "id" => id,
    "metric" => metric,
    "title" => title,
    "x_label" => x_label,
}}

// ---------------------------------------------------------------------------
// Round simulation
// ---------------------------------------------------------------------------

/// Cap on the number of simulated global rounds per spec.
pub const MAX_SIM_ROUNDS: u32 = 100_000;

/// The closed set of per-round allocation/selection policies the round simulator
/// compares — the round-by-round counterpart of [`ArmKind`].
#[derive(Debug, Clone, PartialEq)]
pub enum RoundPolicy {
    /// Re-runs Algorithm 2 on each round's redrawn channel (warm-started across rounds
    /// when the engine's continuation is on). Every device that survives dropout
    /// participates.
    ReSolve {
        /// The objective weights `(w1, w2)`.
        weights: Weights,
    },
    /// Solves Algorithm 2 once on the base (round-0) channel and reuses that allocation
    /// for every round — what a deployment that never re-optimizes pays under fading.
    Static {
        /// The objective weights `(w1, w2)`.
        weights: Weights,
    },
    /// FedAECS-style accuracy-constrained selection: greedily admits the
    /// cheapest-energy-per-accuracy devices (accuracy proxy `ε_n = ln(1 + μ·D_n)`)
    /// until the round accuracy `Γ = ln(1 + Σ ε_n)` reaches `epsilon`, skipping devices
    /// whose round time exceeds `t_max_s`. Runs on the equal-split allocation.
    FedAecs {
        /// Required round accuracy `ε₀` (on the `Γ` scale).
        epsilon: f64,
        /// Accuracy-proxy curvature `μ` in `ε_n = ln(1 + μ·D_n)`.
        mu: f64,
        /// Per-device round-time cap in seconds (`None` disables the cap).
        t_max_s: Option<f64>,
    },
    /// ELASTIC-style (Yu et al.) joint selection with a **sequential-upload** wall-clock
    /// model: each device uploads alone over the full bandwidth, waiting its
    /// `t_wait` recurrence turn; a device is selected when its energy score
    /// `α·(E_n + 1) − 1 ≤ 0` (smaller `alpha` admits more devices).
    Elastic {
        /// Energy/participation trade-off `α ∈ (0, 1]`.
        alpha: f64,
    },
}

impl RoundPolicy {
    /// The stable wire name of this policy kind.
    pub const fn name(&self) -> &'static str {
        match self {
            Self::ReSolve { .. } => "re_solve",
            Self::Static { .. } => "static",
            Self::FedAecs { .. } => "fedaecs",
            Self::Elastic { .. } => "elastic",
        }
    }
}

/// One column of the round simulation: a policy plus an optional display label.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundPolicySpec {
    /// The policy.
    pub policy: RoundPolicy,
    /// Overrides the policy's generated column label.
    pub label: Option<String>,
}

impl RoundPolicySpec {
    /// A plain policy column (no label override).
    pub fn new(policy: RoundPolicy) -> Self {
        Self { policy, label: None }
    }

    /// This policy with a display label.
    #[must_use]
    pub fn labeled(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    /// The display label: the override, or the policy's wire name.
    pub fn display_label(&self) -> &str {
        self.label.as_deref().unwrap_or(self.policy.name())
    }

    pub(crate) fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        match &self.policy {
            RoundPolicy::ReSolve { .. } | RoundPolicy::Static { .. } => {}
            RoundPolicy::FedAecs { epsilon, mu, t_max_s } => {
                for (name, v) in [("epsilon", *epsilon), ("mu", *mu)] {
                    if !(v.is_finite() && v > 0.0) {
                        return Err(SpecError::invalid(
                            format!("{path}.{name}"),
                            "must be a positive finite number",
                        ));
                    }
                }
                if let Some(t) = t_max_s {
                    if !(t.is_finite() && *t > 0.0) {
                        return Err(SpecError::invalid(
                            format!("{path}.t_max_s"),
                            "must be a positive finite number of seconds",
                        ));
                    }
                }
            }
            RoundPolicy::Elastic { alpha } => {
                if !(alpha.is_finite() && *alpha > 0.0 && *alpha <= 1.0) {
                    return Err(SpecError::invalid(format!("{path}.alpha"), "must be in (0, 1]"));
                }
            }
        }
        Ok(())
    }
}

/// A tagged union on `kind`, like [`ArmSpec`]: each policy allows its own payload keys
/// next to `kind` and `label`.
impl Field for RoundPolicySpec {
    fn encode(&self, _brief: bool) -> Json {
        let mut members = vec![("kind".to_string(), Json::Str(self.policy.name().to_string()))];
        let mut push = |key: &str, value: Json| members.push((key.to_string(), value));
        match &self.policy {
            RoundPolicy::ReSolve { weights } | RoundPolicy::Static { weights } => {
                write_weights(&mut push, weights);
            }
            RoundPolicy::FedAecs { epsilon, mu, t_max_s } => {
                push("epsilon", epsilon.to_json());
                push("mu", mu.to_json());
                if let Some(t) = t_max_s {
                    push("t_max_s", t.to_json());
                }
            }
            RoundPolicy::Elastic { alpha } => push("alpha", alpha.to_json()),
        }
        if let Some(label) = &self.label {
            push("label", label.to_json());
        }
        Json::Obj(members)
    }

    fn from_json(v: &Json, path: &Path<'_>) -> Result<Self, ReadError> {
        let mut obj = Obj::new(v, path)?;
        let policy = match obj.req::<String>("kind")?.as_str() {
            "re_solve" => {
                read_weights(&mut obj, path).map(|weights| RoundPolicy::ReSolve { weights })
            }
            "static" => read_weights(&mut obj, path).map(|weights| RoundPolicy::Static { weights }),
            "fedaecs" => {
                let (epsilon, mu, t_max_s) =
                    (obj.req("epsilon"), obj.req("mu"), obj.opt("t_max_s"));
                epsilon.and_then(|epsilon| {
                    Ok(RoundPolicy::FedAecs { epsilon, mu: mu?, t_max_s: t_max_s? })
                })
            }
            "elastic" => obj.req("alpha").map(|alpha| RoundPolicy::Elastic { alpha }),
            other => {
                return Err(ReadError::new(
                    &Path::Key(path, "kind"),
                    format!("unknown round policy kind {other:?}"),
                ))
            }
        };
        let label = obj.opt("label");
        obj.end()?;
        let spec = Self { policy: policy?, label: label? };
        spec.validate(path)?;
        Ok(spec)
    }
}

/// The straggler model applied every round, per device, from the straggler stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSpec {
    /// Probability a device misses the round entirely (no training, no cost).
    pub dropout: f64,
    /// Probability a participating device straggles (its computation slows down).
    pub slow: f64,
    /// Computation time/energy multiplier for a straggling device (`≥ 1`).
    pub slow_factor: f64,
}

impl Default for StragglerSpec {
    fn default() -> Self {
        Self { dropout: 0.0, slow: 0.0, slow_factor: 1.0 }
    }
}

impl StragglerSpec {
    pub(crate) fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        for (name, v) in [("dropout", self.dropout), ("slow", self.slow)] {
            if !(v.is_finite() && (0.0..1.0).contains(&v)) {
                return Err(SpecError::invalid(
                    format!("{path}.{name}"),
                    "must be a probability in [0, 1)",
                ));
            }
        }
        if !(self.slow_factor.is_finite() && self.slow_factor >= 1.0) {
            return Err(SpecError::invalid(
                format!("{path}.slow_factor"),
                "must be a finite multiplier of at least 1",
            ));
        }
        Ok(())
    }
}

json_record! { #[validate] StragglerSpec {
    "dropout" => dropout: or(Self::default().dropout),
    "slow" => slow: or(Self::default().slow),
    "slow_factor" => slow_factor: or(Self::default().slow_factor),
}}

/// The synthetic training task the round simulator learns on (see
/// [`fedsim::SyntheticConfig`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimTrainingSpec {
    /// Synthetic samples per device.
    pub samples_per_device: u64,
    /// Local SGD learning rate.
    pub learning_rate: f64,
}

impl Default for SimTrainingSpec {
    fn default() -> Self {
        Self { samples_per_device: 60, learning_rate: 0.5 }
    }
}

impl SimTrainingSpec {
    pub(crate) fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        if self.samples_per_device == 0 {
            return Err(SpecError::invalid(
                format!("{path}.samples_per_device"),
                "must be at least 1",
            ));
        }
        if self.samples_per_device > 1_000_000 {
            return Err(SpecError::invalid(
                format!("{path}.samples_per_device"),
                "capped at 1000000 synthetic samples per device",
            ));
        }
        if !(self.learning_rate.is_finite() && self.learning_rate > 0.0) {
            return Err(SpecError::invalid(
                format!("{path}.learning_rate"),
                "must be a positive finite number",
            ));
        }
        Ok(())
    }
}

json_record! { #[validate] SimTrainingSpec {
    "samples_per_device" => samples_per_device: or(Self::default().samples_per_device),
    "learning_rate" => learning_rate: or(Self::default().learning_rate),
}}

/// Identity of the rendered round-trajectory report.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundsReportSpec {
    /// Identifier, e.g. `"rounds-quick"`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
}

impl RoundsReportSpec {
    pub(crate) fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        if self.id.is_empty() {
            return Err(SpecError::invalid(format!("{path}.id"), "must not be empty"));
        }
        Ok(())
    }
}

json_record! { #[validate] RoundsReportSpec {
    "id" => id,
    "title" => title,
}}

/// The optional round-simulation section of a spec, run by `fedopt sim` (the
/// `experiments::rounds` subsystem). When present, the spec's axis must hold exactly one
/// value (the single scenario point simulated) and the sweep `arms` may be empty.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundsSpec {
    /// Number of simulated global rounds `T`.
    pub rounds: u32,
    /// Per-round log-normal block-fading standard deviation in dB (`0` freezes the
    /// channel at its base realisation).
    pub refade_db: f64,
    /// The named derivation of per-round channel/straggler stream seeds. Pinned in the
    /// wire format; must be a round-indexed rule
    /// ([`StreamDerivation::RoundChannelFnv`]).
    pub channel_stream: StreamDerivation,
    /// The straggler/dropout model.
    pub straggler: StragglerSpec,
    /// The synthetic training task.
    pub training: SimTrainingSpec,
    /// The policies compared, in column order.
    pub policies: Vec<RoundPolicySpec>,
    /// Identity of the rendered trajectory report.
    pub report: RoundsReportSpec,
}

impl RoundsSpec {
    pub(crate) fn validate(&self, path: &Path<'_>) -> Result<(), SpecError> {
        if self.rounds == 0 {
            return Err(SpecError::invalid(format!("{path}.rounds"), "must be at least 1"));
        }
        if self.rounds > MAX_SIM_ROUNDS {
            return Err(SpecError::invalid(
                format!("{path}.rounds"),
                format!("capped at {MAX_SIM_ROUNDS} simulated rounds"),
            ));
        }
        if !(self.refade_db.is_finite() && self.refade_db >= 0.0) {
            return Err(SpecError::invalid(
                format!("{path}.refade_db"),
                "must be finite and non-negative",
            ));
        }
        if self.channel_stream.derive_round(0, 0) == self.channel_stream.derive_round(0, 1) {
            return Err(SpecError::invalid(
                format!("{path}.channel_stream"),
                format!(
                    "must be a round-indexed stream derivation (e.g. {:?}); {:?} maps \
                     every round to one stream",
                    StreamDerivation::RoundChannelFnv.name(),
                    self.channel_stream.name()
                ),
            ));
        }
        self.straggler.validate(&Path::Key(path, "straggler"))?;
        self.training.validate(&Path::Key(path, "training"))?;
        if self.policies.is_empty() {
            return Err(SpecError::invalid(format!("{path}.policies"), "must not be empty"));
        }
        for (i, policy) in self.policies.iter().enumerate() {
            policy.validate(&Path::Index(&Path::Key(path, "policies"), i))?;
        }
        self.report.validate(&Path::Key(path, "report"))?;
        Ok(())
    }
}

json_record! { #[validate] RoundsSpec {
    "rounds" => rounds,
    "refade_db" => refade_db: or(0.0),
    "channel_stream" => channel_stream: or(StreamDerivation::RoundChannelFnv),
    "straggler" => straggler: or(StragglerSpec::default()),
    "training" => training: or(SimTrainingSpec::default()),
    "policies" => policies,
    "report" => report,
}}

// ---------------------------------------------------------------------------
// The spec
// ---------------------------------------------------------------------------

/// A complete, serializable description of one sweep experiment. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Wire-format version; must equal [`SCHEMA_VERSION`].
    pub schema_version: u64,
    /// Short machine-friendly identifier (e.g. `"fig2"`).
    pub id: String,
    /// Human-readable description of what the sweep shows.
    pub description: String,
    /// The sweep axis.
    pub axis: AxisSpec,
    /// Scenario template shared by every point (a patch over the paper defaults).
    pub scenario: ScenarioSpec,
    /// The schemes compared, in column order.
    pub arms: Vec<ArmSpec>,
    /// Scenario seeds and stream-seed derivation.
    pub seeds: SeedSpec,
    /// Solver preset and overrides.
    pub solver: SolverSpec,
    /// Engine options.
    pub engine: EngineSpec,
    /// Reports rendered from the evaluated grid, in output order.
    pub reports: Vec<ReportSpec>,
    /// Optional round-simulation section, run by `fedopt sim` instead of the sweep
    /// engine. When present, `arms` may be empty and the axis must hold one value.
    pub rounds: Option<RoundsSpec>,
}

/// The outcome of running a spec: the raw evaluated grid plus the rendered reports.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecRun {
    /// The evaluated grid (aggregates + work counters).
    pub result: SweepResult,
    /// The spec's reports, rendered in order.
    pub reports: Vec<FigureReport>,
}

impl ExperimentSpec {
    /// A minimal spec skeleton: one axis, no arms yet, one seed, default solver/engine,
    /// no reports. Useful as a starting point for hand-built experiments.
    pub fn new(id: &str, axis: AxisSpec) -> Self {
        Self {
            schema_version: SCHEMA_VERSION,
            id: id.to_string(),
            description: String::new(),
            axis,
            scenario: ScenarioSpec::default(),
            arms: Vec::new(),
            seeds: SeedSpec::count(1),
            solver: SolverSpec::default(),
            engine: EngineSpec::default(),
            reports: Vec::new(),
            rounds: None,
        }
    }

    /// Replaces the seed policy with the range `0..count` (the CLI's `--seeds N`).
    pub fn override_seed_count(&mut self, count: u64) {
        self.seeds.policy = SeedPolicy::Range { start: 0, count };
    }

    /// Validates every component without compiling the grid.
    ///
    /// # Errors
    ///
    /// The first [`SpecError::Invalid`] found, with the offending field's path.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.schema_version != SCHEMA_VERSION {
            return Err(SpecError::invalid(
                "schema_version",
                format!("expected {SCHEMA_VERSION}, got {}", self.schema_version),
            ));
        }
        if self.id.is_empty() {
            return Err(SpecError::invalid("id", "must not be empty"));
        }
        if self.axis.values.is_empty() {
            return Err(SpecError::invalid("axis.values", "must not be empty"));
        }
        let values = Path::Key(&Path::Root("axis"), "values");
        for (i, &x) in self.axis.values.iter().enumerate() {
            self.axis.kind.check(x, &Path::Index(&values, i))?;
        }
        self.scenario.validate(&Path::Root("scenario"))?;
        if let Some(rounds) = &self.rounds {
            rounds.validate(&Path::Root("rounds"))?;
            if self.axis.values.len() != 1 {
                return Err(SpecError::invalid(
                    "axis.values",
                    format!(
                        "a round-simulation spec pins one scenario point, so the axis \
                         must hold exactly one value (got {})",
                        self.axis.values.len()
                    ),
                ));
            }
        }
        if self.arms.is_empty() && self.rounds.is_none() {
            return Err(SpecError::invalid("arms", "must not be empty"));
        }
        for (i, arm) in self.arms.iter().enumerate() {
            arm.validate(&Path::Index(&Path::Root("arms"), i))?;
            if arm.kind.reads_axis_deadline() && self.axis.kind != AxisKind::DeadlineS {
                return Err(SpecError::invalid(
                    format!("arms[{i}]"),
                    format!(
                        "arm kind `{}` reads its deadline from the axis, which requires a \
                         `deadline_s` axis (got `{}`)",
                        arm.kind.name(),
                        self.axis.kind.name()
                    ),
                ));
            }
        }
        self.seeds.validate(&Path::Root("seeds"))?;
        self.solver.validate(&Path::Root("solver"))?;
        self.engine.validate(&Path::Root("engine"))?;
        Ok(())
    }

    /// Compiles the spec into the imperative [`SweepGrid`] the engine evaluates.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] when validation fails.
    pub fn grid(&self) -> Result<SweepGrid, SpecError> {
        self.validate()?;
        if self.arms.is_empty() {
            return Err(SpecError::invalid(
                "arms",
                "this spec has no sweep arms; round-simulation specs run with `fedopt sim`",
            ));
        }
        let template = self.scenario.apply(ScenarioBuilder::paper_default());
        let mut grid = SweepGrid::new(self.seeds.values()).with_solver(self.solver.resolve());
        for &x in &self.axis.values {
            grid = grid.point(x, self.axis.kind.apply(template.clone(), x));
        }
        for arm in &self.arms {
            grid = grid.arm(arm.clone());
        }
        Ok(grid)
    }

    /// Runs the spec on the engine its [`EngineSpec`] describes.
    ///
    /// # Errors
    ///
    /// Validation errors, or any sweep error from the engine.
    pub fn run(&self) -> Result<SpecRun, SpecError> {
        self.run_with_engine(&self.engine.to_engine())
    }

    /// Runs the spec on an explicit engine (thread-count and warm-start control for
    /// tests; the spec's own [`EngineSpec`] is ignored).
    ///
    /// # Errors
    ///
    /// Validation errors, or any sweep error from the engine.
    pub fn run_with_engine(&self, engine: &SweepEngine) -> Result<SpecRun, SpecError> {
        let result = engine.run_spec(self)?;
        let reports = self.render_reports(&result);
        Ok(SpecRun { result, reports })
    }

    /// Renders the spec's reports from an already-evaluated grid.
    pub fn render_reports(&self, result: &SweepResult) -> Vec<FigureReport> {
        self.reports.iter().map(|r| r.render(result)).collect()
    }

    /// The spec as a JSON value (deterministic member order).
    pub fn to_json(&self) -> Json {
        Field::to_json(self)
    }

    /// The canonical serialized form (pretty-printed, trailing newline) — byte-stable for
    /// a given spec, and lossless: `from_json_str(to_json_string(s)) == s`.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_pretty_string()
    }

    /// Parses a spec from a JSON value and validates it.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] on schema-version mismatch, unknown keys, wrong types, or
    /// failed validation.
    pub fn from_json(v: &Json) -> Result<Self, SpecError> {
        let spec = <Self as Field>::from_json(v, &Path::Root("spec"))?;
        spec.validate()?;
        Ok(spec)
    }

    /// Parses and validates a spec from its serialized form.
    ///
    /// # Errors
    ///
    /// [`SpecError::Json`] for malformed JSON, otherwise as [`ExperimentSpec::from_json`].
    pub fn from_json_str(text: &str) -> Result<Self, SpecError> {
        Self::from_json(&Json::parse(text)?)
    }
}

// `rounds` is last and omitted when unset, so sweep-only specs keep their bytes.
json_record! { ExperimentSpec {
    "schema_version" => schema_version: version(SCHEMA_VERSION),
    "id" => id,
    "description" => description,
    "axis" => axis,
    "scenario" => scenario,
    "arms" => arms,
    "seeds" => seeds,
    "solver" => solver,
    "engine" => engine,
    "reports" => reports,
    "rounds" => rounds: opt,
}}

impl SweepEngine {
    /// Compiles and evaluates a spec on this engine: `spec → SweepGrid → SweepResult`.
    /// The spec's own [`EngineSpec`] is **not** consulted (this engine's settings win);
    /// use [`ExperimentSpec::run`] to honor it.
    ///
    /// # Errors
    ///
    /// [`SpecError::Invalid`] when the spec fails validation, [`SpecError::Sweep`] when a
    /// cell fails.
    pub fn run_spec(&self, spec: &ExperimentSpec) -> Result<SweepResult, SpecError> {
        let grid = spec.grid()?;
        self.run(&grid).map_err(SpecError::Sweep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> ExperimentSpec {
        let mut spec = ExperimentSpec::new(
            "tiny",
            AxisSpec { kind: AxisKind::PMaxDbm, values: vec![6.0, 12.0] },
        );
        spec.description = "tiny fixture".to_string();
        spec.scenario.devices = Some(5);
        spec.arms = vec![
            ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() }),
            ArmSpec::new(ArmKind::Benchmark { draw: BenchmarkDraw::Frequency }),
        ];
        spec.seeds = SeedSpec::list(vec![1, 2]);
        spec.solver = SolverSpec::fast();
        spec.reports = vec![ReportSpec::new("tinya", Metric::Energy, "t", "p_max (dBm)")];
        spec
    }

    #[test]
    fn round_trips_through_json() {
        let spec = tiny_spec();
        let text = spec.to_json_string();
        assert_eq!(ExperimentSpec::from_json_str(&text).unwrap(), spec);
        // And the canonical form is stable under a second round trip.
        assert_eq!(ExperimentSpec::from_json_str(&text).unwrap().to_json_string(), text);
    }

    #[test]
    fn unknown_keys_and_versions_are_rejected() {
        let spec = tiny_spec();
        let mut json = spec.to_json();
        if let Json::Obj(members) = &mut json {
            members.push(("surprise".to_string(), Json::Bool(true)));
        }
        let err = ExperimentSpec::from_json(&json).unwrap_err();
        assert!(
            matches!(&err, SpecError::Invalid { path, .. } if path == "spec.surprise"),
            "{err}"
        );

        let mut wrong_version = spec.to_json();
        if let Json::Obj(members) = &mut wrong_version {
            members[0].1 = Json::uint(999);
        }
        let err = ExperimentSpec::from_json(&wrong_version).unwrap_err();
        assert!(err.to_string().contains("schema version"), "{err}");
    }

    #[test]
    fn validation_catches_structural_mistakes() {
        let mut no_arms = tiny_spec();
        no_arms.arms.clear();
        assert!(
            matches!(no_arms.validate(), Err(SpecError::Invalid { path, .. }) if path == "arms")
        );

        let mut bad_axis = tiny_spec();
        bad_axis.axis = AxisSpec { kind: AxisKind::Devices, values: vec![2.5] };
        assert!(bad_axis.validate().is_err(), "fractional device counts must be rejected");

        let mut axis_deadline_mismatch = tiny_spec();
        axis_deadline_mismatch.arms.push(ArmSpec::new(ArmKind::CommOnly));
        let err = axis_deadline_mismatch.validate().unwrap_err();
        assert!(err.to_string().contains("deadline_s"), "{err}");

        let mut conflicting_samples = tiny_spec();
        conflicting_samples.scenario.samples_per_device = Some(10);
        conflicting_samples.scenario.total_samples = Some(100);
        assert!(conflicting_samples.validate().is_err());

        let mut empty_seeds = tiny_spec();
        empty_seeds.seeds = SeedSpec::list(Vec::new());
        assert!(empty_seeds.validate().is_err());

        // A non-positive deadline axis must fail as loudly as the fixed-deadline form.
        let mut zero_deadline_axis = tiny_spec();
        zero_deadline_axis.axis = AxisSpec { kind: AxisKind::DeadlineS, values: vec![0.0] };
        zero_deadline_axis.arms =
            vec![ArmSpec::new(ArmKind::DeadlineProposed { deadline: DeadlineSpec::Axis })];
        let err = zero_deadline_axis.validate().unwrap_err();
        assert!(err.to_string().contains("strictly positive"), "{err}");

        let mut zero_radius = tiny_spec();
        zero_radius.scenario.radius_km = Some(0.0);
        assert!(zero_radius.validate().is_err());

        // Seed counts the grid compiler could never materialize are a loud validation
        // error, not an OOM at compile time.
        let mut huge_range = tiny_spec();
        huge_range.seeds = SeedSpec {
            policy: SeedPolicy::Range { start: 0, count: MAX_SEEDS + 1 },
            ..huge_range.seeds
        };
        let err = huge_range.validate().unwrap_err();
        assert!(err.to_string().contains("shard"), "{err}");
        let mut max_range = tiny_spec();
        max_range.seeds = SeedSpec {
            policy: SeedPolicy::Range { start: 0, count: MAX_SEEDS },
            ..max_range.seeds
        };
        assert!(max_range.validate().is_ok(), "the cap itself is allowed");
    }

    #[test]
    fn seed_policies_materialize_in_order() {
        assert_eq!(SeedSpec::count(3).values(), vec![0, 1, 2]);
        assert_eq!(
            SeedSpec { policy: SeedPolicy::Range { start: 5, count: 2 }, ..SeedSpec::count(1) }
                .values(),
            vec![5, 6]
        );
        assert_eq!(SeedSpec::list(vec![11, 7]).values(), vec![11, 7]);
    }

    #[test]
    fn engine_spec_round_trips_and_builds() {
        let spec = EngineSpec {
            threads: Some(2),
            warm_start: Some(true),
            seed_chunk: Some(7),
            shard_retries: Some(3),
            shard_timeout_s: Some(120),
        };
        let parsed = EngineSpec::from_json(&spec.to_json(), &Path::Root("engine")).unwrap();
        assert_eq!(parsed, spec);
        let engine = spec.to_engine();
        assert_eq!(engine.threads(), 2);
        assert_eq!(engine.seed_chunk(), 7);
        // The empty spec serializes to an empty object.
        assert_eq!(EngineSpec::default().to_json(), Json::Obj(vec![]));
    }

    #[test]
    fn engine_spec_fleet_fields_are_validated_strictly() {
        // `shard_retries: 0` is legal (retries disabled)…
        let spec = EngineSpec { shard_retries: Some(0), ..EngineSpec::default() };
        assert_eq!(EngineSpec::from_json(&spec.to_json(), &Path::Root("engine")).unwrap(), spec);
        // …but a zero timeout can never complete a shard.
        let bad = EngineSpec { shard_timeout_s: Some(0), ..EngineSpec::default() };
        let err = EngineSpec::from_json(&bad.to_json(), &Path::Root("engine")).unwrap_err();
        assert!(err.to_string().contains("shard_timeout_s"), "{err}");
        // Unknown keys stay rejected (strict parse).
        let doc = Json::obj([("shard_retrys", Json::uint(1))]);
        assert!(EngineSpec::from_json(&doc, &Path::Root("engine")).is_err());
    }

    #[test]
    fn solver_overrides_resolve_over_the_preset() {
        let mut spec = SolverSpec::fast();
        spec.outer_tol = Some(2.5e-3);
        spec.polish_with_reference = Some(false);
        let config = spec.resolve();
        assert_eq!(config.outer_max_iter, SolverConfig::fast().outer_max_iter);
        assert_eq!(config.outer_tol, 2.5e-3);
        assert!(!config.polish_with_reference);
        // No overrides: exactly the preset.
        assert_eq!(SolverSpec::fast().resolve(), SolverConfig::fast());
        assert_eq!(SolverSpec::default().resolve(), SolverConfig::default());
    }

    #[test]
    fn compiled_grid_matches_a_hand_built_one() {
        let spec = tiny_spec();
        let grid = spec.grid().unwrap();
        assert_eq!(grid.seeds, vec![1, 2]);
        assert_eq!(grid.solver, SolverConfig::fast());
        assert_eq!(grid.points.len(), 2);
        assert_eq!(grid.arms.len(), 2);
        assert_eq!(grid.arms[0].name(), "proposed w1=0.5,w2=0.5");
        assert_eq!(grid.arms[1].name(), "benchmark");
        let expected = ScenarioBuilder::paper_default().with_devices(5).with_p_max_dbm(12.0);
        assert_eq!(grid.points[1].builder, expected);
    }

    #[test]
    fn labeled_and_patched_arms_compile_to_configured_arms() {
        let mut spec = tiny_spec();
        spec.arms[0] = ArmSpec::new(ArmKind::Proposed { weights: Weights::balanced() })
            .labeled("N = 3")
            .with_scenario(ScenarioSpec { devices: Some(3), ..ScenarioSpec::default() });
        let grid = spec.grid().unwrap();
        let live = &grid.arms[0];
        assert_eq!(live.name(), "N = 3");
        let base = ScenarioBuilder::paper_default();
        assert_eq!(live.prepare(&base), base.clone().with_devices(3));
        // The unpatched arm leaves the point's scenario alone.
        assert_eq!(grid.arms[1].prepare(&base), base);
    }

    #[test]
    fn run_spec_evaluates_the_grid() {
        let mut spec = tiny_spec();
        spec.seeds = SeedSpec::list(vec![1]);
        spec.axis.values = vec![12.0];
        let run = spec.run_with_engine(&SweepEngine::single_thread()).unwrap();
        assert_eq!(run.result.xs, vec![12.0]);
        assert_eq!(run.reports.len(), 1);
        assert_eq!(run.reports[0].id, "tinya");
        assert!(run.result.aggregates[0][0].mean_energy_j > 0.0);
    }
}

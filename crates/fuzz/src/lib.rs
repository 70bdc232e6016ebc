//! Seeded divergence-surface fuzzing for RDDR deployments.
//!
//! Every workload the repo tested against before this crate was a
//! hand-written script, so the divergence surface actually exercised was
//! the one already imagined — the paper's CVE scenarios and little else.
//! `rddr-fuzz` makes the workload generator a first-class adversary
//! (MicroFuzz's pipeline-aware fuzzing of microservices; DSpot's generated
//! inputs for assessing computational diversity):
//!
//! * **Generation** ([`generate`]) produces *protocol-valid* input streams —
//!   SQL statements over MiniPg/MiniCockroach on both storage engines, HTTP
//!   requests with adversarial `Range`/`Transfer-Encoding`/header-casing
//!   against the httpsim family, and markdown/SVG/XML payloads across the
//!   libsim pairs.
//! * **Execution** drives each stream through a *fresh* full N-version
//!   deployment (diverse versions, filter pairs, quorum policies — the same
//!   shapes `rddr-vulns` uses) and watches the audit log for non-unanimous
//!   verdicts.
//! * **Triage** ([`Verdict`]) classifies each divergence: replayed on a
//!   *homogeneous* deployment it either disappears (**true positive** —
//!   version-gated behaviour, e.g. a CVE path) or persists (**false
//!   positive** — noise the de-noiser should have masked). A divergence
//!   that disappears when the composed [`rddr_net::FaultPlan`] is removed
//!   is **chaos-only** — recovery-policy divergence that exists only under
//!   a fault schedule.
//! * **Shrinking** ([`ddmin`]) reduces every finding to a minimal
//!   reproducer by deterministic delta-debugging on the input stream.
//!
//! Every run is a pure function of `(seed, config)`: the same seed yields a
//! byte-identical corpus, findings list, and shrunk reproducers, so CI can
//! gate on exact counts (`tests/fuzz_replay.rs`, this crate's `fuzz_bench`
//! binary, and the committed corpus under `tests/corpus/`).

pub mod case;
pub mod corpus;
mod exec;
pub mod gen;
pub mod harness;
pub mod shrink;
pub mod target;
pub mod triage;

pub use case::{FuzzCase, Reproducer};
pub use gen::{generate, GenOpts};
pub use harness::{fuzz, replay, FuzzConfig, FuzzReport, ReplayOutcome, TargetStats};
pub use shrink::{ddmin, ShrinkOutcome};
pub use target::TargetId;
pub use triage::{Finding, Verdict};

/// Errors from deployment, drive, or corpus I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuzzError(String);

impl FuzzError {
    /// Creates an error from any message.
    pub fn msg(message: impl Into<String>) -> Self {
        Self(message.into())
    }
}

impl std::fmt::Display for FuzzError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fuzz: {}", self.0)
    }
}

impl std::error::Error for FuzzError {}

impl From<String> for FuzzError {
    fn from(message: String) -> Self {
        Self(message)
    }
}

impl From<rddr_net::NetError> for FuzzError {
    fn from(e: rddr_net::NetError) -> Self {
        Self(format!("net: {e}"))
    }
}

impl From<rddr_pgsim::SqlError> for FuzzError {
    fn from(e: rddr_pgsim::SqlError) -> Self {
        Self(format!("sql: {e}"))
    }
}

impl From<std::io::Error> for FuzzError {
    fn from(e: std::io::Error) -> Self {
        Self(format!("io: {e}"))
    }
}

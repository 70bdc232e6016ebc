//! The RDDR N-versioning engine — the primary contribution of
//! *"Back to the future: N-Versioning of Microservices"* (DSN 2022).
//!
//! RDDR protects a microservice by running N diverse instances of it and
//! treating any post-filter divergence in their outputs as a potential data
//! leak. One exchange flows through four phases (§IV-B of the paper):
//!
//! 1. **Replicate** — a client request is rewritten per instance (ephemeral
//!    state such as CSRF tokens is re-inserted) and fanned out to all N
//!    instances ([`NVersionEngine::replicate_request`]).
//! 2. **De-noise** — a designated *filter pair* of identical instances
//!    identifies nondeterministic output (session ids, ASLR'd pointers);
//!    byte ranges on which the pair disagrees are masked ([`NoiseMask`]).
//! 3. **Diff** — responses are tokenized by a protocol module and compared
//!    after masking, known-variance exclusion (§IV-B4) and ephemeral-state
//!    capture (§IV-B3) ([`NVersionEngine::evaluate_responses`]).
//! 4. **Respond** — under the paper's policy, a unanimous response is
//!    forwarded and a divergence severs the connection; classic majority
//!    voting is available as an ablation ([`ResponsePolicy`]).
//!
//! The engine is transport-agnostic and synchronous: it consumes the bytes
//! each instance produced and renders verdicts. The `rddr-proxy` crate wires
//! it to real connections.
//!
//! # Examples
//!
//! Detecting a data leak between two diverse instances:
//!
//! ```
//! use rddr_core::{EngineConfig, NVersionEngine, Verdict};
//! use rddr_core::protocol::LineProtocol;
//!
//! # fn main() -> Result<(), rddr_core::RddrError> {
//! let config = EngineConfig::builder(2).build()?;
//! let mut engine = NVersionEngine::new(config, LineProtocol::new());
//!
//! // Both instances answer a benign request identically: forwarded.
//! let verdict = engine.evaluate_responses(&[b"ok\n".to_vec(), b"ok\n".to_vec()])?;
//! assert!(matches!(verdict, Verdict::Unanimous(_)));
//!
//! // One instance leaks extra data: blocked.
//! let verdict = engine.evaluate_responses(&[
//!     b"ok\n".to_vec(),
//!     b"ok\nSECRET ROW 42\n".to_vec(),
//! ])?;
//! assert!(matches!(verdict, Verdict::Divergent(_)));
//! # Ok(())
//! # }
//! ```

mod config;
mod configfile;
mod denoise;
mod diff;
mod engine;
mod ephemeral;
mod error;
mod frame;
mod glob;
mod metrics;
mod policy;
pub mod protocol;
mod report;
mod scan;
mod signature;
mod variance;

pub use config::{EngineConfig, EngineConfigBuilder};
pub use configfile::ConfigFile;
pub use denoise::{NoiseMask, SegmentMask};
pub use diff::{diff_segments, DiffOutcome};
pub use engine::{ExchangeOutcome, NVersionEngine, RequestCopy, SessionState, Verdict};
pub use ephemeral::{EphemeralStore, EphemeralToken, MAX_LIVE_TOKENS, MIN_TOKEN_LEN};
pub use error::RddrError;
pub use frame::{Direction, Frame, Segment, SegmentTable};
pub use glob::GlobPattern;
pub use metrics::{EngineCounters, EngineMetrics};
pub use policy::{
    DegradePolicy, PolicyDecision, ResponsePolicy, SurvivorPolicy, INTERVENTION_PAGE,
};
pub use protocol::Protocol;
pub use report::{DivergenceDetail, DivergenceReport};
pub use scan::find_byte;
pub use signature::SignatureThrottle;
pub use variance::{VarianceRule, VarianceRules};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, RddrError>;

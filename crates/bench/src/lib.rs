//! Shared harness machinery for regenerating the paper's cost figures
//! (Figs 4–6) and the ablations.
//!
//! Each `src/bin/*` binary reproduces one artifact (see `DESIGN.md`'s
//! experiment index); this library holds the deployment builders, client
//! drivers and summary statistics they share.

pub mod deploy;
pub mod driver;
pub mod report;
pub mod stats;

pub use deploy::{
    deploy_pg_baseline, deploy_pg_envoy, deploy_pg_rddr, PgDeployment, PG_COST_MODEL,
};
pub use driver::{run_pgbench, run_tpch, RunOutcome};
pub use report::{json_path_from_args, write_report};
pub use stats::{percentile, Summary};

/// Reads a `f64` parameter from the environment with a default, so the
/// figure binaries can be scaled up/down without recompiling.
pub fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Reads a `usize` parameter from the environment with a default.
pub fn env_usize(key: &str, default: usize) -> usize {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

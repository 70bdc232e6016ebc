//! MiniPg and MiniCockroach: SQL database simulators for the RDDR evaluation.
//!
//! The paper's evaluation leans on PostgreSQL throughout: the diverse-
//! implementation case study pairs Postgres with CockroachDB (§V-C2), the
//! version-diversity case studies exploit CVE-2017-7484 and CVE-2019-10130
//! (§V-C2, §V-F2), the DVWA SQL-injection scenario uses an external
//! database through the outgoing proxy (§V-B), and the performance study
//! runs TPC-H and pgbench against 3-versioned Postgres (§V-G).
//!
//! This crate rebuilds that substrate from scratch:
//!
//! * [`Database`] — a SQL engine: DDL/DML, multi-table joins, aggregates,
//!   `ORDER BY`/`LIMIT`, subqueries, users and privileges, row-level
//!   security, user-defined functions and operators, `EXPLAIN`. Its rows
//!   live in `rddr-pgstore`'s paged engine on a simulated disk, so an
//!   instance recovers its committed state after a crash under a
//!   per-instance [`RecoveryPolicy`] ([`storage`]).
//! * [`PgVersion`]-gated bugs reproducing both CVEs' leak channels (a
//!   planner that runs user-defined operators over rows the caller may not
//!   see, emitting `NOTICE`s).
//! * [`PgServer`] — an [`rddr_orchestra::Service`] speaking the PostgreSQL
//!   v3 wire format of `rddr_protocols::pg`, charging simulated CPU and
//!   memory to its container.
//! * [`CockroachFlavor`] — the same engine constrained the way CockroachDB
//!   differs: no user-defined functions/operators, serializable-only
//!   isolation, its own version banner (§V-C2).
//! * [`tpch`] and [`pgbench`] — workload generators and query sets for the
//!   paper's Figure 4 and Figures 5–6 respectively.
//!
//! # Examples
//!
//! ```
//! use rddr_pgsim::{Database, PgVersion};
//!
//! # fn main() -> Result<(), rddr_pgsim::SqlError> {
//! let mut db = Database::new(PgVersion::parse("10.7")?);
//! let mut session = db.session("app");
//! db.execute(&mut session, "CREATE TABLE t (id INT, name TEXT)")?;
//! db.execute(&mut session, "INSERT INTO t VALUES (1, 'ada'), (2, 'grace')")?;
//! let result = db.execute(&mut session, "SELECT name FROM t WHERE id = 2")?;
//! assert_eq!(result.rows[0][0].to_string(), "grace");
//! # Ok(())
//! # }
//! ```

mod ast;
mod db;
mod eval;
mod exec;
mod lexer;
mod parser;
pub mod pgbench;
mod server;
pub mod storage;
pub mod tpch;
mod value;
mod version;

pub use db::{CockroachFlavor, Database, DbFlavor, QueryResult, Session, SqlError};
pub use rddr_pgstore::{RecoveryPolicy, RecoveryStats, VDisk};
pub use server::{query_message, startup_message, PgClient, PgResponse, PgServer, PgServerConfig};
pub use storage::{PlanDiskFaults, StorageEngine, ValueCodec};
pub use value::{SqlType, Value};
pub use version::PgVersion;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SqlError>;

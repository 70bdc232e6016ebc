//! The database catalog and statement executor.
//!
//! The executor owns only the *catalog* (column definitions, ownership,
//! privileges, row security) and runs all row access through the paged
//! engine, `rddr_pgstore::PagedStore`, whose recovery policy is chosen per
//! instance via [`crate::storage::StorageEngine`]. Every mutation is
//! transactional: explicit `BEGIN`/`COMMIT`/`ROLLBACK` map to storage
//! transactions, and standalone mutations are wrapped in an implicit one,
//! so every change reaches the WAL with a commit record.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rddr_pgstore::{PagedStore, RecoveryStats, RowId, Storage, StoreError, VDisk};

use crate::ast::{ColumnDef, Expr, Select, Statement};
use crate::eval::{eval, Env, ExecCtx, Schema};
use crate::exec::{resolve, retain_ok, run_select, single_table, unknown_column};
use crate::parser::parse_statement;
use crate::storage::{decode_table_meta, encode_table_meta, StorageEngine, ValueCodec};
use crate::value::{SqlType, Value};
use crate::version::PgVersion;

/// Errors produced by the SQL engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SqlError {
    /// Syntax error.
    Parse(String),
    /// Runtime/semantic error.
    Exec(String),
    /// Privilege violation.
    PermissionDenied(String),
    /// Feature not implemented by this flavor (CockroachDB rejects
    /// user-defined functions and operators, §V-C2 of the paper).
    Unsupported(String),
}

impl fmt::Display for SqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SqlError::Parse(s) => write!(f, "syntax error: {s}"),
            SqlError::Exec(s) => write!(f, "error: {s}"),
            SqlError::PermissionDenied(s) => write!(f, "permission denied for {s}"),
            SqlError::Unsupported(s) => write!(f, "unimplemented: {s}"),
        }
    }
}

impl std::error::Error for SqlError {}

fn store_err(e: StoreError) -> SqlError {
    SqlError::Exec(format!("storage: {e}"))
}

/// Which database product this engine is impersonating.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DbFlavor {
    /// MiniPg — PostgreSQL-shaped, with version-gated CVE behaviour.
    Postgres,
    /// MiniCockroach — same wire protocol and SQL core, different
    /// capabilities (see [`CockroachFlavor`]).
    Cockroach(CockroachFlavor),
}

/// CockroachDB-specific behaviour switches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CockroachFlavor {
    /// The version banner, e.g. `CockroachDB CCL v19.1.0`.
    pub version_banner: String,
    /// When `true`, rows of un-`ORDER BY`ed scans come back in reverse
    /// insertion order — the "unspecified row order" pitfall the paper had
    /// to configure around (§V-C2). Off by default so benign traffic
    /// matches Postgres.
    pub scramble_row_order: bool,
}

impl Default for CockroachFlavor {
    fn default() -> Self {
        Self {
            version_banner: "CockroachDB CCL v19.1.0".into(),
            scramble_row_order: false,
        }
    }
}

/// A user-defined (plpgsql-lite) function: the subset the CVE exploit
/// listings use — an optional `RAISE NOTICE` followed by `RETURN $1 <op> $2`.
#[derive(Debug, Clone, PartialEq)]
pub struct PlFunction {
    name: String,
    arg_count: usize,
    /// `RAISE NOTICE 'template', $a, $b` — template plus argument indices.
    notice: Option<(String, Vec<usize>)>,
    /// `RETURN $1 <op> $2` comparison operator, if any.
    return_op: Option<String>,
}

/// A user-defined operator.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Operator {
    procedure: String,
    restrict: Option<String>,
}

/// One table's catalog entry. Rows live in the storage backend; this is
/// the schema-and-privileges half the executor still owns. Recovery
/// rebuilds `columns`/`owner` from the storage catalog blob; RLS state,
/// policies and grants are deliberately not durable (scenarios re-apply
/// schema policy on boot, like init scripts).
#[derive(Debug, Clone)]
struct Table {
    columns: Vec<ColumnDef>,
    owner: String,
    rls_enabled: bool,
    policies: Vec<Expr>,
    select_grants: BTreeSet<String>,
}

/// A client session: the authenticated user plus session settings.
#[derive(Debug, Clone)]
pub struct Session {
    /// Authenticated user (upper-cased, like identifiers).
    pub user: String,
    settings: BTreeMap<String, String>,
}

impl Session {
    /// Reads a session setting.
    pub fn setting(&self, key: &str) -> Option<&str> {
        self.settings
            .get(&key.to_ascii_uppercase())
            .map(String::as_str)
    }
}

/// The result of executing one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names (empty for non-`SELECT`).
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Vec<Value>>,
    /// `NOTICE` messages raised during execution — the leak channel of
    /// CVE-2017-7484 and CVE-2019-10130.
    pub notices: Vec<String>,
    /// Command tag (`SELECT 3`, `INSERT 0 2`, …).
    pub tag: String,
    /// Rows scanned, for simulated CPU accounting.
    pub scanned: u64,
}

/// A SQL database: catalog and executor over the paged storage engine.
pub struct Database {
    version: PgVersion,
    flavor: DbFlavor,
    tables: BTreeMap<String, Table>,
    functions: BTreeMap<String, PlFunction>,
    operators: BTreeMap<String, Operator>,
    users: BTreeSet<String>,
    store: PagedStore<Vec<Value>, ValueCodec>,
    /// Catalog undo log while an explicit transaction is open: table name →
    /// its pre-transaction catalog entry (`None` = did not exist).
    catalog_undo: Option<BTreeMap<String, Option<Table>>>,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("version", &self.version)
            .field("flavor", &self.flavor)
            .field("policy", &self.store.policy())
            .field("tables", &self.tables.len())
            .finish()
    }
}

/// The bootstrap superuser that owns initial schema.
pub const SUPERUSER: &str = "APP";

impl Database {
    /// Creates a MiniPg database at the given version, on a fresh disk.
    pub fn new(version: PgVersion) -> Self {
        Self::with_flavor(version, DbFlavor::Postgres)
    }

    /// Creates a database with an explicit flavor, on a fresh disk.
    pub fn with_flavor(version: PgVersion, flavor: DbFlavor) -> Self {
        let disk = VDisk::new("db");
        match Self::with_engine(version, flavor, StorageEngine::default(), &disk) {
            Ok(db) => db,
            // A fresh disk holds no WAL, so there is nothing to replay and
            // nothing to fail; satisfy the type without a panic path.
            Err(_) => unreachable!("opening a fresh disk is infallible"),
        }
    }

    /// Creates a database on `disk`, which carries state across restarts —
    /// clone the same [`VDisk`] into a respawned instance and its WAL is
    /// replayed under `engine`'s recovery policy, with the catalog rebuilt
    /// from the recovered tables.
    ///
    /// # Errors
    ///
    /// [`SqlError::Exec`] when WAL replay finds interior corruption or the
    /// recovered catalog blob cannot be decoded.
    pub fn with_engine(
        version: PgVersion,
        flavor: DbFlavor,
        engine: StorageEngine,
        disk: &VDisk,
    ) -> Result<Self, SqlError> {
        let store = PagedStore::open(disk.clone(), ValueCodec, engine.policy).map_err(store_err)?;
        let mut users = BTreeSet::new();
        users.insert(SUPERUSER.to_string());
        let mut db = Self {
            version,
            flavor,
            tables: BTreeMap::new(),
            functions: BTreeMap::new(),
            operators: BTreeMap::new(),
            users,
            store,
            catalog_undo: None,
        };
        for name in db.store.table_names() {
            let meta = db.store.table_meta(&name).unwrap_or_default();
            let (owner, columns) = decode_table_meta(&meta)?;
            db.users.insert(owner.clone());
            db.tables.insert(
                name,
                Table {
                    columns,
                    owner,
                    rls_enabled: false,
                    policies: Vec::new(),
                    select_grants: BTreeSet::new(),
                },
            );
        }
        Ok(db)
    }

    /// The server version banner, as reported in `ParameterStatus` and
    /// `SHOW server_version`.
    pub fn version_banner(&self) -> String {
        match &self.flavor {
            DbFlavor::Postgres => self.version.to_string(),
            DbFlavor::Cockroach(c) => c.version_banner.clone(),
        }
    }

    /// The engine's version.
    pub fn version(&self) -> &PgVersion {
        &self.version
    }

    /// Total bytes of simulated row storage: the live heap pages.
    pub fn storage_bytes(&self) -> u64 {
        self.store.bytes()
    }

    /// What WAL replay found when the instance opened.
    pub fn recovery_stats(&self) -> RecoveryStats {
        self.store.recovery_stats()
    }

    /// Deterministic digest of the full logical row state — the
    /// replay-equivalence probe recovery tests compare across instances,
    /// restarts, and recovery policies.
    pub fn state_digest(&self) -> u64 {
        self.store.state_digest()
    }

    /// Opens a session as `user` (created implicitly if unknown — the wire
    /// server authenticates upstream).
    pub fn session(&mut self, user: &str) -> Session {
        let user = user.to_ascii_uppercase();
        self.users.insert(user.clone());
        Session {
            user,
            settings: BTreeMap::new(),
        }
    }

    pub(crate) fn function(&self, name: &str) -> Option<PlFunction> {
        self.functions.get(name).cloned()
    }

    pub(crate) fn operator_function(&self, symbol: &str) -> Option<PlFunction> {
        let op = self.operators.get(symbol)?;
        self.functions.get(&op.procedure).cloned()
    }

    /// Executes one SQL statement.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError`] for syntax errors, privilege violations,
    /// unsupported features (flavor-dependent), and runtime errors.
    pub fn execute(&mut self, session: &mut Session, sql: &str) -> Result<QueryResult, SqlError> {
        let stmt = parse_statement(sql)?;
        self.execute_statement(session, stmt)
    }

    /// Executes an already-parsed statement.
    ///
    /// # Errors
    ///
    /// See [`Database::execute`].
    pub fn execute_statement(
        &mut self,
        session: &mut Session,
        stmt: Statement,
    ) -> Result<QueryResult, SqlError> {
        match stmt {
            Statement::Select(select) => {
                if let Some(t) = single_table(&select) {
                    let key = self.pinned_key(&t.name, &t.alias, select.where_clause.as_ref());
                    self.prepare_probe(&t.name, key)?;
                }
                self.run_query(session, &select, false)
            }
            Statement::Explain(select) => self.run_query(session, &select, true),
            Statement::CreateTable { name, columns } => {
                if self.tables.contains_key(&name) {
                    return Err(SqlError::Exec(format!(
                        "relation \"{}\" already exists",
                        name.to_lowercase()
                    )));
                }
                self.remember_catalog(&name);
                let meta = encode_table_meta(&session.user, &columns);
                let implicit = self.begin_implicit()?;
                let result = self.store.create_table(&name, &meta);
                self.finish_implicit(implicit, result)?;
                self.tables.insert(
                    name,
                    Table {
                        columns,
                        owner: session.user.clone(),
                        rls_enabled: false,
                        policies: Vec::new(),
                        select_grants: BTreeSet::new(),
                    },
                );
                Ok(tag("CREATE TABLE"))
            }
            Statement::DropTable { name } => {
                let table = self.tables.get(&name).ok_or_else(|| not_found(&name))?;
                if table.owner != session.user && session.user != SUPERUSER {
                    return Err(permission_denied(&name));
                }
                self.remember_catalog(&name);
                let implicit = self.begin_implicit()?;
                let result = self.store.drop_table(&name);
                self.finish_implicit(implicit, result)?;
                self.tables.remove(&name);
                Ok(tag("DROP TABLE"))
            }
            Statement::Insert {
                table,
                columns,
                rows,
            } => self.insert(session, &table, &columns, &rows),
            Statement::Update {
                table,
                sets,
                where_clause,
            } => self.update(session, &table, &sets, where_clause.as_ref()),
            Statement::Delete {
                table,
                where_clause,
            } => self.delete(session, &table, where_clause.as_ref()),
            Statement::CreateFunction {
                name,
                arg_count,
                body,
            } => {
                if let DbFlavor::Cockroach(_) = self.flavor {
                    return Err(SqlError::Unsupported(
                        "user-defined functions are not supported".into(),
                    ));
                }
                let f = parse_pl_body(&name, arg_count, &body)?;
                self.functions.insert(name, f);
                Ok(tag("CREATE FUNCTION"))
            }
            Statement::CreateOperator {
                symbol,
                procedure,
                restrict,
            } => {
                if let DbFlavor::Cockroach(_) = self.flavor {
                    return Err(SqlError::Unsupported(
                        "user-defined operators are not supported".into(),
                    ));
                }
                if !self.functions.contains_key(&procedure) {
                    return Err(SqlError::Exec(format!(
                        "function {} does not exist",
                        procedure.to_lowercase()
                    )));
                }
                self.operators.insert(
                    symbol,
                    Operator {
                        procedure,
                        restrict,
                    },
                );
                Ok(tag("CREATE OPERATOR"))
            }
            Statement::CreateUser { name } => {
                self.users.insert(name);
                Ok(tag("CREATE ROLE"))
            }
            Statement::Grant { table, user } => {
                self.remember_catalog(&table);
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| not_found(&table))?;
                t.select_grants.insert(user);
                Ok(tag("GRANT"))
            }
            Statement::EnableRls { table } => {
                self.remember_catalog(&table);
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| not_found(&table))?;
                t.rls_enabled = true;
                Ok(tag("ALTER TABLE"))
            }
            Statement::CreatePolicy { table, using, .. } => {
                if let DbFlavor::Cockroach(_) = self.flavor {
                    return Err(SqlError::Unsupported("policies are not supported".into()));
                }
                self.remember_catalog(&table);
                let t = self
                    .tables
                    .get_mut(&table)
                    .ok_or_else(|| not_found(&table))?;
                t.policies.push(using);
                Ok(tag("CREATE POLICY"))
            }
            Statement::Set { key, value } => {
                if key == "DEFAULT_TRANSACTION_ISOLATION" {
                    if let DbFlavor::Cockroach(_) = self.flavor {
                        if !value.eq_ignore_ascii_case("serializable") {
                            return Err(SqlError::Unsupported(format!(
                                "isolation level {value} is not supported; only serializable"
                            )));
                        }
                    }
                }
                session.settings.insert(key, value);
                Ok(tag("SET"))
            }
            Statement::Show { key } => {
                let value = if key == "SERVER_VERSION" {
                    self.version_banner()
                } else {
                    session.settings.get(&key).cloned().unwrap_or_default()
                };
                Ok(QueryResult {
                    columns: vec![key.to_ascii_lowercase()],
                    rows: vec![vec![Value::Text(value)]],
                    notices: Vec::new(),
                    tag: "SHOW".into(),
                    scanned: 0,
                })
            }
            Statement::Transaction { verb } => self.transaction_verb(&verb),
        }
    }

    /// `BEGIN`/`COMMIT`/`END`/`ROLLBACK`. Nested `BEGIN` and commits
    /// without a transaction are no-ops (tag only), preserving the
    /// pre-storage-split wire behaviour for benign traffic.
    fn transaction_verb(&mut self, verb: &str) -> Result<QueryResult, SqlError> {
        match verb {
            "BEGIN" if !self.store.in_txn() => {
                self.store.begin().map_err(store_err)?;
                self.catalog_undo = Some(BTreeMap::new());
            }
            "COMMIT" | "END" if self.store.in_txn() => {
                self.store.commit().map_err(store_err)?;
                self.catalog_undo = None;
            }
            "ROLLBACK" if self.store.in_txn() => {
                self.store.rollback().map_err(store_err)?;
                if let Some(undo) = self.catalog_undo.take() {
                    for (name, prior) in undo {
                        match prior {
                            Some(t) => {
                                self.tables.insert(name, t);
                            }
                            None => {
                                self.tables.remove(&name);
                            }
                        }
                    }
                }
            }
            _ => {}
        }
        Ok(tag(verb))
    }

    /// Opens an implicit storage transaction around a standalone mutation;
    /// returns whether one was opened (false inside an explicit txn).
    fn begin_implicit(&mut self) -> Result<bool, SqlError> {
        if self.store.in_txn() {
            return Ok(false);
        }
        self.store.begin().map_err(store_err)?;
        Ok(true)
    }

    /// Completes a mutation: commits the implicit transaction on success,
    /// rolls it back (restoring pre-statement state) on failure.
    fn finish_implicit(
        &mut self,
        implicit: bool,
        result: Result<(), StoreError>,
    ) -> Result<(), SqlError> {
        match result {
            Ok(()) => {
                if implicit {
                    self.store.commit().map_err(store_err)?;
                }
                Ok(())
            }
            Err(e) => {
                if implicit {
                    self.store.rollback().map_err(store_err)?;
                }
                Err(store_err(e))
            }
        }
    }

    /// Records `table`'s pre-transaction catalog entry the first time an
    /// explicit transaction touches it (for `ROLLBACK`).
    fn remember_catalog(&mut self, table: &str) {
        if let Some(undo) = &mut self.catalog_undo {
            if !undo.contains_key(table) {
                undo.insert(table.to_string(), self.tables.get(table).cloned());
            }
        }
    }

    /// All stored rows of `table`, in insertion order.
    fn stored_rows(&self, table: &str) -> Result<Vec<Vec<Value>>, SqlError> {
        let mut rows = Vec::new();
        self.store
            .scan(table, &mut |r| rows.push(r))
            .map_err(store_err)?;
        Ok(rows)
    }

    /// The literal a top-level `AND` conjunct `pkey = literal` of
    /// `where_clause` pins `table`'s first column to, as the statement
    /// knows the table by `alias`. A key pins only when the index spells
    /// it exactly: index keys merge `2` and `2.0` but spell numerics past
    /// 1e15 by type, while `=` compares them as `f64`. NULL equals nothing.
    pub(crate) fn pinned_key<'e>(
        &self,
        table: &str,
        alias: &str,
        where_clause: Option<&'e Expr>,
    ) -> Option<&'e Value> {
        let pkey = &self.tables.get(table)?.columns.first()?.name;
        find_conjunct(where_clause?, &mut |c| {
            let Expr::Binary { op, left, right } = c else {
                return None;
            };
            if op != "=" {
                return None;
            }
            [(left, right), (right, left)]
                .into_iter()
                .find_map(|(a, b)| match (a.as_ref(), b.as_ref()) {
                    (Expr::Column(col), Expr::Literal(v))
                        if &col.column == pkey && col.table.as_ref().is_none_or(|q| q == alias) =>
                    {
                        Some(v)
                    }
                    _ => None,
                })
        })
        .filter(|v| !v.is_null() && v.as_f64().is_none_or(|f| f.abs() < 1e15))
    }

    /// Whether a statement pinning `table`'s key reads it through the
    /// index: when the table is sizeable enough for a probe to beat a scan.
    fn probes(&self, table: &str) -> bool {
        const INDEX_THRESHOLD: u64 = 128;
        self.store.row_count(table).unwrap_or(0) >= INDEX_THRESHOLD
    }

    /// Builds the index a statement pinning `key` on `table` will probe.
    fn prepare_probe(&mut self, table: &str, key: Option<&Value>) -> Result<(), SqlError> {
        if key.is_some() && self.probes(table) {
            self.store.ensure_index(table).map_err(store_err)?;
        }
        Ok(())
    }

    /// The access path: `table`'s stored rows in scan order, each passed
    /// through `wrap` with its address — with a pinned `key`, only the rows
    /// whose first column equals it. A sizeable table with its index built
    /// is probed (charged as the probe plus its candidates), any other is
    /// scanned (charged per row). The rows are the same either way: the
    /// index lists a key's rows in scan order, since it is built by a scan,
    /// grows by appends, and is dropped by whatever would reorder it.
    fn read_rows<T>(
        &self,
        ctx: &ExecCtx<'_>,
        table: &str,
        key: Option<&Value>,
        wrap: impl Fn(RowId, Vec<Value>) -> T,
    ) -> Result<Vec<T>, SqlError> {
        let pinned =
            |row: &[Value]| key.is_none_or(|k| row.first().and_then(|v| v.sql_eq(k)) == Some(true));
        let mut rows = Vec::new();
        if let Some(k) = key.filter(|_| self.probes(table) && self.store.has_index(table)) {
            let candidates = self
                .store
                .lookup_rows(table, k.group_key().as_bytes(), &mut |at, row| {
                    if pinned(&row) {
                        rows.push(wrap(at, row));
                    }
                })
                .map_err(store_err)?;
            ctx.charge_scan(candidates + 1);
            return Ok(rows);
        }
        let mut read = 0;
        self.store
            .scan_rows(table, &mut |at, row| {
                read += 1;
                if pinned(&row) {
                    rows.push(wrap(at, row));
                }
            })
            .map_err(store_err)?;
        ctx.charge_scan(read);
        Ok(rows)
    }

    fn run_query(
        &self,
        session: &Session,
        select: &Select,
        explain: bool,
    ) -> Result<QueryResult, SqlError> {
        let ctx = ExecCtx::new(self, session);
        if explain {
            return self.explain(&ctx, select);
        }
        let result = run_select(&ctx, select, None)?;
        let row_count = result.rows.len();
        Ok(QueryResult {
            columns: result.columns,
            rows: result.rows,
            notices: ctx.notices.into_inner(),
            tag: format!("SELECT {row_count}"),
            scanned: ctx.scanned.get(),
        })
    }

    /// `EXPLAIN`: renders a deterministic plan sketch. On vulnerable
    /// versions, planning user-defined operators with a `restrict=`
    /// selectivity estimator evaluates the operator's function over the
    /// table's rows *without a privilege check* — the CVE-2017-7484 leak.
    fn explain(&self, ctx: &ExecCtx<'_>, select: &Select) -> Result<QueryResult, SqlError> {
        let mut plan = Vec::new();
        for (i, tref) in select.from.iter().enumerate() {
            let name = tref.name.to_lowercase();
            if i == 0 {
                plan.push(format!("Seq Scan on {name}"));
            } else {
                plan.push(format!("Nested Loop Join on {name}"));
            }
        }
        if let Some(w) = &select.where_clause {
            plan.push(format!("  Filter: {}", render_expr(w)));
            // Selectivity estimation: the leak path.
            for tref in &select.from {
                if tref.subquery.is_none() {
                    self.planner_estimate(ctx, &tref.name, &tref.alias, w)?;
                }
            }
        }
        if plan.is_empty() {
            plan.push("Result".to_string());
        }
        Ok(QueryResult {
            columns: vec!["QUERY PLAN".into()],
            rows: plan.into_iter().map(|l| vec![Value::Text(l)]).collect(),
            notices: ctx.notices.borrow().clone(),
            tag: "EXPLAIN".into(),
            scanned: ctx.scanned.get(),
        })
    }

    /// Planner selectivity estimation for user-defined operators.
    ///
    /// Vulnerable versions (CVE-2017-7484) run the estimator's procedure on
    /// every stored row of the referenced table — *including tables the
    /// caller has no `SELECT` privilege on* — leaking values through
    /// `RAISE NOTICE`. Fixed versions check privileges first.
    fn planner_estimate(
        &self,
        ctx: &ExecCtx<'_>,
        table: &str,
        alias: &str,
        where_clause: &Expr,
    ) -> Result<(), SqlError> {
        let admitted =
            if self.version.leaks_planner_stats() || self.can_select(&ctx.session.user, table) {
                Ok(true)
            } else {
                Err(permission_denied(table))
            };
        let read = self.estimate_custom_operators(
            ctx,
            table,
            alias,
            where_clause,
            |_| admitted,
            |_, _| Ok(true),
        )?;
        ctx.charge_scan(read);
        Ok(())
    }

    /// The RLS-pushdown leak probe (CVE-2019-10130): on vulnerable versions,
    /// a `WHERE` containing a user-defined operator is evaluated over *all*
    /// rows — row-security filtering happens above the scan — so the
    /// operator's `RAISE NOTICE` leaks protected rows. Only the *hidden*
    /// rows constitute the leak; visible rows are evaluated by the ordinary
    /// filter anyway.
    pub(crate) fn leak_probe(
        &self,
        ctx: &ExecCtx<'_>,
        table: &str,
        alias: &str,
        where_clause: &Expr,
    ) -> Result<(), SqlError> {
        if !self.version.leaks_rls_rows() {
            return Ok(());
        }
        let user = &ctx.session.user;
        self.estimate_custom_operators(
            ctx,
            table,
            alias,
            where_clause,
            |t| Ok(t.rls_enabled && &t.owner != user && user != SUPERUSER),
            |t, row| Ok(!self.row_visible(ctx, t, row)?),
        )?;
        Ok(())
    }

    /// What a planner's selectivity estimator does with the conjuncts of a
    /// `WHERE` that apply a user-defined operator to one table's columns
    /// alone: evaluates them over the stored rows `pick` chooses, for their
    /// notices, once `admit` lets it. Returns the number of stored rows read.
    fn estimate_custom_operators(
        &self,
        ctx: &ExecCtx<'_>,
        table: &str,
        alias: &str,
        where_clause: &Expr,
        admit: impl FnOnce(&Table) -> Result<bool, SqlError>,
        pick: impl Fn(&Table, &[Value]) -> Result<bool, SqlError>,
    ) -> Result<u64, SqlError> {
        let Some(t) = self.tables.get(table) else {
            return Ok(0); // the scan reports the missing table
        };
        let custom = custom_operator_conjuncts(self, where_clause, alias, &t.columns);
        if custom.is_empty() || !admit(t)? {
            return Ok(0);
        }
        let schema = Schema::Table {
            alias,
            columns: &t.columns,
        };
        let rows = self.stored_rows(table)?;
        for row in &rows {
            if pick(t, row)? {
                let env = Env::new(schema, row, None);
                for c in &custom {
                    eval(ctx, c, &env)?;
                }
            }
        }
        Ok(rows.len() as u64)
    }

    fn row_visible(
        &self,
        ctx: &ExecCtx<'_>,
        table: &Table,
        row: &[Value],
    ) -> Result<bool, SqlError> {
        let schema = Schema::Table {
            alias: "",
            columns: &table.columns,
        };
        let env = Env::new(schema, row, None);
        for p in &table.policies {
            if eval(ctx, p, &env)?.is_truthy() {
                return Ok(true);
            }
        }
        Ok(table.policies.is_empty())
    }

    fn can_select(&self, user: &str, table: &str) -> bool {
        let Some(t) = self.tables.get(table) else {
            return false;
        };
        user == SUPERUSER || t.owner == user || t.select_grants.contains(user)
    }

    /// `table`'s catalog columns, when it exists and the session may read it.
    pub(crate) fn readable_columns(
        &self,
        ctx: &ExecCtx<'_>,
        table: &str,
    ) -> Result<&[ColumnDef], SqlError> {
        let t = self.tables.get(table).ok_or_else(|| not_found(table))?;
        if !self.can_select(&ctx.session.user, table) {
            return Err(permission_denied(table));
        }
        Ok(&t.columns)
    }

    /// The rows of `table` a `SELECT` sees through the access path (all of
    /// them, or those with a pinned `key`): row-level security applied.
    pub(crate) fn visible_rows(
        &self,
        ctx: &ExecCtx<'_>,
        table: &str,
        key: Option<&Value>,
    ) -> Result<Vec<Vec<Value>>, SqlError> {
        let t = self.tables.get(table).ok_or_else(|| not_found(table))?;
        let mut rows = self.read_rows(ctx, table, key, |_, row| row)?;
        if t.rls_enabled && t.owner != ctx.session.user && ctx.session.user != SUPERUSER {
            retain_ok(&mut rows, |row| self.row_visible(ctx, t, row))?;
        }
        if let DbFlavor::Cockroach(c) = &self.flavor {
            if c.scramble_row_order {
                rows.reverse();
            }
        }
        Ok(rows)
    }

    /// Resolves the names an UPDATE's or DELETE's expressions use against
    /// `table`, then builds the index its pinned key (returned) will probe.
    fn prepare_write<'e>(
        &mut self,
        table: &str,
        exprs: impl IntoIterator<Item = &'e Expr>,
        where_clause: Option<&'e Expr>,
    ) -> Result<Option<&'e Value>, SqlError> {
        let t = self.tables.get(table).ok_or_else(|| not_found(table))?;
        let schema = Schema::Table {
            alias: table,
            columns: &t.columns,
        };
        resolve(exprs.into_iter().chain(where_clause), schema, None)?;
        let key = self.pinned_key(table, table, where_clause);
        self.prepare_probe(table, key)?;
        Ok(key)
    }

    /// The matching step of UPDATE and DELETE: reads `table` through the
    /// access path and hands `hit` each row `where_clause` holds for, in
    /// scan order, with its address.
    fn for_each_match(
        &self,
        ctx: &ExecCtx<'_>,
        table: &str,
        key: Option<&Value>,
        where_clause: Option<&Expr>,
        mut hit: impl FnMut(RowId, &Env<'_>) -> Result<(), SqlError>,
    ) -> Result<(), SqlError> {
        let t = self.tables.get(table).ok_or_else(|| not_found(table))?;
        let schema = Schema::Table {
            alias: table,
            columns: &t.columns,
        };
        for (at, row) in self.read_rows(ctx, table, key, |at, row| (at, row))? {
            let env = Env::new(schema, &row, None);
            if where_clause.map_or(Ok(true), |w| eval(ctx, w, &env).map(|v| v.is_truthy()))? {
                hit(at, &env)?;
            }
        }
        Ok(())
    }

    fn insert(
        &mut self,
        session: &Session,
        table: &str,
        columns: &[String],
        rows: &[Vec<Expr>],
    ) -> Result<QueryResult, SqlError> {
        let ctx = ExecCtx::new(self, session);
        let t = self.tables.get(table).ok_or_else(|| not_found(table))?;
        let positions: Vec<usize> = if columns.is_empty() {
            (0..t.columns.len()).collect()
        } else {
            columns
                .iter()
                .map(|c| column_position(&t.columns, c))
                .collect::<Result<_, _>>()?
        };
        let mut new_rows = Vec::with_capacity(rows.len());
        for exprs in rows {
            if exprs.len() != positions.len() {
                return Err(SqlError::Exec(format!(
                    "INSERT has {} expressions but {} target columns",
                    exprs.len(),
                    positions.len()
                )));
            }
            let mut row = vec![Value::Null; t.columns.len()];
            for (expr, &pos) in exprs.iter().zip(&positions) {
                let env = Env::new(Schema::Pairs(&[]), &[], None);
                let v = eval(&ctx, expr, &env)?;
                row[pos] = coerce(v, t.columns[pos].ty)?;
            }
            new_rows.push(row);
        }
        drop(ctx);
        let count = new_rows.len();
        let implicit = self.begin_implicit()?;
        let result = self.store.insert(table, new_rows);
        self.finish_implicit(implicit, result)?;
        Ok(tag(&format!("INSERT 0 {count}")))
    }

    fn update(
        &mut self,
        session: &Session,
        table: &str,
        sets: &[(String, Expr)],
        where_clause: Option<&Expr>,
    ) -> Result<QueryResult, SqlError> {
        let t = self.tables.get(table).ok_or_else(|| not_found(table))?;
        let set_positions: Vec<(usize, &Expr)> = sets
            .iter()
            .map(|(c, e)| Ok((column_position(&t.columns, c)?, e)))
            .collect::<Result<_, SqlError>>()?;
        let key = self.prepare_write(table, sets.iter().map(|(_, e)| e), where_clause)?;
        let ctx = ExecCtx::new(self, session);
        let columns = &self.tables[table].columns;
        let mut changed = Vec::new();
        self.for_each_match(&ctx, table, key, where_clause, |at, env| {
            let mut updated = env.row.to_vec();
            for &(pos, expr) in &set_positions {
                updated[pos] = coerce(eval(&ctx, expr, env)?, columns[pos].ty)?;
            }
            changed.push((at, updated));
            Ok(())
        })?;
        let scanned = ctx.scanned.get();
        drop(ctx);
        let count = changed.len();
        let implicit = self.begin_implicit()?;
        let result = self.store.update(table, changed);
        self.finish_implicit(implicit, result)?;
        Ok(QueryResult {
            tag: format!("UPDATE {count}"),
            scanned,
            ..QueryResult::default()
        })
    }

    fn delete(
        &mut self,
        session: &Session,
        table: &str,
        where_clause: Option<&Expr>,
    ) -> Result<QueryResult, SqlError> {
        let key = self.prepare_write(table, None, where_clause)?;
        let ctx = ExecCtx::new(self, session);
        let mut doomed = Vec::new();
        self.for_each_match(&ctx, table, key, where_clause, |at, _| {
            doomed.push(at);
            Ok(())
        })?;
        let scanned = ctx.scanned.get();
        drop(ctx);
        let removed = doomed.len();
        let implicit = self.begin_implicit()?;
        let result = self.store.delete(table, &doomed);
        self.finish_implicit(implicit, result)?;
        Ok(QueryResult {
            tag: format!("DELETE {removed}"),
            scanned,
            ..QueryResult::default()
        })
    }
}

/// Invokes a plpgsql-lite function: raises its notice (if any) with `%`
/// placeholders substituted, then evaluates its `RETURN` comparison.
pub(crate) fn call_pl_function(
    ctx: &ExecCtx<'_>,
    f: &PlFunction,
    args: &[Value],
) -> Result<Value, SqlError> {
    if args.len() != f.arg_count {
        return Err(SqlError::Exec(format!(
            "function {} expects {} arguments, got {}",
            f.name.to_lowercase(),
            f.arg_count,
            args.len()
        )));
    }
    if let Some((template, indices)) = &f.notice {
        let mut text = String::new();
        let mut arg_iter = indices.iter();
        for ch in template.chars() {
            if ch == '%' {
                match arg_iter.next() {
                    Some(&i) => {
                        text.push_str(&args.get(i - 1).cloned().unwrap_or(Value::Null).to_string())
                    }
                    None => text.push('%'),
                }
            } else {
                text.push(ch);
            }
        }
        ctx.notice(format!("NOTICE: {text}"));
    }
    match &f.return_op {
        Some(op) => {
            let l = args.first().cloned().unwrap_or(Value::Null);
            let r = args.get(1).cloned().unwrap_or(Value::Null);
            match op.as_str() {
                ">" => Ok(cmp_bool(&l, &r, std::cmp::Ordering::Greater)),
                "<" => Ok(cmp_bool(&l, &r, std::cmp::Ordering::Less)),
                "=" => Ok(match l.sql_eq(&r) {
                    Some(b) => Value::Bool(b),
                    None => Value::Null,
                }),
                ">=" => Ok(match l.sql_cmp(&r) {
                    Some(o) => Value::Bool(o != std::cmp::Ordering::Less),
                    None => Value::Null,
                }),
                "<=" => Ok(match l.sql_cmp(&r) {
                    Some(o) => Value::Bool(o != std::cmp::Ordering::Greater),
                    None => Value::Null,
                }),
                other => Err(SqlError::Exec(format!("unsupported return op {other}"))),
            }
        }
        None => Ok(Value::Bool(true)),
    }
}

fn cmp_bool(l: &Value, r: &Value, want: std::cmp::Ordering) -> Value {
    match l.sql_cmp(r) {
        Some(o) => Value::Bool(o == want),
        None => Value::Null,
    }
}

/// Parses the plpgsql-lite body subset used by the exploit listings.
fn parse_pl_body(name: &str, arg_count: usize, body: &str) -> Result<PlFunction, SqlError> {
    let mut notice = None;
    if let Some(idx) = body.to_ascii_uppercase().find("RAISE NOTICE") {
        let rest = &body[idx + "RAISE NOTICE".len()..];
        let open = rest
            .find('\'')
            .ok_or_else(|| SqlError::Parse("RAISE NOTICE needs a string".into()))?;
        // The template string (with '' escapes).
        let mut template = String::new();
        let bytes: Vec<char> = rest[open + 1..].chars().collect();
        let mut i = 0;
        loop {
            if i >= bytes.len() {
                return Err(SqlError::Parse("unterminated notice template".into()));
            }
            if bytes[i] == '\'' {
                if bytes.get(i + 1) == Some(&'\'') {
                    template.push('\'');
                    i += 2;
                } else {
                    i += 1;
                    break;
                }
            } else {
                template.push(bytes[i]);
                i += 1;
            }
        }
        // Argument list: `, $1, $2`.
        let tail: String = bytes[i..].iter().collect();
        let tail = tail.split(';').next().unwrap_or("");
        let mut indices = Vec::new();
        for part in tail.split(',') {
            let part = part.trim();
            if let Some(num) = part.strip_prefix('$') {
                if let Ok(n) = num.parse::<usize>() {
                    indices.push(n);
                }
            }
        }
        notice = Some((template, indices));
    }
    let mut return_op = None;
    if let Some(idx) = body.to_ascii_uppercase().find("RETURN ") {
        let rest = &body[idx + "RETURN ".len()..];
        let clause = rest.split(';').next().unwrap_or("").trim();
        // Pattern: $1 <op> $2
        let parts: Vec<&str> = clause.split_whitespace().collect();
        if parts.len() == 3 && parts[0].starts_with('$') && parts[2].starts_with('$') {
            return_op = Some(parts[1].to_string());
        }
    }
    Ok(PlFunction {
        name: name.to_string(),
        arg_count,
        notice,
        return_op,
    })
}

/// Collects WHERE conjuncts that use a user-defined operator and reference
/// only columns of the given table.
fn custom_operator_conjuncts(
    db: &Database,
    where_clause: &Expr,
    alias: &str,
    columns: &[ColumnDef],
) -> Vec<Expr> {
    fn walk(db: &Database, e: &Expr, out: &mut Vec<Expr>) {
        match e {
            Expr::Binary { op, left, right } => {
                if db.operators.contains_key(op.as_ref()) {
                    out.push(e.clone());
                } else {
                    walk(db, left, out);
                    walk(db, right, out);
                }
            }
            Expr::Unary { expr, .. } => walk(db, expr, out),
            _ => {}
        }
    }
    let mut found = Vec::new();
    walk(db, where_clause, &mut found);
    found.retain(|e| {
        unknown_column(e, &|r| {
            columns.iter().any(|c| c.name == r.column)
                && r.table.as_ref().is_none_or(|t| t == alias)
        })
        .is_none()
    });
    found
}

fn coerce(v: Value, ty: SqlType) -> Result<Value, SqlError> {
    Ok(match (v, ty) {
        (Value::Null, _) => Value::Null,
        (Value::Int(i), SqlType::Float) => Value::Float(i as f64),
        (Value::Float(f), SqlType::Int) if f.fract() == 0.0 => Value::Int(f as i64),
        (Value::Int(i), SqlType::Text) => Value::Text(i.to_string()),
        (v @ Value::Int(_), SqlType::Int) => v,
        (v @ Value::Float(_), SqlType::Float) => v,
        (v @ Value::Text(_), SqlType::Text) => v,
        (v @ Value::Bool(_), SqlType::Bool) => v,
        (v, ty) => {
            return Err(SqlError::Exec(format!("cannot store {v} in {ty} column")));
        }
    })
}

fn tag(t: &str) -> QueryResult {
    QueryResult {
        tag: t.to_string(),
        ..QueryResult::default()
    }
}

/// Where the column an INSERT or UPDATE names by `name` sits in a row.
fn column_position(columns: &[ColumnDef], name: &str) -> Result<usize, SqlError> {
    columns
        .iter()
        .position(|c| c.name == name)
        .ok_or_else(|| SqlError::Exec(format!("column {} does not exist", name.to_lowercase())))
}

fn permission_denied(table: &str) -> SqlError {
    SqlError::PermissionDenied(format!("table {}", table.to_lowercase()))
}

fn not_found(table: &str) -> SqlError {
    SqlError::Exec(format!(
        "relation \"{}\" does not exist",
        table.to_lowercase()
    ))
}

/// The first `Some` that `f` returns over `expr`'s `AND` conjuncts, left to
/// right.
fn find_conjunct<'e, T>(expr: &'e Expr, f: &mut impl FnMut(&'e Expr) -> Option<T>) -> Option<T> {
    match expr {
        Expr::Binary { op, left, right } if op == "AND" => {
            find_conjunct(left, f).or_else(|| find_conjunct(right, f))
        }
        other => f(other),
    }
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Literal(v) => v.to_string(),
        Expr::Column(c) => match &c.table {
            Some(t) => format!("{}.{}", t.to_lowercase(), c.column.to_lowercase()),
            None => c.column.to_lowercase(),
        },
        Expr::Binary { op, left, right } => {
            format!("({} {} {})", render_expr(left), op, render_expr(right))
        }
        Expr::Unary { op, expr } => format!("{op} {}", render_expr(expr)),
        _ => "…".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `check` against a 500-account pgbench database. The load
    /// leaves no index behind: only point statements build one.
    fn on_pgbench(check: impl Fn(&mut Database, &mut Session)) {
        let mut db = Database::new(PgVersion::parse("10.7").unwrap());
        crate::pgbench::load_scaled(&mut db, 1, 500).unwrap();
        assert!(!db.store.has_index("PGBENCH_ACCOUNTS"));
        let mut session = db.session("app");
        check(&mut db, &mut session);
    }

    /// UPDATE/DELETE by primary key go through the index and leave it
    /// standing: the statement after them is as cheap as the one before.
    #[test]
    fn point_writes_probe_the_index_and_keep_it() {
        on_pgbench(|db, session| {
            let mut run = |db: &mut Database, sql: &str| db.execute(session, sql).unwrap();

            let r = run(
                db,
                "UPDATE pgbench_accounts SET abalance = abalance + 7 WHERE aid = 250",
            );
            assert_eq!(r.tag, "UPDATE 1");
            assert_eq!(r.scanned, 2, "one candidate plus the probe");
            assert!(db.store.has_index("PGBENCH_ACCOUNTS"));
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 250");
            assert!(r.scanned < 10, "scanned {}", r.scanned);

            let r = run(db, "DELETE FROM pgbench_accounts WHERE aid = 251");
            assert_eq!((r.tag.as_str(), r.scanned), ("DELETE 1", 2));
            assert!(db.store.has_index("PGBENCH_ACCOUNTS"));
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 251");
            assert_eq!(
                (r.rows.len(), r.scanned),
                (0, 1),
                "dead entry not a candidate"
            );

            // A WHERE the index cannot serve still reads (and charges) the
            // whole table.
            let r = run(
                db,
                "UPDATE pgbench_accounts SET abalance = 0 WHERE abalance > 100000",
            );
            assert_eq!((r.tag.as_str(), r.scanned), ("UPDATE 0", 499));
        });
    }

    /// The index a point SELECT builds between a scan-path DELETE and its
    /// ROLLBACK has never seen the deleted rows; point statements after the
    /// rollback must find them all the same.
    #[test]
    fn rows_a_rollback_revives_are_found_by_point_statements() {
        on_pgbench(|db, session| {
            let mut run = |db: &mut Database, sql: &str| db.execute(session, sql).unwrap();
            run(db, "BEGIN");
            let r = run(
                db,
                "DELETE FROM pgbench_accounts WHERE aid > 10 AND aid < 20",
            );
            assert_eq!(r.tag, "DELETE 9");
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 50");
            assert_eq!(r.rows.len(), 1);
            assert!(db.store.has_index("PGBENCH_ACCOUNTS"));
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 15");
            assert_eq!(r.rows.len(), 0, "deleted inside the transaction");
            run(db, "ROLLBACK");

            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 15");
            assert_eq!(r.rows.len(), 1);
            let r = run(
                db,
                "UPDATE pgbench_accounts SET abalance = 1 WHERE aid = 16",
            );
            assert_eq!(r.tag, "UPDATE 1");
            let r = run(db, "DELETE FROM pgbench_accounts WHERE aid = 17");
            assert_eq!(r.tag, "DELETE 1");
            let r = run(db, "SELECT count(*) FROM pgbench_accounts");
            assert_eq!(r.rows, [[Value::Int(499)]]);
        });
    }

    /// A row no heap page can hold (the engine's 4 KiB page) is an error
    /// result like any failed statement: nothing changes, and the session
    /// carries on, inside a transaction or not.
    #[test]
    fn an_oversize_row_is_an_error_that_changes_nothing() {
        let mut db = Database::new(PgVersion::parse("10.7").unwrap());
        let mut session = db.session("app");
        let mut run = |db: &mut Database, sql: &str| db.execute(&mut session, sql);
        run(&mut db, "CREATE TABLE t (id INT, note TEXT)").unwrap();
        run(&mut db, "INSERT INTO t VALUES (1, 'small')").unwrap();
        let digest = db.state_digest();
        let big = "x".repeat(5 * 1024);
        for sql in [
            format!("INSERT INTO t VALUES (2, '{big}')"),
            format!("UPDATE t SET note = '{big}' WHERE id = 1"),
        ] {
            for in_txn in [false, true] {
                if in_txn {
                    run(&mut db, "BEGIN").unwrap();
                }
                let err = run(&mut db, &sql).unwrap_err();
                assert!(err.to_string().contains("exceeds page capacity"), "{err}");
                assert_eq!(db.state_digest(), digest, "{sql:.30}");
                let r = run(&mut db, "SELECT count(*) FROM t").unwrap();
                assert_eq!(r.rows, [[Value::Int(1)]]);
                if in_txn {
                    run(&mut db, "COMMIT").unwrap();
                }
            }
        }
        run(&mut db, "INSERT INTO t VALUES (3, 'after')").unwrap();
        let r = run(&mut db, "SELECT note FROM t").unwrap();
        assert_eq!(
            r.rows,
            [["small"], ["after"]].map(|[n]| [Value::Text(n.into())])
        );
    }

    /// Index keys spell numerics past 1e15 by type, a WHERE's `=` compares
    /// them as `f64`: a float literal equal to a huge integer key would miss
    /// it through the index, so such writes scan.
    #[test]
    fn writes_by_keys_the_index_spells_by_type_scan() {
        on_pgbench(|db, session| {
            let mut run = |db: &mut Database, sql: &str| db.execute(session, sql).unwrap();
            run(
                db,
                "INSERT INTO pgbench_accounts VALUES (2000000000000000, 1, 5, 'a')",
            );
            // Make sure an index is there to be (wrongly) probed.
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 7");
            assert!(r.scanned < 10, "scanned {}", r.scanned);
            for literal in ["2000000000000000", "2000000000000000.0"] {
                let r = run(
                    db,
                    &format!("UPDATE pgbench_accounts SET abalance = 6 WHERE aid = {literal}"),
                );
                assert_eq!(r.tag, "UPDATE 1", "{literal}");
            }
            let r = run(
                db,
                "DELETE FROM pgbench_accounts WHERE aid = 2000000000000000.0",
            );
            assert_eq!(r.tag, "DELETE 1");
            let r = run(db, "SELECT count(*) FROM pgbench_accounts");
            assert_eq!(r.rows, [[Value::Int(500)]]);
        });
    }
}

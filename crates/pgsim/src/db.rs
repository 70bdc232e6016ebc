//! The database catalog and statement executor.
//!
//! Since the storage split, the executor owns only the *catalog* (column
//! definitions, ownership, privileges, row security) and runs all row
//! access through an `rddr_pgstore::Storage` backend — in-memory or paged
//! — chosen per instance via [`crate::storage::StorageEngine`]. Every
//! mutation is transactional: explicit `BEGIN`/`COMMIT`/`ROLLBACK` map to
//! storage transactions, and standalone mutations are wrapped in an
//! implicit one, so on the paged engine every change reaches the WAL with
//! a commit record.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use rddr_pgstore::{RecoveryStats, RowId, StoreError, VDisk};

use crate::ast::{ColumnDef, Expr, Select, Statement};
use crate::eval::{eval, Env, ExecCtx, Schema};
use crate::exec::run_select;
use crate::parser::parse_statement;
use crate::storage::{
    decode_table_meta, encode_table_meta, open_storage, DynStorage, StorageEngine,
};
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

/// A SQL database: catalog and executor over a pluggable storage backend.
pub struct Database {
    version: PgVersion,
    flavor: DbFlavor,
    tables: BTreeMap<String, Table>,
    functions: BTreeMap<String, PlFunction>,
    operators: BTreeMap<String, Operator>,
    users: BTreeSet<String>,
    store: DynStorage,
    engine: StorageEngine,
    recovery: Option<RecoveryStats>,
    /// Catalog undo log while an explicit transaction is open: table name →
    /// its pre-transaction catalog entry (`None` = did not exist).
    catalog_undo: Option<BTreeMap<String, Option<Table>>>,
}

impl fmt::Debug for Database {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Database")
            .field("version", &self.version)
            .field("flavor", &self.flavor)
            .field("engine", &self.engine)
            .field("tables", &self.tables.len())
            .finish()
    }
}

/// The bootstrap superuser that owns initial schema.
pub const SUPERUSER: &str = "APP";

impl Database {
    /// Creates a MiniPg database at the given version (in-memory storage).
    pub fn new(version: PgVersion) -> Self {
        Self::with_flavor(version, DbFlavor::Postgres)
    }

    /// Creates a database with an explicit flavor (in-memory storage).
    pub fn with_flavor(version: PgVersion, flavor: DbFlavor) -> Self {
        let disk = VDisk::new("mem");
        match Self::with_engine(version, flavor, StorageEngine::InMemory, &disk) {
            Ok(db) => db,
            // In-memory open cannot fail (no WAL to replay); satisfy the
            // type without a panic path.
            Err(_) => unreachable!("in-memory storage open is infallible"),
        }
    }

    /// Creates a database on an explicit storage engine. For
    /// [`StorageEngine::Paged`], `disk` carries state across restarts —
    /// clone the same [`VDisk`] into a respawned instance and its WAL is
    /// replayed under the engine's recovery policy, with the catalog
    /// rebuilt from the recovered tables.
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
        let (store, recovery) = open_storage(engine, disk)?;
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
            engine,
            recovery,
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

    /// Total bytes of simulated row storage (logical heap bytes in-memory,
    /// live heap pages paged).
    pub fn storage_bytes(&self) -> u64 {
        self.store.bytes()
    }

    /// The storage engine this instance was opened with.
    pub fn storage_engine(&self) -> StorageEngine {
        self.engine
    }

    /// What WAL replay found when the instance opened, if the engine
    /// recovers at all (`None` for in-memory storage).
    pub fn recovery_stats(&self) -> Option<RecoveryStats> {
        self.recovery
    }

    /// Deterministic digest of the full logical row state — the
    /// replay-equivalence probe recovery tests compare across engines,
    /// restarts, and recovery policies.
    pub fn state_digest(&self) -> u64 {
        self.store.state_digest()
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.store.in_txn()
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

    /// Executes a `;`-separated script, returning the last statement's
    /// result (like `psql -c` with multiple statements).
    ///
    /// # Errors
    ///
    /// Stops at and returns the first failing statement's error.
    pub fn execute_script(
        &mut self,
        session: &mut Session,
        sql: &str,
    ) -> Result<QueryResult, SqlError> {
        let statements = crate::parser::parse_script(sql)?;
        let mut last = QueryResult::default();
        for stmt in statements {
            last = self.execute_statement(session, stmt)?;
        }
        Ok(last)
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
                if let Some(plan) = self.point_query_plan(session, &select) {
                    self.store.ensure_index(plan.table).map_err(store_err)?;
                    return self.run_point_query(session, &select, &plan);
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
                    return Err(SqlError::PermissionDenied(format!(
                        "table {}",
                        name.to_lowercase()
                    )));
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

    /// Recognizes the indexable point-query shape:
    /// `SELECT cols FROM t WHERE pkey = literal [AND simple-conjuncts]` on a
    /// sizeable table without row security.
    fn point_query_plan<'s>(&self, session: &Session, select: &'s Select) -> Option<PointPlan<'s>> {
        if select.from.len() != 1
            || select.distinct
            || !select.group_by.is_empty()
            || select.having.is_some()
            || !select.order_by.is_empty()
        {
            return None;
        }
        let tref = &select.from[0];
        if tref.subquery.is_some() || tref.left_join_on.is_some() {
            return None;
        }
        let t = self.tables.get(&tref.name)?;
        if t.rls_enabled && t.owner != session.user && session.user != SUPERUSER {
            return None;
        }
        if !self.can_select(&session.user, &tref.name) {
            return None; // let the slow path produce the proper error
        }
        if select
            .items
            .iter()
            .any(|i| i.expr.as_ref().is_some_and(crate::exec::contains_aggregate))
        {
            return None;
        }
        let key = self.pkey_probe(&tref.name, &tref.alias, select.where_clause.as_ref())?;
        Some(PointPlan {
            table: &tref.name,
            alias: &tref.alias,
            key,
        })
    }

    /// The literal a `pkey = literal` conjunct of `where_clause` pins
    /// `table`'s first column to, when the table is sizeable enough for an
    /// index probe to beat a scan. `alias` is the name the statement knows
    /// the table by.
    fn pkey_probe<'e>(
        &self,
        table: &str,
        alias: &str,
        where_clause: Option<&'e Expr>,
    ) -> Option<&'e Value> {
        const INDEX_THRESHOLD: u64 = 128;
        let pkey = &self.tables.get(table)?.columns.first()?.name;
        if self.store.row_count(table).unwrap_or(0) < INDEX_THRESHOLD {
            return None;
        }
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
    }

    /// Runs a point query: probes the index, keeps the candidates every
    /// `WHERE` conjunct holds for, and projects them. The rows move from
    /// the probe to the result; the schema is the catalog's own columns.
    fn run_point_query(
        &self,
        session: &Session,
        select: &Select,
        plan: &PointPlan<'_>,
    ) -> Result<QueryResult, SqlError> {
        let ctx = ExecCtx::new(self, session);
        let t = self.tables.get(plan.table).expect("plan checked table");
        let schema = Schema::Table {
            alias: plan.alias,
            columns: &t.columns,
        };
        let mut rows: Vec<Vec<Value>> = Vec::new();
        let candidates = self
            .store
            .lookup(plan.table, plan.key.group_key().as_bytes(), &mut |r| {
                rows.push(r)
            })
            .map_err(store_err)?;
        ctx.charge_scan(candidates + 1); // index probe + matches
        let where_clause = select.where_clause.as_ref().expect("plan has WHERE");
        // Keep the matches in place, in candidate order.
        let mut kept = 0;
        for i in 0..rows.len() {
            let env = Env {
                schema,
                row: &rows[i],
                parent: None,
            };
            if conjuncts_hold(&ctx, where_clause, &env)? {
                rows.swap(kept, i);
                kept += 1;
            }
        }
        rows.truncate(kept);
        // Project through the ordinary item machinery for identical output.
        for row in &mut rows {
            let env = Env {
                schema,
                row,
                parent: None,
            };
            let mut out = Vec::with_capacity(select.items.len());
            for item in &select.items {
                match &item.expr {
                    None => out.extend(env.row.iter().take(t.columns.len()).cloned()),
                    Some(e) => out.push(eval(&ctx, e, &env)?),
                }
            }
            *row = out;
        }
        if let Some(limit) = select.limit {
            rows.truncate(limit as usize);
        }
        let mut columns = Vec::with_capacity(select.items.len());
        for item in &select.items {
            match (&item.expr, &item.alias) {
                (None, _) => {
                    columns.extend(t.columns.iter().map(|c| c.name.to_ascii_lowercase()));
                }
                (Some(_), Some(alias)) => columns.push(alias.to_ascii_lowercase()),
                (Some(Expr::Column(c)), None) => columns.push(c.column.to_ascii_lowercase()),
                (Some(_), None) => columns.push("?column?".to_string()),
            }
        }
        let n = rows.len();
        Ok(QueryResult {
            columns,
            rows,
            notices: ctx.notices.into_inner(),
            tag: format!("SELECT {n}"),
            scanned: ctx.scanned.get(),
        })
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
        let Some(t) = self.tables.get(table) else {
            return Ok(()); // scan error surfaces later
        };
        let custom_conjuncts = custom_operator_conjuncts(self, where_clause, alias, &t.columns);
        if custom_conjuncts.is_empty() {
            return Ok(());
        }
        let readable = self.can_select(&ctx.session.user, table);
        if !self.version.leaks_planner_stats() && !readable {
            return Err(SqlError::PermissionDenied(format!(
                "table {}",
                table.to_lowercase()
            )));
        }
        // Evaluate the operator over stored rows ("statistics") — the leak.
        let schema = Schema::Table {
            alias,
            columns: &t.columns,
        };
        let rows = self.stored_rows(table)?;
        for row in &rows {
            let env = Env {
                schema,
                row,
                parent: None,
            };
            for c in &custom_conjuncts {
                let _ = eval(ctx, c, &env)?;
            }
        }
        ctx.charge_scan(rows.len() as u64);
        Ok(())
    }

    /// The RLS-pushdown leak probe (CVE-2019-10130): on vulnerable versions,
    /// a `WHERE` containing a user-defined operator is evaluated over *all*
    /// rows — row-security filtering happens above the scan — so the
    /// operator's `RAISE NOTICE` leaks protected rows.
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
        let Some(t) = self.tables.get(table) else {
            return Ok(());
        };
        if !t.rls_enabled || t.owner == ctx.session.user || ctx.session.user == SUPERUSER {
            return Ok(()); // nothing hidden to leak
        }
        let custom = custom_operator_conjuncts(self, where_clause, alias, &t.columns);
        if custom.is_empty() {
            return Ok(());
        }
        let schema = Schema::Table {
            alias,
            columns: &t.columns,
        };
        // Only the *hidden* rows constitute the leak; visible rows are
        // evaluated by the ordinary filter anyway.
        let rows = self.stored_rows(table)?;
        for row in &rows {
            let env = Env {
                schema,
                row,
                parent: None,
            };
            let visible = self.row_visible(ctx, t, row)?;
            if !visible {
                for c in &custom {
                    let _ = eval(ctx, c, &env)?;
                }
            }
        }
        Ok(())
    }

    fn row_visible(
        &self,
        ctx: &ExecCtx<'_>,
        table: &Table,
        row: &[Value],
    ) -> Result<bool, SqlError> {
        let env = Env {
            schema: Schema::Table {
                alias: "",
                columns: &table.columns,
            },
            row,
            parent: None,
        };
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

    /// Rows visible to the session: privilege check plus row-level security.
    pub(crate) fn visible_rows(
        &self,
        ctx: &ExecCtx<'_>,
        table: &str,
    ) -> Result<(Vec<String>, Vec<Vec<Value>>), SqlError> {
        let t = self.tables.get(table).ok_or_else(|| not_found(table))?;
        if !self.can_select(&ctx.session.user, table) {
            return Err(SqlError::PermissionDenied(format!(
                "table {}",
                table.to_lowercase()
            )));
        }
        let cols: Vec<String> = t.columns.iter().map(|c| c.name.clone()).collect();
        let exempt = t.owner == ctx.session.user || ctx.session.user == SUPERUSER;
        let stored = self.stored_rows(table)?;
        let mut rows = Vec::with_capacity(stored.len());
        for row in stored {
            if !t.rls_enabled || exempt || self.row_visible(ctx, t, &row)? {
                rows.push(row);
            }
        }
        if let DbFlavor::Cockroach(c) = &self.flavor {
            if c.scramble_row_order {
                rows.reverse();
            }
        }
        Ok((cols, rows))
    }

    /// The rows an UPDATE/DELETE must judge its WHERE on, with their
    /// storage addresses, and the scan charge for fetching them: through
    /// the index when the WHERE pins the primary key (`candidates + 1`, as
    /// the point SELECT charges), every row otherwise.
    fn write_candidates(
        &mut self,
        table: &str,
        where_clause: Option<&Expr>,
    ) -> Result<(Vec<AddressedRow>, u64), SqlError> {
        if !self.tables.contains_key(table) {
            return Err(not_found(table));
        }
        let mut rows = Vec::new();
        let key = self.pkey_probe(table, table, where_clause);
        if let Some(key) = key.filter(|k| index_key_is_exact(k)) {
            self.store.ensure_index(table).map_err(store_err)?;
            let candidates = self
                .store
                .lookup_rows(table, key.group_key().as_bytes(), &mut |at, r| {
                    rows.push((at, r));
                })
                .map_err(store_err)?;
            return Ok((rows, candidates + 1));
        }
        self.store
            .scan_rows(table, &mut |at, r| rows.push((at, r)))
            .map_err(store_err)?;
        let charge = rows.len() as u64;
        Ok((rows, charge))
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
                .map(|c| {
                    t.columns
                        .iter()
                        .position(|cd| &cd.name == c)
                        .ok_or_else(|| {
                            SqlError::Exec(format!("column {} does not exist", c.to_lowercase()))
                        })
                })
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
                let env = Env {
                    schema: Schema::Pairs(&[]),
                    row: &[],
                    parent: None,
                };
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
        let (candidates, charge) = self.write_candidates(table, where_clause)?;
        let t = self.tables.get(table).ok_or_else(|| not_found(table))?;
        let schema = Schema::Table {
            alias: table,
            columns: &t.columns,
        };
        let set_positions: Vec<(usize, &Expr)> = sets
            .iter()
            .map(|(c, e)| {
                t.columns
                    .iter()
                    .position(|cd| &cd.name == c)
                    .map(|p| (p, e))
                    .ok_or_else(|| {
                        SqlError::Exec(format!("column {} does not exist", c.to_lowercase()))
                    })
            })
            .collect::<Result<_, _>>()?;
        let ctx = ExecCtx::new(self, session);
        let mut changed = Vec::new();
        for (at, row) in candidates {
            let env = Env {
                schema,
                row: &row,
                parent: None,
            };
            let hit = match where_clause {
                Some(w) => eval(&ctx, w, &env)?.is_truthy(),
                None => true,
            };
            if hit {
                let mut updated = row.clone();
                for (pos, expr) in &set_positions {
                    let v = eval(&ctx, expr, &env)?;
                    updated[*pos] = coerce(v, t.columns[*pos].ty)?;
                }
                changed.push((at, updated));
            }
        }
        ctx.charge_scan(charge);
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
        let (candidates, charge) = self.write_candidates(table, where_clause)?;
        let t = self.tables.get(table).ok_or_else(|| not_found(table))?;
        let schema = Schema::Table {
            alias: table,
            columns: &t.columns,
        };
        let ctx = ExecCtx::new(self, session);
        let mut doomed = Vec::new();
        for (at, row) in &candidates {
            let env = Env {
                schema,
                row,
                parent: None,
            };
            let hit = match where_clause {
                Some(w) => eval(&ctx, w, &env)?.is_truthy(),
                None => true,
            };
            if hit {
                doomed.push(*at);
            }
        }
        ctx.charge_scan(charge);
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
        let mut refs = Vec::new();
        crate::exec::column_refs(e, &mut refs);
        refs.iter().all(|r| {
            columns.iter().any(|c| c.name == r.column)
                && r.table.as_ref().is_none_or(|t| t == alias)
        })
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

fn not_found(table: &str) -> SqlError {
    SqlError::Exec(format!(
        "relation \"{}\" does not exist",
        table.to_lowercase()
    ))
}

/// A stored row with the address an UPDATE/DELETE names it by.
type AddressedRow = (RowId, Vec<Value>);

/// The recognized point-query pattern, borrowed from the statement.
struct PointPlan<'s> {
    table: &'s str,
    alias: &'s str,
    key: &'s Value,
}

/// Whether the rows a WHERE's `pkey = v` accepts are exactly the rows
/// indexed under `v`'s key. Index keys merge `2` and `2.0` but spell
/// numerics past 1e15 by type, while `=` compares them as `f64` — there an
/// UPDATE/DELETE probing the index would miss a row its WHERE matches.
fn index_key_is_exact(v: &Value) -> bool {
    v.as_f64().is_none_or(|f| f.abs() < 1e15)
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

/// Whether every `AND` conjunct of `expr` is true in `env`, judged left to
/// right up to the first that is not.
fn conjuncts_hold(ctx: &ExecCtx<'_>, expr: &Expr, env: &Env<'_>) -> Result<bool, SqlError> {
    match expr {
        Expr::Binary { op, left, right } if op == "AND" => {
            Ok(conjuncts_hold(ctx, left, env)? && conjuncts_hold(ctx, right, env)?)
        }
        other => Ok(eval(ctx, other, env)?.is_truthy()),
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
    use rddr_pgstore::RecoveryPolicy;

    /// Runs `check` against a 500-account pgbench database on each engine.
    /// The load leaves no index behind: only point statements build one.
    fn on_both_engines(check: impl Fn(StorageEngine, &mut Database, &mut Session)) {
        let paged = StorageEngine::Paged {
            policy: RecoveryPolicy::ReplayForward,
        };
        for engine in [StorageEngine::InMemory, paged] {
            let version = PgVersion::parse("10.7").unwrap();
            let disk = VDisk::new("db");
            let mut db = Database::with_engine(version, DbFlavor::Postgres, engine, &disk).unwrap();
            crate::pgbench::load_scaled(&mut db, 1, 500).unwrap();
            assert!(!db.store.has_index("PGBENCH_ACCOUNTS"), "{engine}");
            let mut session = db.session("app");
            check(engine, &mut db, &mut session);
        }
    }

    /// UPDATE/DELETE by primary key go through the index and leave it
    /// standing, on both engines: the statement after them is as cheap as
    /// the one before.
    #[test]
    fn point_writes_probe_the_index_and_keep_it() {
        on_both_engines(|engine, db, session| {
            let mut run = |db: &mut Database, sql: &str| db.execute(session, sql).unwrap();

            let r = run(
                db,
                "UPDATE pgbench_accounts SET abalance = abalance + 7 WHERE aid = 250",
            );
            assert_eq!(r.tag, "UPDATE 1", "{engine}");
            assert_eq!(r.scanned, 2, "{engine}: one candidate plus the probe");
            assert!(db.store.has_index("PGBENCH_ACCOUNTS"), "{engine}");
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 250");
            assert!(r.scanned < 10, "{engine}: scanned {}", r.scanned);

            let r = run(db, "DELETE FROM pgbench_accounts WHERE aid = 251");
            assert_eq!((r.tag.as_str(), r.scanned), ("DELETE 1", 2), "{engine}");
            assert!(db.store.has_index("PGBENCH_ACCOUNTS"), "{engine}");
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 251");
            assert_eq!(
                (r.rows.len(), r.scanned),
                (0, 1),
                "{engine}: dead entry not a candidate"
            );

            // A WHERE the index cannot serve still reads (and charges) the
            // whole table.
            let r = run(
                db,
                "UPDATE pgbench_accounts SET abalance = 0 WHERE abalance > 100000",
            );
            assert_eq!((r.tag.as_str(), r.scanned), ("UPDATE 0", 499), "{engine}");
        });
    }

    /// The index a point SELECT builds between a scan-path DELETE and its
    /// ROLLBACK has never seen the deleted rows; point statements after the
    /// rollback must find them all the same.
    #[test]
    fn rows_a_rollback_revives_are_found_by_point_statements() {
        on_both_engines(|engine, db, session| {
            let mut run = |db: &mut Database, sql: &str| db.execute(session, sql).unwrap();
            run(db, "BEGIN");
            let r = run(
                db,
                "DELETE FROM pgbench_accounts WHERE aid > 10 AND aid < 20",
            );
            assert_eq!(r.tag, "DELETE 9", "{engine}");
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 50");
            assert_eq!(r.rows.len(), 1, "{engine}");
            assert!(db.store.has_index("PGBENCH_ACCOUNTS"), "{engine}");
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 15");
            assert_eq!(r.rows.len(), 0, "{engine}: deleted inside the transaction");
            run(db, "ROLLBACK");

            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 15");
            assert_eq!(r.rows.len(), 1, "{engine}");
            let r = run(
                db,
                "UPDATE pgbench_accounts SET abalance = 1 WHERE aid = 16",
            );
            assert_eq!(r.tag, "UPDATE 1", "{engine}");
            let r = run(db, "DELETE FROM pgbench_accounts WHERE aid = 17");
            assert_eq!(r.tag, "DELETE 1", "{engine}");
            let r = run(db, "SELECT count(*) FROM pgbench_accounts");
            assert_eq!(r.rows, [[Value::Int(499)]], "{engine}");
        });
    }

    /// Index keys spell numerics past 1e15 by type, a WHERE's `=` compares
    /// them as `f64`: a float literal equal to a huge integer key would miss
    /// it through the index, so such writes scan.
    #[test]
    fn writes_by_keys_the_index_spells_by_type_scan() {
        on_both_engines(|engine, db, session| {
            let mut run = |db: &mut Database, sql: &str| db.execute(session, sql).unwrap();
            run(
                db,
                "INSERT INTO pgbench_accounts VALUES (2000000000000000, 1, 5, 'a')",
            );
            // Make sure an index is there to be (wrongly) probed.
            let r = run(db, "SELECT abalance FROM pgbench_accounts WHERE aid = 7");
            assert!(r.scanned < 10, "{engine}: scanned {}", r.scanned);
            for literal in ["2000000000000000", "2000000000000000.0"] {
                let r = run(
                    db,
                    &format!("UPDATE pgbench_accounts SET abalance = 6 WHERE aid = {literal}"),
                );
                assert_eq!(r.tag, "UPDATE 1", "{engine}, {literal}");
            }
            let r = run(
                db,
                "DELETE FROM pgbench_accounts WHERE aid = 2000000000000000.0",
            );
            assert_eq!(r.tag, "DELETE 1", "{engine}");
            let r = run(db, "SELECT count(*) FROM pgbench_accounts");
            assert_eq!(r.rows, [[Value::Int(500)]], "{engine}");
        });
    }
}

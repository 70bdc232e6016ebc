//! The PostgreSQL wire-format server: a [`Service`] that fronts a
//! [`Database`] on the cluster network, charging simulated CPU and memory
//! to its container.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::BytesMut;
use parking_lot::Mutex;
use rddr_net::{BoxStream, Stream};
use rddr_orchestra::{Service, ServiceCtx};
use rddr_protocols::pg::{message_at, PgMessage};

use crate::db::{Database, QueryResult, SqlError};

/// Cost model for simulated query execution.
#[derive(Debug, Clone, Copy)]
pub struct PgServerConfig {
    /// Fixed CPU cost charged per statement.
    pub base_cost: Duration,
    /// CPU cost charged per row scanned.
    pub cost_per_row: Duration,
}

impl Default for PgServerConfig {
    fn default() -> Self {
        Self {
            base_cost: Duration::from_micros(50),
            cost_per_row: Duration::from_micros(2),
        }
    }
}

/// A database server speaking the PostgreSQL v3 wire format.
///
/// Multiple connections share the database; each connection authenticates
/// with the user named in its startup message. CPU time is charged to the
/// container through the cluster's [`rddr_orchestra::CpuGovernor`], and the
/// container's memory meter tracks the database's simulated row storage —
/// this is what makes a 3-versioned deployment cost ≈3× memory in Figures
/// 4 and 6 of the paper.
pub struct PgServer {
    db: Arc<Mutex<Database>>,
    config: PgServerConfig,
    mem_charged: AtomicU64,
    backend_counter: AtomicU64,
}

impl std::fmt::Debug for PgServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PgServer")
            .field("config", &self.config)
            .finish()
    }
}

impl PgServer {
    /// Wraps a database with the default cost model.
    pub fn new(db: Database) -> Self {
        Self::with_config(db, PgServerConfig::default())
    }

    /// Wraps a database with an explicit cost model.
    pub fn with_config(db: Database, config: PgServerConfig) -> Self {
        Self {
            db: Arc::new(Mutex::new(db)),
            config,
            mem_charged: AtomicU64::new(0),
            backend_counter: AtomicU64::new(1),
        }
    }

    /// Shared handle to the underlying database (for seeding workloads).
    pub fn database(&self) -> Arc<Mutex<Database>> {
        Arc::clone(&self.db)
    }

    /// Brings the container's memory meter in line with the database's
    /// current simulated storage.
    fn sync_memory(&self, ctx: &ServiceCtx) {
        let current = self.db.lock().storage_bytes();
        self.charge_memory(ctx, current);
    }

    /// Brings the container's memory meter to `current` bytes.
    fn charge_memory(&self, ctx: &ServiceCtx, current: u64) {
        let charged = self.mem_charged.swap(current, Ordering::Relaxed);
        match current.cmp(&charged) {
            std::cmp::Ordering::Greater => ctx.alloc(current - charged),
            std::cmp::Ordering::Less => ctx.free(charged - current),
            std::cmp::Ordering::Equal => {}
        }
    }
}

/// Extracts the `user` parameter from a startup-message payload
/// (`version(i32)` then NUL-separated key/value pairs).
fn startup_user(payload: &[u8]) -> String {
    let mut parts = payload.get(4..).unwrap_or(&[]).split(|&b| b == 0);
    while let Some(key) = parts.next() {
        if key.is_empty() {
            break;
        }
        let value = parts.next().unwrap_or(&[]);
        if key == b"user" {
            return String::from_utf8_lossy(value).into_owned();
        }
    }
    "app".to_string()
}

/// Appends one wire message to `out`: `tag`, the length, then the payload
/// `payload` writes — the bytes [`PgMessage::encode`] makes, built in place.
fn put_message(
    out: &mut Vec<u8>,
    tag: u8,
    payload: impl FnOnce(&mut Vec<u8>) -> io::Result<()>,
) -> io::Result<()> {
    out.push(tag);
    let len_at = out.len();
    out.extend_from_slice(&[0; 4]);
    payload(out)?;
    let len = (out.len() - len_at) as i32;
    out[len_at..len_at + 4].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// Appends the handshake's answer: `AuthenticationOk`, the version banner,
/// `BackendKeyData` and `ReadyForQuery`.
fn put_greeting(out: &mut Vec<u8>, banner: &str, backend: u64) -> io::Result<()> {
    put_message(out, b'R', |o| o.write_all(&0i32.to_be_bytes()))?;
    put_message(out, b'S', |o| {
        o.write_all(b"server_version\0")?;
        o.write_all(banner.as_bytes())?;
        o.write_all(b"\0")
    })?;
    // BackendKeyData: pid + secret are instance-specific (non-critical on
    // the wire, excluded from diffing by the protocol module).
    put_message(out, b'K', |o| {
        o.write_all(&(backend as i32).to_be_bytes())?;
        o.write_all(&0x5ec2e7i32.to_be_bytes())
    })?;
    put_message(out, b'Z', |o| o.write_all(b"I"))
}

/// Appends the response to one simple query: notices, then the row
/// description and data rows (fields joined by `\x1f`) of a result with
/// columns, then its command tag — or the error — and `ReadyForQuery`.
fn put_response(out: &mut Vec<u8>, result: &Result<QueryResult, SqlError>) -> io::Result<()> {
    match result {
        Ok(r) => {
            for notice in &r.notices {
                put_message(out, b'N', |o| o.write_all(notice.as_bytes()))?;
            }
            if !r.columns.is_empty() {
                put_message(out, b'T', |o| put_fields(o, &r.columns))?;
                for row in &r.rows {
                    put_message(out, b'D', |o| put_fields(o, row))?;
                }
            }
            put_message(out, b'C', |o| o.write_all(r.tag.as_bytes()))?;
        }
        Err(e) => {
            let code = match e {
                SqlError::PermissionDenied(_) => "42501",
                SqlError::Unsupported(_) => "0A000",
                SqlError::Parse(_) => "42601",
                SqlError::Exec(_) => "XX000",
            };
            put_message(out, b'E', |o| write!(o, "ERROR: {code} {e}"))?;
        }
    }
    put_message(out, b'Z', |o| o.write_all(b"I"))
}

/// Writes `fields` as text, separated by `\x1f`.
fn put_fields(out: &mut Vec<u8>, fields: &[impl fmt::Display]) -> io::Result<()> {
    for (i, field) in fields.iter().enumerate() {
        if i > 0 {
            out.push(0x1f);
        }
        write!(out, "{field}")?;
    }
    Ok(())
}

impl Service for PgServer {
    fn name(&self) -> &str {
        "pg-server"
    }

    fn handle(&self, mut conn: BoxStream, ctx: &ServiceCtx) {
        let mut buf = Vec::new();
        let mut chunk = [0u8; 16 * 1024];
        // Every response is built here, reused across the connection's
        // queries.
        let mut out = Vec::new();

        // ---- startup handshake --------------------------------------------
        let startup = loop {
            match message_at(&buf, true) {
                Ok(Some((_, payload))) => break payload,
                Ok(None) => match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => buf.extend_from_slice(&chunk[..n]),
                },
                Err(_) => return,
            }
        };
        let user = startup_user(&buf[startup.clone()]);
        buf.drain(..startup.end);
        let mut session = self.db.lock().session(&user);
        self.sync_memory(ctx);

        let banner = self.db.lock().version_banner();
        let backend = self.backend_counter.fetch_add(1, Ordering::Relaxed);
        if put_greeting(&mut out, &banner, backend).is_err() || conn.write_all(&out).is_err() {
            return;
        }

        // ---- query loop ----------------------------------------------------
        loop {
            let (tag, payload) = loop {
                match message_at(&buf, false) {
                    Ok(Some(found)) => break found,
                    Ok(None) => match conn.read(&mut chunk) {
                        Ok(0) | Err(_) => return,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    },
                    Err(_) => return,
                }
            };
            out.clear();
            let encoded = match tag {
                b'Q' => {
                    let text = buf[payload.clone()]
                        .split(|&b| b == 0)
                        .next()
                        .unwrap_or(&[]);
                    // Borrowed unless the text is not UTF-8.
                    let sql = String::from_utf8_lossy(text);
                    let (result, stored) = {
                        let mut db = self.db.lock();
                        let result = db.execute(&mut session, &sql);
                        (result, db.storage_bytes())
                    };
                    let cost = match &result {
                        Ok(r) => {
                            self.config.base_cost + self.config.cost_per_row * r.scanned as u32
                        }
                        Err(_) => self.config.base_cost,
                    };
                    ctx.compute(cost);
                    self.charge_memory(ctx, stored);
                    put_response(&mut out, &result)
                }
                b'X' => return,
                _ => put_message(&mut out, b'E', |o| {
                    o.write_all(b"ERROR: 0A000 extended protocol not supported")
                })
                .and_then(|()| put_message(&mut out, b'Z', |o| o.write_all(b"I"))),
            };
            buf.drain(..payload.end);
            if encoded.is_err() || conn.write_all(&out).is_err() {
                return;
            }
        }
    }
}

/// Builds a simple-query wire message (`Q`) for clients.
pub fn query_message(sql: &str) -> Vec<u8> {
    let mut payload = sql.as_bytes().to_vec();
    payload.push(0);
    PgMessage { tag: b'Q', payload }.encode()
}

/// Builds a startup wire message for clients.
pub fn startup_message(user: &str) -> Vec<u8> {
    let mut payload = 196608i32.to_be_bytes().to_vec();
    payload.extend_from_slice(b"user\0");
    payload.extend_from_slice(user.as_bytes());
    payload.push(0);
    payload.push(0);
    let mut out = ((payload.len() as i32 + 4).to_be_bytes()).to_vec();
    out.extend(payload);
    out
}

/// A minimal blocking PostgreSQL wire client for tests, benchmarks and the
/// simulated applications (DVWA, GitLab).
pub struct PgClient {
    conn: BoxStream,
    buf: BytesMut,
}

impl std::fmt::Debug for PgClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PgClient").finish()
    }
}

/// One decoded query outcome seen by a [`PgClient`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PgResponse {
    /// Column names (from `RowDescription`).
    pub columns: Vec<String>,
    /// Rows as text fields.
    pub rows: Vec<Vec<String>>,
    /// `NOTICE` lines.
    pub notices: Vec<String>,
    /// Error text, if the query failed.
    pub error: Option<String>,
    /// Command tag.
    pub tag: String,
}

impl PgClient {
    /// Connects and performs the startup handshake.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::Exec`] if the server closes during the handshake.
    pub fn connect(mut conn: BoxStream, user: &str) -> Result<Self, SqlError> {
        conn.write_all(&startup_message(user))
            .map_err(|e| SqlError::Exec(format!("startup write failed: {e}")))?;
        let mut client = Self {
            conn,
            buf: BytesMut::new(),
        };
        client.read_until_ready()?;
        Ok(client)
    }

    /// Executes one simple query and collects the full response cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SqlError::Exec`] if the connection drops mid-cycle (which
    /// is how an RDDR intervention manifests to the client).
    pub fn query(&mut self, sql: &str) -> Result<PgResponse, SqlError> {
        self.conn
            .write_all(&query_message(sql))
            .map_err(|e| SqlError::Exec(format!("query write failed: {e}")))?;
        self.read_until_ready()
    }

    fn read_until_ready(&mut self) -> Result<PgResponse, SqlError> {
        let mut response = PgResponse::default();
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match PgMessage::decode(&self.buf, false).map_err(|e| SqlError::Exec(e.to_string()))? {
                Some((m, used)) => {
                    let _ = self.buf.split_to(used);
                    let text = String::from_utf8_lossy(&m.payload).into_owned();
                    match m.tag {
                        b'T' => {
                            response.columns = text.split('\u{1f}').map(str::to_string).collect()
                        }
                        b'D' => response
                            .rows
                            .push(text.split('\u{1f}').map(str::to_string).collect()),
                        b'N' => response.notices.push(text),
                        b'E' => response.error = Some(text),
                        b'C' => response.tag = text,
                        b'Z' => return Ok(response),
                        _ => {}
                    }
                }
                None => match self.conn.read(&mut chunk) {
                    Ok(0) | Err(_) => return Err(SqlError::Exec("connection severed".into())),
                    Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                },
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn startup_user_parses() {
        let m = startup_message("mallory");
        let (decoded, _) = PgMessage::decode(&m, true).unwrap().unwrap();
        assert_eq!(startup_user(&decoded.payload), "mallory");
    }

    #[test]
    fn startup_user_defaults_to_app() {
        assert_eq!(startup_user(&196608i32.to_be_bytes()), "app");
    }

    #[test]
    fn query_message_is_nul_terminated() {
        let m = query_message("SELECT 1");
        let (decoded, _) = PgMessage::decode(&m, false).unwrap().unwrap();
        assert_eq!(decoded.tag, b'Q');
        assert_eq!(decoded.payload.last(), Some(&0));
    }
}

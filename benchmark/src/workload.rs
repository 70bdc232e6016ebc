//! The six workloads: what each sends, what each instance answers, and the
//! exact bytes the driver must see back (the correctness oracle).
//!
//! Requests are generated from `--seed`; the program under test sees only
//! bytes. The reply functions here are shared by the benchmark-owned
//! instances (`deploy.rs`) and the driver's oracle, so the check is that the
//! proxies deliver instance 0's bytes unmodified, in order, or sever.

use std::io::Write;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use rddr_core::protocol::LineProtocol;
use rddr_pgsim::{query_message, Database, QueryResult, Session};
use rddr_protocols::{HttpProtocol, PgMessage, PgProtocol};
use rddr_proxy::ProtocolFactory;

/// Instances behind the incoming proxy (the paper's 3-version deployment).
pub const INSTANCES: usize = 3;
/// Client sessions the one driver thread multiplexes. Fixed, not scaled with
/// the host: 2 sessions repeat within ±4 % on the 2-core reference host
/// while 64 are bimodal (README, "Noise evidence").
pub const SESSIONS: usize = 2;
/// Fixed-count warm-up before the first measured op.
pub const WARMUP_OPS: usize = 20_000;

/// Bytes of one line-protocol request, newline included.
pub const LINE_BYTES: usize = 64;
/// One in this many `http_noisy` requests makes instance 2 leak.
pub const LEAK_ONE_IN: u32 = 100;
/// pgbench accounts behind `pg_read`: ≈200 heap pages against the 64-frame
/// pool, so point reads miss the pool.
pub const PG_READ_ACCOUNTS: usize = 20_000;
/// pgbench accounts behind `pg_write`: the whole table fits the pool.
pub const PG_WRITE_ACCOUNTS: usize = 2_000;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    LineFast,
    LineTcp,
    HttpNoisy,
    ChainBackend,
    PgRead,
    PgWrite,
}

pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    /// Requests each session keeps in flight.
    pub depth: usize,
    /// Open-loop arrival rate in ops/s, frozen at 25–30 % of the reference
    /// host's closed-loop throughput (2 s.f.): far enough from the knee
    /// that an interference burst does not tip the queue over; see README
    /// "Reference numbers".
    pub open_rate: f64,
    /// Warm-up ops (fewer where one op costs a millisecond).
    pub warmup: usize,
}

pub const SPECS: [Spec; 6] = [
    Spec {
        name: "line_fast",
        kind: Kind::LineFast,
        depth: 16,
        open_rate: 95_000.0,
        warmup: WARMUP_OPS,
    },
    Spec {
        name: "line_tcp",
        kind: Kind::LineTcp,
        depth: 16,
        open_rate: 68_000.0,
        warmup: WARMUP_OPS,
    },
    Spec {
        name: "http_noisy",
        kind: Kind::HttpNoisy,
        depth: 1,
        open_rate: 3_000.0,
        warmup: WARMUP_OPS / 4,
    },
    Spec {
        name: "chain_backend",
        kind: Kind::ChainBackend,
        depth: 1,
        open_rate: 9_500.0,
        warmup: WARMUP_OPS,
    },
    Spec {
        name: "pg_read",
        kind: Kind::PgRead,
        depth: 1,
        open_rate: 5_600.0,
        warmup: WARMUP_OPS,
    },
    Spec {
        name: "pg_write",
        kind: Kind::PgWrite,
        depth: 1,
        open_rate: 90.0,
        warmup: WARMUP_OPS / 20,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Kind {
    pub fn tcp(self) -> bool {
        self == Kind::LineTcp
    }

    pub fn is_pg(self) -> bool {
        matches!(self, Kind::PgRead | Kind::PgWrite)
    }

    pub fn protocol(self) -> ProtocolFactory {
        match self {
            Kind::LineFast | Kind::LineTcp | Kind::ChainBackend => {
                Arc::new(|| Box::new(LineProtocol::new()))
            }
            Kind::HttpNoisy => Arc::new(|| Box::new(HttpProtocol::new())),
            Kind::PgRead | Kind::PgWrite => Arc::new(|| Box::new(PgProtocol::new())),
        }
    }

    pub fn pg_accounts(self) -> usize {
        match self {
            Kind::PgWrite => PG_WRITE_ACCOUNTS,
            _ => PG_READ_ACCOUNTS,
        }
    }
}

/// What the driver must observe for one request.
pub enum Expect {
    /// Exactly these reply bytes.
    Reply(Vec<u8>),
    /// The proxy severs: intervention page (HTTP) then EOF.
    Sever,
}

// ---- line protocol -------------------------------------------------------

/// An echo instance's reply to `line` (newline included): `ok:<line>`.
pub fn line_reply(line: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(b"ok:");
    out.extend_from_slice(line);
}

/// The `chain_backend` backend's reply to a merged call: `b:<line>`.
pub fn backend_reply(line: &[u8], out: &mut Vec<u8>) {
    out.extend_from_slice(b"b:");
    out.extend_from_slice(line);
}

// ---- HTTP ----------------------------------------------------------------

/// Per-instance response noise for request `id`. Tokens start and end with
/// an instance-specific character so the filter pair (0, 1) differs at both
/// ends and the learned mask covers the whole token; the dashes keep tokens
/// from qualifying as ephemeral (CSRF-like) state, which would otherwise
/// accumulate per session.
fn noise(instance: usize, id: &str) -> (String, String) {
    let h = rddr_pgstore::fnv1a(format!("{instance}/{id}").as_bytes());
    let tag = (b'a' + instance as u8) as char;
    let token = format!(
        "{tag}{:03x}-{:04x}-{:04x}-{:03x}{tag}",
        h & 0xfff,
        (h >> 12) & 0xffff,
        (h >> 28) & 0xffff,
        (h >> 44) & 0xfff
    );
    let date = format!(
        "Tue, 29 Sep 2026 {instance}{}:{:02}:{}{instance} GMT",
        (h >> 56) % 10,
        (h >> 48) % 60,
        (h >> 40) % 6
    );
    (token, date)
}

/// Instance `instance`'s full HTTP response to a request with id `id` and
/// body `body`. With `leak`, instance 2 discloses an extra body line — the
/// divergence the proxy must sever on.
pub fn http_response(instance: usize, id: &str, body: &[u8], leak: bool) -> Vec<u8> {
    let (token, date) = noise(instance, id);
    let mut payload = format!("{{\n \"nonce\": \"{token}\",\n").into_bytes();
    if leak && instance == 2 {
        payload.extend_from_slice(b" \"debug\": \"row 42 of users: hunter2\",\n");
    }
    payload.extend_from_slice(b" \"echo\": ");
    payload.extend_from_slice(body);
    payload.extend_from_slice(b"}\n");
    let mut out = format!(
        "HTTP/1.1 200 OK\r\nDate: {date}\r\nX-Request-Id: {token}\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
        payload.len()
    )
    .into_bytes();
    out.extend_from_slice(&payload);
    out
}

/// Parses one complete HTTP request from the front of `buf`: returns
/// `(id, leak, body range, total length)`.
pub fn http_parse_request(buf: &[u8]) -> Option<(String, bool, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut id = String::new();
    let mut leak = false;
    let mut len = 0usize;
    for line in head.split("\r\n") {
        if let Some(v) = line.strip_prefix("X-Req: ") {
            id = v.to_string();
        } else if line.starts_with("X-Leak: ") {
            leak = true;
        } else if let Some(v) = line.strip_prefix("Content-Length: ") {
            len = v.parse().ok()?;
        }
    }
    (buf.len() >= head_end + len).then(|| (id, leak, head_end..head_end + len, head_end + len))
}

// ---- PostgreSQL ----------------------------------------------------------

/// A startup message for user `app` carrying `tag` as `application_name`,
/// so every session's first frame is unique (the trace joins on it).
pub fn pg_startup(tag: &str) -> Vec<u8> {
    let mut payload = 196_608i32.to_be_bytes().to_vec();
    for part in ["user", "app", "application_name", tag] {
        payload.extend_from_slice(part.as_bytes());
        payload.push(0);
    }
    payload.push(0);
    PgMessage { tag: 0, payload }.encode()
}

/// `ReadyForQuery(idle)`, the last message of every response cycle.
pub const PG_READY: &[u8] = b"Z\0\0\0\x05I";

/// The wire bytes a `PgServer` answers `result` with.
pub fn pg_encode(result: &QueryResult) -> Vec<u8> {
    let msg = |tag: u8, payload: Vec<u8>| PgMessage { tag, payload }.encode();
    let mut out = Vec::new();
    if !result.columns.is_empty() {
        out.extend(msg(b'T', result.columns.join("\u{1f}").into_bytes()));
        for row in &result.rows {
            let line: Vec<String> = row.iter().map(|v| v.to_string()).collect();
            out.extend(msg(b'D', line.join("\u{1f}").into_bytes()));
        }
    }
    out.extend(msg(b'C', result.tag.clone().into_bytes()));
    out.extend_from_slice(PG_READY);
    out
}

/// The history table session `slot` appends to. One table per session keeps
/// each table's insertion order a function of one session's stream, so the
/// three instances end in the same state whatever the cross-session
/// interleaving (UPDATE deltas commute).
pub fn history_table(slot: usize) -> String {
    format!("pgbench_history_s{slot}")
}

/// The reference database the `pg_*` oracles answer from.
pub struct PgReference {
    pub db: Database,
    pub session: Session,
    /// `pg_write` statements issued, replayed into `db` after the run.
    pub issued: Vec<String>,
}

// ---- request generation --------------------------------------------------

/// One session's seeded request stream.
pub struct RequestGen {
    kind: Kind,
    slot: usize,
    rng: StdRng,
    seq: u64,
    /// Seeded filler the line payloads and HTTP bodies are cut from.
    filler: Vec<u8>,
    pg: Option<Arc<Mutex<PgReference>>>,
    scratch: Vec<u8>,
}

impl RequestGen {
    pub fn new(
        kind: Kind,
        slot: usize,
        seed: u64,
        pg: Option<Arc<Mutex<PgReference>>>,
    ) -> RequestGen {
        let mut rng = StdRng::seed_from_u64(seed ^ (slot as u64 + 1).wrapping_mul(0x9e37_79b9));
        const ALNUM: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
        let filler = (0..8192)
            .map(|_| ALNUM[(rng.next_u64() % ALNUM.len() as u64) as usize])
            .collect();
        RequestGen {
            kind,
            slot,
            rng,
            seq: 0,
            filler,
            pg,
            scratch: Vec::new(),
        }
    }

    /// The first bytes a fresh connection sends before any request (the
    /// PostgreSQL startup message), if the protocol has a handshake.
    pub fn hello(&mut self) -> Option<Vec<u8>> {
        self.kind.is_pg().then(|| {
            self.seq += 1;
            pg_startup(&format!("bench-{}-{}", self.slot, self.seq))
        })
    }

    fn filler(&self, salt: usize, len: usize) -> &[u8] {
        let at = (self.seq as usize + salt).wrapping_mul(31) % (self.filler.len() - len);
        &self.filler[at..at + len]
    }

    /// Appends the next request to `out` and returns what must come back.
    /// `benign` suppresses the leak draw (session priming must not sever).
    pub fn next(&mut self, out: &mut Vec<u8>, benign: bool) -> Expect {
        self.seq += 1;
        match self.kind {
            Kind::LineFast | Kind::LineTcp | Kind::ChainBackend => {
                let start = out.len();
                write!(out, "s{}:{:010}:", self.slot, self.seq).expect("Vec<u8> writes");
                let pad = LINE_BYTES - 1 - (out.len() - start);
                out.extend_from_slice(self.filler(0, pad));
                out.push(b'\n');
                let line = &out[start..];
                let mut reply = Vec::with_capacity(LINE_BYTES + 8);
                if self.kind == Kind::ChainBackend {
                    self.scratch.clear();
                    backend_reply(line, &mut self.scratch);
                    line_reply(&self.scratch, &mut reply);
                } else {
                    line_reply(line, &mut reply);
                }
                Expect::Reply(reply)
            }
            Kind::HttpNoisy => {
                let id = format!("{}-{}", self.slot, self.seq);
                let leak = !benign && self.rng.gen_ratio(1, LEAK_ONE_IN);
                let mut body = format!("{{\n  \"req\": \"{id}\",\n  \"items\": [\n").into_bytes();
                for i in 0..34 {
                    let v = self.rng.gen_range(0u32..100_000);
                    body.extend_from_slice(b"   {\"k\": \"");
                    body.extend_from_slice(self.filler(i * 7, 32 + i % 3));
                    body.extend_from_slice(format!("\", \"v\": {v}}},\n").as_bytes());
                }
                body.extend_from_slice(b"   null\n  ]\n }\n");
                let leak_header = if leak { "X-Leak: 1\r\n" } else { "" };
                out.extend_from_slice(
                    format!(
                        "POST /v1/items HTTP/1.1\r\nHost: bench\r\nX-Req: {id}\r\n{leak_header}\
                         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
                        body.len()
                    )
                    .as_bytes(),
                );
                out.extend_from_slice(&body);
                if leak {
                    Expect::Sever
                } else {
                    Expect::Reply(http_response(0, &id, &body, false))
                }
            }
            Kind::PgRead => {
                let aid = self.rng.gen_range(1..=PG_READ_ACCOUNTS);
                let sql = format!("SELECT abalance FROM pgbench_accounts WHERE aid = {aid}");
                out.extend_from_slice(&query_message(&sql));
                let reference = self.pg.as_ref().expect("pg workloads carry a reference");
                let mut guard = reference.lock();
                let PgReference { db, session, .. } = &mut *guard;
                let result = db.execute(session, &sql).expect("reference answers SELECT");
                Expect::Reply(pg_encode(&result))
            }
            Kind::PgWrite => {
                let aid = self.rng.gen_range(1..=PG_WRITE_ACCOUNTS);
                let delta = self.rng.gen_range(-5000i32..=5000);
                // Two UPDATEs to one INSERT per session. Not 1:1: an UPDATE
                // costs five INSERTs, so at 1:1 the median latency sits on
                // the gap between the two modes and flips between them
                // from run to run.
                let (sql, tag) = if !self.seq.is_multiple_of(3) {
                    (
                        format!(
                            "UPDATE pgbench_accounts SET abalance = abalance + {delta} \
                             WHERE aid = {aid}"
                        ),
                        "UPDATE 1",
                    )
                } else {
                    (
                        format!(
                            "INSERT INTO {} VALUES ({}, 1, {aid}, {delta}, 't{}')",
                            history_table(self.slot),
                            aid % 10 + 1,
                            self.seq
                        ),
                        "INSERT 0 1",
                    )
                };
                out.extend_from_slice(&query_message(&sql));
                let reference = self.pg.as_ref().expect("pg workloads carry a reference");
                reference.lock().issued.push(sql);
                Expect::Reply(pg_encode(&QueryResult {
                    tag: tag.into(),
                    ..QueryResult::default()
                }))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rddr_core::{Direction, NoiseMask, Protocol};

    #[test]
    fn same_seed_same_requests() {
        for kind in [Kind::LineFast, Kind::HttpNoisy] {
            let mut a = RequestGen::new(kind, 0, 7, None);
            let mut b = RequestGen::new(kind, 0, 7, None);
            let mut c = RequestGen::new(kind, 0, 8, None);
            let (mut ra, mut rb, mut rc) = (Vec::new(), Vec::new(), Vec::new());
            for _ in 0..50 {
                a.next(&mut ra, false);
                b.next(&mut rb, false);
                c.next(&mut rc, false);
            }
            assert_eq!(ra, rb);
            assert_ne!(ra, rc);
        }
    }

    #[test]
    fn line_requests_are_64_bytes() {
        let mut g = RequestGen::new(Kind::LineFast, 1, 1, None);
        let mut out = Vec::new();
        g.next(&mut out, false);
        assert_eq!(out.len(), LINE_BYTES);
        assert_eq!(out.last(), Some(&b'\n'));
    }

    #[test]
    fn http_noise_is_fully_masked_by_the_filter_pair_and_leak_is_not() {
        let http = HttpProtocol::new();
        let body = b"[1]\n";
        let segs = |instance: usize, leak: bool| {
            let mut buf = bytes::BytesMut::new();
            buf.extend_from_slice(&http_response(instance, "0-17", body, leak));
            let frames = http.split_frames(&mut buf, Direction::Response).unwrap();
            assert_eq!(frames.len(), 1);
            assert!(buf.is_empty());
            http.tokenize(&frames[0])
        };
        let (a, b, c) = (segs(0, false), segs(1, false), segs(2, false));
        let mask = NoiseMask::from_filter_pair(&a, &b);
        assert_eq!(mask.len(), 3, "Date, X-Request-Id and the body nonce");
        for (i, seg) in a.iter().enumerate() {
            assert_eq!(
                mask.apply(i, &seg.payload),
                mask.apply(i, &c[i].payload),
                "segment {i} must agree after masking"
            );
        }
        assert_eq!(segs(2, true).len(), c.len() + 1, "the leak adds a line");
    }

    #[test]
    fn http_request_round_trips_through_the_instance_parser() {
        let mut g = RequestGen::new(Kind::HttpNoisy, 0, 3, None);
        let mut out = Vec::new();
        g.next(&mut out, true);
        let (id, leak, body, total) = http_parse_request(&out).unwrap();
        assert_eq!(id, "0-1");
        assert!(!leak);
        assert_eq!(total, out.len());
        assert!((1950..2150).contains(&body.len()), "body {}", body.len());
    }
}

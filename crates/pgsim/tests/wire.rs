//! PostgreSQL wire-server tests: the handshake, query cycles, notices,
//! errors, and protocol edge cases — straight against one `PgServer`
//! container, no RDDR in between.

use std::sync::Arc;
use std::time::Duration;

use rddr_net::{duplex_pair, Network, ServiceAddr, SimNet, Stream};
use rddr_orchestra::{Cluster, CpuGovernor, Image, ResourceMeter, Service, ServiceCtx};
use rddr_pgsim::{
    query_message, startup_message, Database, PgClient, PgServer, PgServerConfig, PgVersion,
    SqlError,
};
use rddr_protocols::pg::PgMessage;

fn server_cluster() -> (Cluster, ServiceAddr) {
    let cluster = Cluster::new(2);
    let mut db = Database::new(PgVersion::parse("10.7").unwrap());
    let mut s = db.session("app");
    db.execute(&mut s, "CREATE TABLE kv (k INT, v TEXT)")
        .unwrap();
    db.execute(&mut s, "INSERT INTO kv VALUES (1, 'one'), (2, 'two')")
        .unwrap();
    let addr = ServiceAddr::new("pg", 5432);
    let handle = cluster
        .run_container(
            "pg-0",
            Image::new("postgres", "10.7"),
            &addr,
            Arc::new(PgServer::new(db)),
        )
        .unwrap();
    std::mem::forget(handle);
    (cluster, addr)
}

#[test]
fn handshake_reports_version_and_ready() {
    let (cluster, addr) = server_cluster();
    let mut conn = cluster.net().dial(&addr).unwrap();
    conn.write_all(&startup_message("app")).unwrap();
    // Collect messages until ReadyForQuery.
    let mut buf = Vec::new();
    let mut tags = Vec::new();
    let mut params = Vec::new();
    let mut chunk = [0u8; 4096];
    'outer: loop {
        let n = conn.read(&mut chunk).unwrap();
        assert!(n > 0, "server must greet");
        buf.extend_from_slice(&chunk[..n]);
        while let Some((msg, used)) = PgMessage::decode(&buf, false).unwrap() {
            buf.drain(..used);
            tags.push(msg.tag);
            if msg.tag == b'S' {
                params.push(String::from_utf8_lossy(&msg.payload).into_owned());
            }
            if msg.tag == b'Z' {
                break 'outer;
            }
        }
    }
    assert_eq!(tags, vec![b'R', b'S', b'K', b'Z']);
    assert!(params[0].contains("server_version"));
    assert!(params[0].contains("10.7"));
}

#[test]
fn query_cycle_and_errors() {
    let (cluster, addr) = server_cluster();
    let mut client = PgClient::connect(cluster.net().dial(&addr).unwrap(), "app").unwrap();
    let ok = client.query("SELECT v FROM kv ORDER BY k").unwrap();
    assert_eq!(ok.columns, vec!["v"]);
    assert_eq!(
        ok.rows,
        vec![vec!["one".to_string()], vec!["two".to_string()]]
    );
    assert_eq!(ok.tag, "SELECT 2");

    let err = client.query("SELECT broken syntax here FROM").unwrap();
    assert!(err.error.is_some());
    // The connection stays usable after an error (ReadyForQuery resyncs).
    let again = client.query("SELECT COUNT(*) FROM kv").unwrap();
    assert_eq!(again.rows, vec![vec!["2".to_string()]]);
}

#[test]
fn notices_are_delivered() {
    let (cluster, addr) = server_cluster();
    let mut client = PgClient::connect(cluster.net().dial(&addr).unwrap(), "app").unwrap();
    client
        .query(
            "CREATE FUNCTION noisy(int, int) RETURNS bool \
             AS 'BEGIN RAISE NOTICE ''seen % and %'', $1, $2; RETURN $1 < $2; END' \
             LANGUAGE plpgsql",
        )
        .unwrap();
    client
        .query("CREATE OPERATOR <^> (procedure=noisy, leftarg=int, rightarg=int)")
        .unwrap();
    let r = client
        .query("SELECT k FROM kv WHERE k <^> 10 ORDER BY k")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.notices.len(), 2, "{:?}", r.notices);
    assert!(r.notices[0].contains("seen 1 and 10"));
}

#[test]
fn permission_denied_maps_to_sqlstate() {
    let (cluster, addr) = server_cluster();
    let mut client = PgClient::connect(cluster.net().dial(&addr).unwrap(), "mallory").unwrap();
    let r = client.query("SELECT * FROM kv").unwrap();
    let err = r.error.expect("permission denied");
    assert!(err.contains("42501"), "{err}");
}

#[test]
fn extended_protocol_is_gracefully_rejected() {
    let (cluster, addr) = server_cluster();
    let mut conn = cluster.net().dial(&addr).unwrap();
    conn.write_all(&startup_message("app")).unwrap();
    // Drain the greeting.
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    'greet: loop {
        let n = conn.read(&mut chunk).unwrap();
        buf.extend_from_slice(&chunk[..n]);
        while let Some((msg, used)) = PgMessage::decode(&buf, false).unwrap() {
            buf.drain(..used);
            if msg.tag == b'Z' {
                break 'greet;
            }
        }
    }
    // Send a Parse ('P') message: the simple-query-only server answers with
    // an error and stays in sync.
    conn.write_all(
        &PgMessage {
            tag: b'P',
            payload: b"stmt\0SELECT 1\0".to_vec(),
        }
        .encode(),
    )
    .unwrap();
    let mut saw_error = false;
    'resp: loop {
        let n = conn.read(&mut chunk).unwrap();
        buf.extend_from_slice(&chunk[..n]);
        while let Some((msg, used)) = PgMessage::decode(&buf, false).unwrap() {
            buf.drain(..used);
            if msg.tag == b'E' {
                saw_error = true;
            }
            if msg.tag == b'Z' {
                break 'resp;
            }
        }
    }
    assert!(saw_error);
    // Plain queries still work on the same connection.
    conn.write_all(&query_message("SELECT 1")).unwrap();
    let mut got_row = false;
    'q: loop {
        let n = conn.read(&mut chunk).unwrap();
        buf.extend_from_slice(&chunk[..n]);
        while let Some((msg, used)) = PgMessage::decode(&buf, false).unwrap() {
            buf.drain(..used);
            if msg.tag == b'D' {
                got_row = true;
            }
            if msg.tag == b'Z' {
                break 'q;
            }
        }
    }
    assert!(got_row);
}

#[test]
fn terminate_closes_cleanly() {
    let (cluster, addr) = server_cluster();
    let mut conn = cluster.net().dial(&addr).unwrap();
    conn.write_all(&startup_message("app")).unwrap();
    let mut chunk = [0u8; 4096];
    let _ = conn.read(&mut chunk).unwrap(); // greeting
    conn.write_all(
        &PgMessage {
            tag: b'X',
            payload: Vec::new(),
        }
        .encode(),
    )
    .unwrap();
    // Server closes: next read returns EOF (possibly after draining).
    loop {
        match conn.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(_) => continue,
        }
    }
}

#[test]
fn sessions_are_isolated_but_data_is_shared() {
    let (cluster, addr) = server_cluster();
    let net = cluster.net();
    let mut a = PgClient::connect(net.dial(&addr).unwrap(), "app").unwrap();
    let mut b = PgClient::connect(net.dial(&addr).unwrap(), "app").unwrap();
    a.query("INSERT INTO kv VALUES (3, 'three')").unwrap();
    let r = b.query("SELECT COUNT(*) FROM kv").unwrap();
    assert_eq!(
        r.rows,
        vec![vec!["3".to_string()]],
        "writes are visible across sessions"
    );
    // Session settings are NOT shared.
    a.query("SET client_min_messages TO 'notice'").unwrap();
    let r = b.query("SHOW client_min_messages").unwrap();
    assert_eq!(r.rows, vec![vec![String::new()]]);
}

/// What the byte-exact test sends: a mixed-type table, a table past the
/// point-query index threshold, and statements covering NULL/int/float/
/// text/bool rows, empty results, notices, errors of every SQLSTATE the
/// server maps, and non-UTF-8 query text.
fn wire_script() -> Vec<Vec<u8>> {
    let mut sql = vec![
        "CREATE TABLE mixed (id INT, f FLOAT, t TEXT, b BOOL)".to_string(),
        "INSERT INTO mixed VALUES (1, 2.5, 'a', TRUE), (2, NULL, NULL, FALSE), \
         (3, 4.0, 'tab\tand''quote', NULL), (4, -0.125, '', TRUE)"
            .to_string(),
        "CREATE TABLE big (k INT, v TEXT, n FLOAT)".to_string(),
    ];
    for chunk in (0..200).collect::<Vec<i64>>().chunks(50) {
        let rows: Vec<String> = chunk
            .iter()
            .map(|k| match k % 7 {
                0 => format!("({k}, NULL, NULL)"),
                r => format!("({k}, 'v{r}', {k}.{r})"),
            })
            .collect();
        sql.push(format!("INSERT INTO big VALUES {}", rows.join(", ")));
    }
    sql.extend(
        [
            "SELECT * FROM mixed ORDER BY id",
            "SELECT id, f * 2 AS twice, t || '!', b FROM mixed WHERE id > 1",
            "SELECT * FROM mixed WHERE id = 99",
            "SELECT COUNT(*), SUM(f), AVG(id), MAX(t) FROM mixed",
            "SELECT * FROM big WHERE k = 5",
            "SELECT v, n FROM big x WHERE x.k = 14",
            "SELECT k + 1 AS next, v FROM big WHERE k = 999",
            "SELECT * FROM big WHERE k = 8 AND v = 'v1'",
            "SELECT * FROM big WHERE k = 8 AND v = 'v2'",
            "SELECT n, k, * FROM big WHERE 9 = k LIMIT 1",
            "SELECT k FROM big WHERE k = 9 LIMIT 0",
            "SELECT missing FROM big WHERE k = 9",
            "SELECT nothing FROM nowhere",
            "SELEK 1",
            "SELECT 1 / 0",
            "CREATE FUNCTION leak(int, int) RETURNS bool AS 'BEGIN RAISE NOTICE ''leak %, %'', $1, $2; RETURN $1 < $2; END' LANGUAGE plpgsql",
            "CREATE OPERATOR <<< (procedure=leak, leftarg=int, rightarg=int)",
            "SELECT id FROM mixed WHERE id <<< 3",
            "SELECT v FROM big WHERE k = 3 AND k <<< 4",
            "UPDATE big SET n = n + 1 WHERE k = 10",
            "UPDATE mixed SET f = 1 WHERE id = 2",
            "DELETE FROM mixed WHERE id = 3",
            "INSERT INTO mixed VALUES (5, 1e, 'x', TRUE)",
            "BEGIN",
            "INSERT INTO mixed (id, t) VALUES (6, 'six')",
            "COMMIT",
            "SHOW server_version",
            "SET client_min_messages TO 'notice'",
            "SHOW client_min_messages",
            "SELECT 'héllo', 'ünï'",
            "",
        ]
        .map(str::to_string),
    );
    let mut messages: Vec<Vec<u8>> = sql.iter().map(|s| query_message(s)).collect();
    // Query text that is not UTF-8, one without its NUL, and a message of
    // the extended protocol.
    messages.push(
        PgMessage {
            tag: b'Q',
            payload: b"SELECT 'caf\xe9', 1\0".to_vec(),
        }
        .encode(),
    );
    messages.push(
        PgMessage {
            tag: b'Q',
            payload: b"SELECT 2".to_vec(),
        }
        .encode(),
    );
    messages.push(
        PgMessage {
            tag: b'P',
            payload: b"stmt\0SELECT 1\0".to_vec(),
        }
        .encode(),
    );
    messages
}

/// The wire bytes a query result encodes to, message by message through
/// `PgMessage::encode`: the reference the server's own encoding must equal.
fn reference_response(result: Result<rddr_pgsim::QueryResult, SqlError>) -> Vec<u8> {
    let msg = |tag: u8, payload: Vec<u8>| PgMessage { tag, payload }.encode();
    let mut out = Vec::new();
    match result {
        Ok(r) => {
            for notice in &r.notices {
                out.extend(msg(b'N', notice.clone().into_bytes()));
            }
            if !r.columns.is_empty() {
                out.extend(msg(b'T', r.columns.join("\u{1f}").into_bytes()));
                for row in &r.rows {
                    let line: Vec<String> = row.iter().map(|v| v.to_string()).collect();
                    out.extend(msg(b'D', line.join("\u{1f}").into_bytes()));
                }
            }
            out.extend(msg(b'C', r.tag.into_bytes()));
        }
        Err(e) => {
            let code = match e {
                SqlError::PermissionDenied(_) => "42501",
                SqlError::Unsupported(_) => "0A000",
                SqlError::Parse(_) => "42601",
                SqlError::Exec(_) => "XX000",
            };
            out.extend(msg(b'E', format!("ERROR: {code} {e}").into_bytes()));
        }
    }
    out.extend(msg(b'Z', b"I".to_vec()));
    out
}

/// Length and FNV-1a digest of the server's transcript of [`wire_script`].
const TRANSCRIPT: (usize, u64) = (1791, 0x269e_142d_1795_16be);

/// FNV-1a over a transcript, to pin it in a test.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

#[test]
fn server_bytes_equal_the_message_encoder_reference() {
    let version = PgVersion::parse("10.7").unwrap();
    let zero = PgServerConfig {
        base_cost: Duration::ZERO,
        cost_per_row: Duration::ZERO,
    };
    let server = PgServer::with_config(Database::new(version), zero);
    let script = wire_script();

    // The server's bytes: every message pre-filled, the client's write
    // side closed, the server run on this thread until EOF.
    let (mut client, conn) = duplex_pair("client", "pg");
    client.write_all(&startup_message("app")).unwrap();
    for m in &script {
        client.write_all(m).unwrap();
    }
    let mut reader = client.try_clone().unwrap();
    drop(client);
    let ctx = ServiceCtx {
        meter: ResourceMeter::new(),
        governor: CpuGovernor::new(1),
        net: Arc::new(SimNet::new()),
    };
    server.handle(Box::new(conn), &ctx);
    let mut got = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        match reader.read(&mut chunk).unwrap() {
            0 => break,
            n => got.extend_from_slice(&chunk[..n]),
        }
    }

    // The reference: the same statements on a twin database, each
    // result encoded message by message.
    let mut twin = Database::new(version);
    let mut session = twin.session("app");
    let msg = |tag: u8, payload: Vec<u8>| PgMessage { tag, payload }.encode();
    let mut expected = msg(b'R', 0i32.to_be_bytes().to_vec());
    expected.extend(msg(b'S', b"server_version\x0010.7\0".to_vec()));
    let mut key = 1i32.to_be_bytes().to_vec();
    key.extend(0x5ec2e7i32.to_be_bytes());
    expected.extend(msg(b'K', key));
    expected.extend(msg(b'Z', b"I".to_vec()));
    for m in &script {
        let (decoded, _) = PgMessage::decode(m, false).unwrap().unwrap();
        if decoded.tag != b'Q' {
            expected.extend(msg(
                b'E',
                b"ERROR: 0A000 extended protocol not supported".to_vec(),
            ));
            expected.extend(msg(b'Z', b"I".to_vec()));
            continue;
        }
        let text = decoded.payload.split(|&b| b == 0).next().unwrap_or(&[]);
        let sql = String::from_utf8_lossy(text);
        expected.extend(reference_response(twin.execute(&mut session, &sql)));
    }
    assert!(
        got == expected,
        "server bytes differ from the encoder reference"
    );
    let mut ready = 0;
    let mut rest = got.as_slice();
    while let Some((m, used)) = PgMessage::decode(rest, false).unwrap() {
        ready += usize::from(m.tag == b'Z');
        rest = &rest[used..];
    }
    assert_eq!(ready, script.len() + 1, "one ReadyForQuery per message");
    // The transcript itself is pinned too: the reference above runs the
    // same executor, so this is what holds the results still.
    assert_eq!((got.len(), fnv1a(&got)), TRANSCRIPT, "the transcript moved");
}

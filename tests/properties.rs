//! Property-based tests (proptest) on the core data structures and
//! invariants: the de-noise mask, ephemeral tokens, glob matching, LIKE,
//! the toy `rle` coding, JSON parsing, SQL round trips, and value ordering.

use proptest::prelude::*;

use rddr_repro::core::protocol::LineProtocol;
use rddr_repro::core::{
    diff_segments, Direction, EngineConfig, EphemeralStore, GlobPattern, NVersionEngine, NoiseMask,
    PolicyDecision, Protocol, ResponsePolicy, Segment, SignatureThrottle, VarianceRule,
    VarianceRules, Verdict,
};
use rddr_repro::pgsim::{Database, PgVersion, Value};
use rddr_repro::protocols::http::{rle_decode, rle_encode};
use rddr_repro::protocols::{parse_json, HttpProtocol, PgMessage, PgProtocol};

fn segs(lines: &[String]) -> Vec<Segment> {
    lines
        .iter()
        .map(|l| Segment::new("line", l.as_bytes().to_vec()))
        .collect()
}

proptest! {
    /// Identical outputs never diverge, whatever they contain.
    #[test]
    fn identical_outputs_never_diverge(lines in proptest::collection::vec(".{0,40}", 0..20)) {
        let instances: Vec<Vec<Segment>> = (0..3).map(|_| segs(&lines)).collect();
        let out = diff_segments(&instances, &NoiseMask::none(), &VarianceRules::new());
        prop_assert!(!out.report.diverged());
    }

    /// Any single-segment payload change on a non-reference instance is
    /// detected when no masking applies.
    #[test]
    fn payload_change_is_detected(
        lines in proptest::collection::vec("[a-z]{1,20}", 1..10),
        idx in 0usize..10,
        suffix in "[A-Z]{1,8}",
    ) {
        let idx = idx % lines.len();
        let mut mutated = lines.clone();
        mutated[idx] = format!("{}{}", mutated[idx], suffix);
        let instances = vec![segs(&lines), segs(&mutated)];
        let out = diff_segments(&instances, &NoiseMask::none(), &VarianceRules::new());
        prop_assert!(out.report.diverged());
    }

    /// The filter-pair mask makes the pair itself always compare equal —
    /// the core soundness property of the de-noiser.
    #[test]
    fn filter_pair_canonicalizes_itself_equal(
        common_prefix in "[a-z]{0,10}",
        noise_a in "[0-9a-f]{1,12}",
        noise_b in "[0-9a-f]{1,12}",
        common_suffix in "[a-z]{0,10}",
    ) {
        let a = segs(&[format!("{common_prefix}{noise_a}{common_suffix}")]);
        let b = segs(&[format!("{common_prefix}{noise_b}{common_suffix}")]);
        let mask = NoiseMask::from_filter_pair(&a, &b);
        let canon_a = mask.apply(0, &a[0].payload);
        let canon_b = mask.apply(0, &b[0].payload);
        prop_assert_eq!(canon_a, canon_b);
    }

    /// A captured ephemeral token substitutes round-trip: instance i always
    /// receives exactly its own token.
    #[test]
    fn ephemeral_substitution_round_trips(
        t0 in "[a-zA-Z0-9]{10,20}",
        t1 in "[a-zA-Z0-9]{10,20}",
        t2 in "[a-zA-Z0-9]{10,20}",
    ) {
        prop_assume!(t0 != t1 && t1 != t2 && t0 != t2);
        let mut store = EphemeralStore::new();
        let pages: Vec<Vec<u8>> = [&t0, &t1, &t2]
            .iter()
            .map(|t| format!("<input value=\"{t}\">").into_bytes())
            .collect();
        let views: Vec<&[u8]> = pages.iter().map(Vec::as_slice).collect();
        let token = store.scan_position(&views);
        prop_assume!(token.is_some()); // prefixes may overlap pathologically
        let request = format!("POST /x token={t0} end");
        for (i, expected) in [&t0, &t1, &t2].iter().enumerate() {
            let rewritten = store.substitute(request.as_bytes(), i);
            let text = String::from_utf8_lossy(&rewritten).into_owned();
            prop_assert!(text.contains(expected.as_str()), "{i}: {text}");
        }
    }

    /// The unanimous fast path renders verdicts identical to the full
    /// pipeline, whatever the instances answer: unanimous ⇔ unanimous with
    /// the same forwarded bytes, and byte-for-byte the same
    /// `DivergenceReport` on a mismatch. Covers clean agreement, filter-pair
    /// noise (which forces a fast-path miss and a full de-noise run), and a
    /// surplus-line leak on a non-filter-pair instance.
    #[test]
    fn fast_path_verdicts_match_full_pipeline(
        lines in proptest::collection::vec("[a-z]{1,12}", 1..6),
        with_nonce in any::<bool>(),
        nonces in proptest::collection::vec("[0-9a-f]{4,8}", 3..4),
        with_leak in any::<bool>(),
        leak in "[A-Z]{1,6}",
    ) {
        let nonce = with_nonce.then_some(&nonces);
        let leak = with_leak.then_some(&leak);
        let mut responses: Vec<Vec<u8>> = (0..3)
            .map(|i| {
                let mut out = String::new();
                for (k, line) in lines.iter().enumerate() {
                    // Optional per-instance noise on the first line: the
                    // (0,1) filter pair should mask it when it is truly
                    // nondeterministic, and flag instance 2 when not.
                    match (&nonce, k) {
                        (Some(ns), 0) => {
                            let n = &ns[i];
                            out.push_str(&format!("id={n} {line}\n"));
                        }
                        _ => {
                            out.push_str(line);
                            out.push('\n');
                        }
                    }
                }
                out.into_bytes()
            })
            .collect();
        if let Some(extra) = &leak {
            // A surplus line from instance 2 only: the classic data leak.
            responses[2].extend_from_slice(format!("{extra}\n").as_bytes());
        }
        let run = |fast: bool| {
            let config = EngineConfig::builder(3).fast_path(fast).build().unwrap();
            NVersionEngine::new(config, LineProtocol::new())
                .evaluate_responses(&responses)
                .unwrap()
        };
        match (run(true), run(false)) {
            (Verdict::Unanimous(a), Verdict::Unanimous(b)) => prop_assert_eq!(a, b),
            (Verdict::Divergent(a), Verdict::Divergent(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "verdicts disagree: {a:?} vs {b:?}"),
        }
    }

    /// Replication is copy-on-write under ephemeral-token substitution: a
    /// request that echoes the captured token is rewritten per instance
    /// (each instance receives exactly its own token), while a token-free
    /// request shares one allocation across all N copies even with live
    /// tokens in the store.
    #[test]
    fn ephemeral_replication_is_copy_on_write(
        t0 in "[a-zA-Z0-9]{12,18}",
        t1 in "[a-zA-Z0-9]{12,18}",
        t2 in "[a-zA-Z0-9]{12,18}",
    ) {
        prop_assume!(t0 != t1 && t1 != t2 && t0 != t2);
        let config = EngineConfig::builder(3).build().unwrap();
        let mut engine = NVersionEngine::new(config, HttpProtocol::new());
        for (i, t) in [&t0, &t1, &t2].iter().enumerate() {
            let body = format!("token={t}\n");
            let resp = format!(
                "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            );
            engine.push_response(i, resp.as_bytes()).unwrap();
        }
        let outcome = engine.finish_exchange().unwrap();
        // Pathological token overlaps (shared prefixes shrinking the
        // differing middle below the capture threshold) abort capture.
        prop_assume!(outcome.report.tokens_captured > 0);
        prop_assert!(!outcome.report.diverged());

        // Token-free request: live tokens, nothing fires — all N copies
        // borrow the same shared buffer.
        let plain = b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n";
        let copies = engine.replicate_request(plain).unwrap();
        for copy in &copies {
            prop_assert!(copy.is_shared());
            prop_assert_eq!(copy.as_bytes().as_ptr(), copies[0].as_bytes().as_ptr());
        }

        // The canonical token echoed back: every instance's copy is
        // rewritten to carry its own token.
        let echo = format!("POST /s?t={t0} HTTP/1.1\r\nContent-Length: 0\r\n\r\n");
        let copies = engine.replicate_request(echo.as_bytes()).unwrap();
        prop_assert_eq!(copies.len(), 3);
        for (copy, expected) in copies.iter().zip([&t0, &t1, &t2]) {
            let text = String::from_utf8_lossy(copy.as_bytes()).into_owned();
            prop_assert!(text.contains(expected.as_str()), "{text}");
        }
    }

    /// Glob: a pattern built by wildcard-ing a string always matches it.
    #[test]
    fn glob_self_match(s in "[a-zA-Z0-9 ]{1,30}", cut in 0usize..30) {
        let cut = cut % s.len();
        let pattern = format!("{}*{}", &s[..cut], &s[cut..]);
        let g = GlobPattern::new(&pattern).unwrap();
        prop_assert!(g.matches(s.as_bytes()));
    }

    /// Glob: a literal pattern matches exactly itself.
    #[test]
    fn glob_literal_exactness(s in "[a-zA-Z0-9]{1,20}", other in "[a-zA-Z0-9]{1,20}") {
        let g = GlobPattern::new(&s).unwrap();
        prop_assert!(g.matches(s.as_bytes()));
        prop_assert_eq!(g.matches(other.as_bytes()), s == other);
    }

    /// rle: decode(encode(x)) == x for arbitrary bytes.
    #[test]
    fn rle_round_trip(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let encoded = rle_encode(&data);
        prop_assert_eq!(rle_decode(&encoded).unwrap(), data);
    }

    /// Signature throttle: recording a request makes exactly that request
    /// refusable; others stay unaffected.
    #[test]
    fn throttle_is_precise(bad in proptest::collection::vec(any::<u8>(), 1..64),
                           good in proptest::collection::vec(any::<u8>(), 1..64)) {
        prop_assume!(bad != good);
        let mut t = SignatureThrottle::new(0);
        t.record(&bad);
        prop_assert!(t.should_refuse(&bad));
        prop_assert!(!t.should_refuse(&good));
    }

    /// JSON: integers round-trip through render + reparse.
    #[test]
    fn json_number_round_trip(n in -1_000_000_000i64..1_000_000_000) {
        let doc = format!("{{\"v\": {n}}}");
        let parsed = parse_json(&doc).unwrap();
        let rendered = parsed.to_string();
        let reparsed = parse_json(&rendered).unwrap();
        prop_assert_eq!(parsed, reparsed);
    }

    /// JSON: escaped strings round-trip.
    #[test]
    fn json_string_round_trip(s in "[a-zA-Z0-9 \\\\\"\n\t]{0,40}") {
        let escaped = s
            .replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
            .replace('\t', "\\t");
        let doc = format!("\"{escaped}\"");
        let parsed = parse_json(&doc).unwrap();
        prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
    }

    /// SQL: inserted rows are retrievable by key and COUNT agrees.
    #[test]
    fn sql_insert_select_round_trip(rows in proptest::collection::btree_map(
        0i64..1000, "[a-zA-Z0-9]{0,12}", 1..20)) {
        let mut db = Database::new(PgVersion::parse("10.7").unwrap());
        let mut session = db.session("app");
        db.execute(&mut session, "CREATE TABLE t (id INT, name TEXT)").unwrap();
        let values: Vec<String> =
            rows.iter().map(|(k, v)| format!("({k}, '{v}')")).collect();
        db.execute(&mut session, &format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        let count = db.execute(&mut session, "SELECT COUNT(*) FROM t").unwrap();
        prop_assert_eq!(count.rows[0][0].to_string(), rows.len().to_string());
        for (k, v) in rows.iter().take(5) {
            let r = db
                .execute(&mut session, &format!("SELECT name FROM t WHERE id = {k}"))
                .unwrap();
            prop_assert_eq!(r.rows.len(), 1);
            prop_assert_eq!(r.rows[0][0].to_string(), v.clone());
        }
    }

    /// Value::total_cmp is antisymmetric and transitive on a sample triple.
    #[test]
    fn value_total_cmp_is_consistent(a in -100i64..100, b in -100i64..100, c in -100i64..100) {
        let (va, vb, vc) = (Value::Int(a), Value::Float(b as f64), Value::Int(c));
        let ab = va.total_cmp(&vb);
        let ba = vb.total_cmp(&va);
        prop_assert_eq!(ab, ba.reverse());
        if ab != std::cmp::Ordering::Greater && vb.total_cmp(&vc) != std::cmp::Ordering::Greater {
            prop_assert_ne!(va.total_cmp(&vc), std::cmp::Ordering::Greater);
        }
    }

    /// ORDER BY sorts whatever we throw at it.
    #[test]
    fn sql_order_by_sorts(mut xs in proptest::collection::vec(-1000i64..1000, 1..30)) {
        let mut db = Database::new(PgVersion::parse("10.7").unwrap());
        let mut session = db.session("app");
        db.execute(&mut session, "CREATE TABLE t (x INT)").unwrap();
        let values: Vec<String> = xs.iter().map(|x| format!("({x})")).collect();
        db.execute(&mut session, &format!("INSERT INTO t VALUES {}", values.join(", ")))
            .unwrap();
        let r = db.execute(&mut session, "SELECT x FROM t ORDER BY x").unwrap();
        xs.sort_unstable();
        let got: Vec<i64> = r
            .rows
            .iter()
            .map(|row| row[0].to_string().parse().unwrap())
            .collect();
        prop_assert_eq!(got, xs);
    }
}

/// What one generated exchange looks like, whatever protocol carries it.
struct Exchange {
    /// Body lines every instance agrees on (before `shape` is applied).
    lines: Vec<String>,
    /// Per-instance noise woven into the first line and a header.
    noise: Vec<String>,
    /// Whether each instance also reports its own `ver=1.<i>`.
    with_version: bool,
    /// 0 nothing, 1 a surplus line on instance 2, 2 a missing line on
    /// instance 2, 3 a missing line on instance 1 (so the filter pair itself
    /// disagrees on the count), 4 a changed line on instance 2.
    shape: u8,
    /// Per instance: 0 `Content-Length`, 1 chunked, 2 `rle` (HTTP only).
    framings: Vec<u8>,
    /// Rotates header spelling and whitespace across instances (HTTP only).
    header_style: u8,
    lf_only: bool,
}

impl Exchange {
    fn lines_of(&self, instance: usize) -> Vec<String> {
        let mut lines: Vec<String> = self
            .lines
            .iter()
            .enumerate()
            .map(|(k, line)| match k {
                0 => format!("id={} {line}", self.noise[instance]),
                _ => line.clone(),
            })
            .collect();
        if self.with_version {
            lines.push(format!("ver=1.{instance}"));
        }
        match (self.shape, instance) {
            (1, 2) => lines.push("LEAK row 42".into()),
            (2, 2) | (3, 1) => {
                lines.pop();
            }
            (4, 2) if !lines.is_empty() => {
                let last = lines.len() - 1;
                lines[last].push_str(" CHANGED");
            }
            _ => {}
        }
        lines
    }

    fn http(&self, instance: usize) -> Vec<u8> {
        let eol = if self.lf_only { "\n" } else { "\r\n" };
        let noise = &self.noise[instance];
        let mut body = self.lines_of(instance).join("\n").into_bytes();
        if instance.is_multiple_of(2) && !body.is_empty() {
            body.push(b'\n');
        }
        let style = (usize::from(self.header_style) + instance) % 3;
        let mut head = format!("HTTP/1.1 200 OK{eol}");
        head += &match style {
            0 => format!("X-Noise: {noise}{eol}"),
            1 => format!("x-noise:{noise}  {eol}"),
            _ => format!("X-NOISE :   {noise}{eol}"),
        };
        head += &match (self.framings[instance], style) {
            (1, 0) => format!("Transfer-Encoding: chunked{eol}"),
            (1, _) => format!("transfer-ENCODING:  Chunked {eol}"),
            (2, _) => {
                body = rle_encode(&body);
                format!(
                    "content-encoding: RLE{eol}Content-Length: {}{eol}",
                    body.len()
                )
            }
            (_, 0) => format!("Content-Length: {}{eol}", body.len()),
            _ => format!("CONTENT-LENGTH :{} {eol}", body.len()),
        };
        let mut wire = (head + eol).into_bytes();
        if self.framings[instance] == 1 {
            let (a, b) = body.split_at(body.len() / 2);
            for chunk in [a, b].into_iter().filter(|c| !c.is_empty()) {
                wire.extend_from_slice(format!("{:x}\r\n", chunk.len()).as_bytes());
                wire.extend_from_slice(chunk);
                wire.extend_from_slice(b"\r\n");
            }
            wire.extend_from_slice(b"0\r\n\r\n");
        } else {
            wire.extend_from_slice(&body);
        }
        wire
    }

    fn line(&self, instance: usize) -> Vec<u8> {
        let mut wire = self.lines_of(instance).join("\n").into_bytes();
        wire.push(b'\n');
        wire
    }

    fn pg(&self, instance: usize) -> Vec<u8> {
        let msg = |tag: u8, payload: &[u8]| {
            PgMessage {
                tag,
                payload: payload.to_vec(),
            }
            .encode()
        };
        let mut wire = msg(
            b'S',
            format!("session\0{}\0", self.noise[instance]).as_bytes(),
        );
        wire.extend(msg(b'T', b"col"));
        for line in self.lines_of(instance) {
            wire.extend(msg(b'D', line.as_bytes()));
        }
        wire.extend(msg(b'C', b"SELECT"));
        wire.extend(msg(b'Z', b"I"));
        wire
    }
}

/// What the engine must conclude, composed by hand from the public parts:
/// frame, tokenize the critical frames, learn the pair's mask, diff, decide.
fn by_parts(
    protocol: &dyn Protocol,
    config: &EngineConfig,
    responses: &[Vec<u8>],
) -> (Conclusion, Vec<Vec<u8>>) {
    let mut wires = Vec::new();
    let segments: Vec<Vec<Segment>> = responses
        .iter()
        .map(|bytes| {
            let mut buf = bytes::BytesMut::from(&bytes[..]);
            let frames = protocol
                .split_frames(&mut buf, Direction::Response)
                .unwrap();
            assert!(buf.is_empty(), "generated exchanges frame completely");
            wires.push(frames.iter().flat_map(|f| f.bytes.clone()).collect());
            frames
                .iter()
                .filter(|f| f.critical)
                .flat_map(|f| protocol.tokenize(f))
                .collect()
        })
        .collect();
    let mask = match config.filter_pair() {
        Some((a, b)) => NoiseMask::from_filter_pair(&segments[a], &segments[b]),
        None => NoiseMask::none(),
    };
    let outcome = diff_segments(&segments, &mask, config.variance());
    let decision = config.policy().decide(&outcome);
    let quarantined = match (&decision, outcome.report.diverged()) {
        (PolicyDecision::Forward { .. }, true) => {
            let winners = &outcome.agreement_groups()[0];
            (0..responses.len())
                .filter(|i| !winners.contains(i))
                .collect()
        }
        _ => Vec::new(),
    };
    (
        Conclusion {
            report: outcome.report,
            decision,
            quarantined,
        },
        wires,
    )
}

#[derive(Debug, PartialEq)]
struct Conclusion {
    report: rddr_repro::core::DivergenceReport,
    decision: PolicyDecision,
    quarantined: Vec<usize>,
}

proptest! {
    /// Pipeline ≡ parts: for HTTP exchanges in every transfer framing, head
    /// spelling and line-ending style, and for line and PostgreSQL exchanges,
    /// with per-instance noise, a surplus, missing or changed line, or a
    /// filter pair that itself disagrees on the segment count, the engine's
    /// outcome — decision, full report, quarantine set, forwarded bytes and
    /// the `evaluate_responses` verdict — is what composing the public
    /// `tokenize` → `from_filter_pair` → `diff_segments` → `decide` yields,
    /// with and without a filter pair, a variance rule, and majority voting.
    #[test]
    fn pipeline_equals_parts(
        lines in proptest::collection::vec("[a-z<>noise ]{0,14}", 0..7),
        noise in proptest::collection::vec("[0-9a-f]{1,9}", 3..4),
        (with_version, shape, lf_only) in (any::<bool>(), 0u8..5, any::<bool>()),
        framings in proptest::collection::vec(0u8..3, 3..4),
        header_style in 0u8..3,
    ) {
        let exchange = Exchange { lines, noise, with_version, shape, framings, header_style, lf_only };
        type Build = fn() -> Box<dyn Protocol>;
        type Wire = fn(&Exchange, usize) -> Vec<u8>;
        let protocols: [(Build, Wire); 3] = [
            (|| Box::new(HttpProtocol::new()), Exchange::http),
            (|| Box::new(LineProtocol::new()), Exchange::line),
            (|| Box::new(PgProtocol::new()), Exchange::pg),
        ];
        for (protocol, wire) in protocols {
            let responses: Vec<Vec<u8>> = (0..3).map(|i| wire(&exchange, i)).collect();
            for knobs in 0..8u8 {
                let (with_pair, with_rule, majority) =
                    (knobs & 1 != 0, knobs & 2 != 0, knobs & 4 != 0);
                let mut builder = EngineConfig::builder(3);
                if with_pair {
                    builder = builder.filter_pair(0, 1);
                }
                if with_rule {
                    let mut rules = VarianceRules::new();
                    rules.push(VarianceRule::any_label("*ver=1.*").unwrap());
                    builder = builder.variance(rules);
                }
                if majority {
                    builder = builder.policy(ResponsePolicy::MajorityVote);
                }
                let config = builder.build().unwrap();
                let (expected, wires) = by_parts(protocol().as_ref(), &config, &responses);

                let mut engine = NVersionEngine::from_boxed(config.clone(), protocol());
                for (i, bytes) in responses.iter().enumerate() {
                    engine.push_response(i, bytes).unwrap();
                }
                let outcome = engine.finish_exchange().unwrap();
                let forward = match &expected.decision {
                    PolicyDecision::Forward { instance } => Some(wires[*instance].clone()),
                    PolicyDecision::Sever { .. } => None,
                };
                prop_assert_eq!(&outcome.forward, &forward);
                let got = Conclusion {
                    report: outcome.report,
                    decision: outcome.decision,
                    quarantined: outcome.quarantined,
                };
                prop_assert_eq!(
                    &got,
                    &expected,
                    "knobs {knobs}, first response {:?}",
                    String::from_utf8_lossy(&responses[0])
                );

                let verdict = NVersionEngine::from_boxed(config, protocol())
                    .evaluate_responses(&responses)
                    .unwrap();
                match verdict {
                    Verdict::Unanimous(bytes) => {
                        prop_assert!(!expected.report.diverged());
                        prop_assert_eq!(Some(bytes), forward);
                    }
                    Verdict::Divergent(report) => prop_assert_eq!(report, expected.report),
                }
            }
        }
    }
}

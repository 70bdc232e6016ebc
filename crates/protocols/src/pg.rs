//! The PostgreSQL wire-protocol module.
//!
//! "The PostgreSQL module tokenizes traffic into separate messages according
//! to the PostgreSQL message format and differences messages of known
//! critical types" (§IV-B1).
//!
//! The v3 wire format frames every backend/frontend message as a one-byte
//! type tag followed by a big-endian `i32` length (which includes itself).
//! The one exception is the frontend *startup* message, which has no tag.
//!
//! Critical (diffed) message types are the ones that can carry data out of
//! the database: `DataRow`, `RowDescription`, `CommandComplete`,
//! `ErrorResponse`, `NoticeResponse` (the leak channel of CVE-2017-7484 and
//! CVE-2019-10130 is a `NOTICE`). Session-identity messages
//! (`ParameterStatus`, `BackendKeyData`) are inherently instance-specific
//! and are treated as non-critical, with operator-visible known-variance
//! rules still applicable to the critical set (§IV-B4, used for
//! `server_version`).

use std::ops::Range;

use bytes::BytesMut;
use rddr_core::{Direction, Frame, Protocol, RddrError, Result, SegmentTable};

/// A decoded PostgreSQL wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PgMessage {
    /// The type tag (`b'D'` for `DataRow`, etc.); `0` for untagged startup.
    pub tag: u8,
    /// The message payload (after the length word).
    pub payload: Vec<u8>,
}

impl PgMessage {
    /// Encodes the message back to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.payload.len() + 5);
        if self.tag != 0 {
            out.push(self.tag);
        }
        out.extend_from_slice(&((self.payload.len() as i32 + 4).to_be_bytes()));
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decodes one message from the front of `buf`, if complete.
    pub fn decode(buf: &[u8], startup_allowed: bool) -> Result<Option<(PgMessage, usize)>> {
        Ok(message_at(buf, startup_allowed)?.map(|(tag, payload)| {
            let total = payload.end;
            let payload = buf[payload].to_vec();
            (PgMessage { tag, payload }, total)
        }))
    }
}

/// Locates the message at the front of `buf`, if complete: its tag (`0` for
/// an untagged startup message) and the range of its payload, which ends
/// where the message does. [`PgMessage::decode`] without the copy.
///
/// # Errors
///
/// [`RddrError::Protocol`] when the length field is below 4.
pub fn message_at(buf: &[u8], startup_allowed: bool) -> Result<Option<(u8, Range<usize>)>> {
    let Some(&first) = buf.first() else {
        return Ok(None);
    };
    let tagged = !startup_allowed || first.is_ascii_alphabetic();
    let (tag, len_off) = if tagged { (first, 1) } else { (0u8, 0) };
    let Some(len) = buf.get(len_off..len_off + 4) else {
        return Ok(None);
    };
    let len = i32::from_be_bytes(len.try_into().expect("4 bytes"));
    if len < 4 {
        return Err(RddrError::Protocol(format!("pg message length {len} < 4")));
    }
    let total = len_off + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((tag, len_off + 4..total)))
}

/// Message types by tag, as the `pg:<Name>` labels frames and segments
/// carry; [`pg_type_name`] is the part after the prefix.
const LABELS: [(u8, &str); 16] = [
    (0, "pg:Startup"),
    (b'R', "pg:Authentication"),
    (b'S', "pg:ParameterStatus"),
    (b'K', "pg:BackendKeyData"),
    (b'Z', "pg:ReadyForQuery"),
    (b'T', "pg:RowDescription"),
    (b'D', "pg:DataRow"),
    (b'C', "pg:CommandComplete"),
    (b'E', "pg:ErrorResponse"),
    (b'N', "pg:NoticeResponse"),
    (b'Q', "pg:Query"),
    (b'X', "pg:Terminate"),
    (b'P', "pg:Parse"),
    (b'B', "pg:Bind"),
    (b'p', "pg:PasswordMessage"),
    (b'I', "pg:EmptyQueryResponse"),
];

fn label(tag: u8) -> &'static str {
    LABELS
        .iter()
        .find(|(t, _)| *t == tag)
        .map_or("pg:Unknown", |(_, label)| label)
}

/// Maps a tag byte to the v3 protocol message name.
pub fn pg_type_name(tag: u8) -> &'static str {
    &label(tag)["pg:".len()..]
}

/// Whether a backend message type is diffed across instances.
fn is_critical(tag: u8) -> bool {
    matches!(tag, b'T' | b'D' | b'C' | b'E' | b'N' | b'I' | 0 | b'Q')
}

/// The PostgreSQL protocol module.
#[derive(Debug, Clone, Copy, Default)]
pub struct PgProtocol;

impl PgProtocol {
    /// Creates the PostgreSQL module.
    pub fn new() -> Self {
        PgProtocol
    }
}

impl Protocol for PgProtocol {
    fn name(&self) -> &str {
        "postgres"
    }

    fn split_frames(&self, buf: &mut BytesMut, direction: Direction) -> Result<Vec<Frame>> {
        let startup_allowed = direction == Direction::Request;
        let mut frames = Vec::new();
        while let Some((tag, payload)) = message_at(buf, startup_allowed)? {
            let tagged = payload.start == 5;
            let mut bytes = buf.split_to(payload.end).freeze();
            if tagged && tag == 0 {
                // A NUL tag reads as "untagged" everywhere else (it is how
                // `PgMessage` spells a startup message), so such a message
                // is framed the way `encode` writes it: without the tag.
                bytes.remove(0);
            }
            frames.push(Frame {
                label: label(tag).into(),
                bytes,
                critical: is_critical(tag),
            });
        }
        Ok(frames)
    }

    fn tokenize_into(&self, frame: &Frame, table: &mut SegmentTable) {
        match message_at(&frame.bytes, frame.label == "pg:Startup") {
            Ok(Some((tag, payload))) => table.push(label(tag), &frame.bytes[payload]),
            _ => table.push("pg:malformed", &frame.bytes),
        }
    }

    fn exchange_complete(&self, frames: &[Frame], direction: Direction) -> bool {
        match direction {
            // A query's response cycle ends at ReadyForQuery.
            Direction::Response => frames.iter().any(|f| f.label == "pg:ReadyForQuery"),
            Direction::Request => !frames.is_empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(tag: u8, payload: &[u8]) -> Vec<u8> {
        PgMessage {
            tag,
            payload: payload.to_vec(),
        }
        .encode()
    }

    #[test]
    fn decode_round_trips_encode() {
        let wire = msg(b'D', b"row-bytes");
        let (decoded, used) = PgMessage::decode(&wire, false).unwrap().unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(decoded.tag, b'D');
        assert_eq!(decoded.payload, b"row-bytes");
        assert_eq!(decoded.encode(), wire);
    }

    #[test]
    fn partial_message_yields_none() {
        let wire = msg(b'D', b"row");
        assert!(PgMessage::decode(&wire[..3], false).unwrap().is_none());
        assert!(PgMessage::decode(&wire[..wire.len() - 1], false)
            .unwrap()
            .is_none());
    }

    #[test]
    fn negative_length_is_an_error() {
        let bad = [b'D', 0xff, 0xff, 0xff, 0xff];
        assert!(PgMessage::decode(&bad, false).is_err());
    }

    #[test]
    fn startup_message_has_no_tag() {
        // Startup: length(8) + version 196608.
        let mut wire = 8i32.to_be_bytes().to_vec();
        wire.extend(196608i32.to_be_bytes());
        let (decoded, used) = PgMessage::decode(&wire, true).unwrap().unwrap();
        assert_eq!(decoded.tag, 0);
        assert_eq!(used, 8);
    }

    #[test]
    fn split_frames_labels_and_criticality() {
        let p = PgProtocol::new();
        let mut wire = msg(b'S', b"server_version\x0010.7\x00");
        wire.extend(msg(b'T', b"rowdesc"));
        wire.extend(msg(b'D', b"data"));
        wire.extend(msg(b'Z', b"I"));
        let mut buf = BytesMut::from(&wire[..]);
        let frames = p.split_frames(&mut buf, Direction::Response).unwrap();
        let labels: Vec<&str> = frames.iter().map(|f| f.label.as_ref()).collect();
        assert_eq!(
            labels,
            vec![
                "pg:ParameterStatus",
                "pg:RowDescription",
                "pg:DataRow",
                "pg:ReadyForQuery"
            ]
        );
        assert!(!frames[0].critical, "ParameterStatus is session identity");
        assert!(frames[1].critical);
        assert!(frames[2].critical);
        assert!(!frames[3].critical, "ReadyForQuery carries txn status only");
        assert!(buf.is_empty());
    }

    #[test]
    fn exchange_completes_at_ready_for_query() {
        let p = PgProtocol::new();
        let mut buf = BytesMut::from(&msg(b'D', b"data")[..]);
        let mut frames = p.split_frames(&mut buf, Direction::Response).unwrap();
        assert!(!p.exchange_complete(&frames, Direction::Response));
        buf.extend_from_slice(&msg(b'Z', b"I"));
        frames.extend(p.split_frames(&mut buf, Direction::Response).unwrap());
        assert!(p.exchange_complete(&frames, Direction::Response));
    }

    #[test]
    fn tokenize_exposes_payload_for_diffing() {
        let p = PgProtocol::new();
        let frame = Frame::new("pg:NoticeResponse", msg(b'N', b"leak 42 1000"));
        let segs = p.tokenize(&frame);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].label, "pg:NoticeResponse");
        assert_eq!(segs[0].payload, b"leak 42 1000");
    }

    #[test]
    fn notice_divergence_is_detectable_end_to_end() {
        // The CVE-2017-7484 shape: one instance emits NOTICE leaks, the
        // other errors out — different critical frames.
        use rddr_core::{EngineConfig, NVersionEngine, Verdict};
        let mut leaking = msg(b'N', b"NOTICE: leak 42");
        leaking.extend(msg(b'C', b"SELECT 1"));
        leaking.extend(msg(b'Z', b"I"));
        let mut erroring = msg(b'E', b"ERROR: unsupported feature");
        erroring.extend(msg(b'Z', b"I"));
        let mut engine =
            NVersionEngine::new(EngineConfig::builder(2).build().unwrap(), PgProtocol::new());
        let verdict = engine.evaluate_responses(&[leaking, erroring]).unwrap();
        assert!(matches!(verdict, Verdict::Divergent(_)));
    }

    #[test]
    fn identical_result_sets_pass_despite_differing_parameter_status() {
        use rddr_core::{EngineConfig, NVersionEngine, Verdict};
        let mk = |version: &str| {
            let mut wire = msg(b'S', format!("server_version\0{version}\0").as_bytes());
            wire.extend(msg(b'T', b"col_a"));
            wire.extend(msg(b'D', b"1"));
            wire.extend(msg(b'Z', b"I"));
            wire
        };
        let mut engine =
            NVersionEngine::new(EngineConfig::builder(2).build().unwrap(), PgProtocol::new());
        let verdict = engine
            .evaluate_responses(&[mk("10.7"), mk("10.9")])
            .unwrap();
        assert!(
            matches!(verdict, Verdict::Unanimous(_)),
            "version banners must not trigger divergence"
        );
    }

    #[test]
    fn pipelined_queries_frame_one_at_a_time() {
        let p = PgProtocol::new();
        let mut wire = msg(b'Q', b"SELECT 1;\0");
        wire.extend(msg(b'Q', b"SELECT 2;\0"));
        let mut buf = BytesMut::from(&wire[..]);
        let frames = p.split_frames(&mut buf, Direction::Request).unwrap();
        assert_eq!(frames.len(), 2);
        assert!(frames.iter().all(|f| f.label == "pg:Query"));
    }

    #[test]
    fn type_names_cover_common_tags() {
        assert_eq!(pg_type_name(b'D'), "DataRow");
        assert_eq!(pg_type_name(b'Z'), "ReadyForQuery");
        assert_eq!(pg_type_name(b'!'), "Unknown");
    }
}

//! Protocol modules (§IV-B1).
//!
//! "Support for application layer protocols is implemented by Python modules
//! that comply with a standard interface, allowing developers to extend RDDR
//! to support other protocols. These modules handle all protocol-specific
//! tasks such as tokenizing, differencing traffic, and traffic modification."
//!
//! This module defines that standard interface as the [`Protocol`] trait,
//! plus two protocol-agnostic implementations ([`LineProtocol`], and
//! [`RawProtocol`]). Richer modules (HTTP, PostgreSQL, JSON) live in the
//! `rddr-protocols` crate. The trait is deliberately *not* sealed — the
//! paper invites third parties to add protocol modules.

use bytes::BytesMut;

use crate::{find_byte, Direction, Frame, Result, Segment, SegmentTable};

/// The standard interface every protocol module implements.
///
/// A protocol module is consulted by the engine and proxies for four tasks:
/// framing (where does one application message end?), tokenizing (what are
/// the comparable units inside a frame?), criticality (does this frame
/// participate in diffing at all?), and ephemeral-state support (should the
/// engine run CSRF-token capture on this protocol?).
pub trait Protocol: Send + Sync {
    /// A short name, e.g. `"http"`, `"postgres"`.
    fn name(&self) -> &str;

    /// Extracts complete frames from `buf`, leaving any trailing partial
    /// frame in place. Called repeatedly as bytes arrive.
    ///
    /// # Errors
    ///
    /// Returns [`crate::RddrError::Protocol`] on malformed traffic.
    fn split_frames(&self, buf: &mut BytesMut, direction: Direction) -> Result<Vec<Frame>>;

    /// Tokenizes a frame into ordered, diffable segments, appended to
    /// `table` (the engine tokenizes all of an instance's critical frames
    /// into one table, so implementations never clear it).
    fn tokenize_into(&self, frame: &Frame, table: &mut SegmentTable);

    /// [`Protocol::tokenize_into`] with the segments handed back in owned
    /// form, for callers outside the engine.
    fn tokenize(&self, frame: &Frame) -> Vec<Segment> {
        let mut table = SegmentTable::new();
        self.tokenize_into(frame, &mut table);
        table.to_segments()
    }

    /// Whether the engine should run ephemeral-state (CSRF token) capture
    /// and substitution for this protocol. Only the HTTP module enables it,
    /// mirroring the paper ("only the HTTP extension implements this").
    fn supports_ephemeral(&self) -> bool {
        false
    }

    /// Whether the frames collected so far form one complete exchange unit
    /// (e.g. a full HTTP response, or a PostgreSQL message sequence ending
    /// in `ReadyForQuery`). The proxy diffs once every instance is complete.
    fn exchange_complete(&self, frames: &[Frame], direction: Direction) -> bool {
        let _ = direction;
        !frames.is_empty()
    }

    /// How many leading frames form one complete exchange unit, or `None`
    /// while the unit is still incomplete. The default consumes everything
    /// buffered once [`Protocol::exchange_complete`] holds — exactly the
    /// pre-pipelining behavior. Protocols with strict 1:1 request/response
    /// framing (e.g. [`LineProtocol`]) override this so pipelined exchanges
    /// are consumed and diffed one unit at a time.
    fn exchange_take(&self, frames: &[Frame], direction: Direction) -> Option<usize> {
        self.exchange_complete(frames, direction)
            .then_some(frames.len())
    }

    /// Whether the proxy may batch several buffered request frames into one
    /// fan-out write per instance and evaluate the responses unit by unit
    /// (via [`Protocol::exchange_take`]). Requires strict 1:1
    /// request/response framing and no ephemeral-state capture, since
    /// capture/substitution assumes sequential exchanges. Default: false.
    fn supports_pipelining(&self) -> bool {
        false
    }
}

/// Newline-delimited framing: each complete line is a frame of one segment.
///
/// This is the protocol the paper's simplest services (echo servers, the
/// ASLR proof-of-concept) speak.
#[derive(Debug, Clone, Copy, Default)]
pub struct LineProtocol;

impl LineProtocol {
    /// Creates the line protocol.
    pub fn new() -> Self {
        LineProtocol
    }
}

impl Protocol for LineProtocol {
    fn name(&self) -> &str {
        "line"
    }

    fn split_frames(&self, buf: &mut BytesMut, _direction: Direction) -> Result<Vec<Frame>> {
        let mut frames = Vec::new();
        while let Some(pos) = find_byte(b'\n', buf) {
            // `split_to` already copied the line out; `freeze` hands over
            // that allocation instead of copying a second time.
            let line = buf.split_to(pos + 1);
            frames.push(Frame::new("line", line.freeze()));
        }
        Ok(frames)
    }

    fn tokenize_into(&self, frame: &Frame, table: &mut SegmentTable) {
        let payload = frame
            .bytes
            .strip_suffix(b"\n")
            .map(|b| b.strip_suffix(b"\r").unwrap_or(b))
            .unwrap_or(&frame.bytes);
        table.push("line", payload);
    }

    fn exchange_take(&self, frames: &[Frame], _direction: Direction) -> Option<usize> {
        // One line in, one line out: pipelined exchanges diff unit by unit.
        (!frames.is_empty()).then_some(1)
    }

    fn supports_pipelining(&self) -> bool {
        true
    }
}

/// Opaque framing: whatever bytes have arrived form one frame, compared
/// wholesale. The fallback for unknown TCP protocols.
#[derive(Debug, Clone, Copy, Default)]
pub struct RawProtocol;

impl RawProtocol {
    /// Creates the raw protocol.
    pub fn new() -> Self {
        RawProtocol
    }
}

impl Protocol for RawProtocol {
    fn name(&self) -> &str {
        "raw"
    }

    fn split_frames(&self, buf: &mut BytesMut, _direction: Direction) -> Result<Vec<Frame>> {
        if buf.is_empty() {
            return Ok(Vec::new());
        }
        let all = buf.split_to(buf.len());
        Ok(vec![Frame::new("raw", all.freeze())])
    }

    fn tokenize_into(&self, frame: &Frame, table: &mut SegmentTable) {
        table.push("raw", &frame.bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_protocol_frames_complete_lines_only() {
        let p = LineProtocol::new();
        let mut buf = BytesMut::from(&b"one\ntwo\npart"[..]);
        let frames = p.split_frames(&mut buf, Direction::Response).unwrap();
        assert_eq!(frames.len(), 2);
        assert_eq!(frames[0].bytes, b"one\n");
        assert_eq!(&buf[..], b"part", "partial line stays buffered");
    }

    #[test]
    fn line_tokenize_strips_crlf() {
        let p = LineProtocol::new();
        let segs = p.tokenize(&Frame::new("line", b"hello\r\n".to_vec()));
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].payload, b"hello");
    }

    #[test]
    fn raw_protocol_consumes_everything() {
        let p = RawProtocol::new();
        let mut buf = BytesMut::from(&b"\x00\x01\x02"[..]);
        let frames = p.split_frames(&mut buf, Direction::Request).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].bytes, vec![0, 1, 2]);
        assert!(buf.is_empty());
    }

    #[test]
    fn raw_protocol_empty_buffer_yields_no_frames() {
        let p = RawProtocol::new();
        let mut buf = BytesMut::new();
        assert!(p
            .split_frames(&mut buf, Direction::Request)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn neither_basic_protocol_supports_ephemeral() {
        assert!(!LineProtocol::new().supports_ephemeral());
        assert!(!RawProtocol::new().supports_ephemeral());
    }

    #[test]
    fn line_exchange_take_is_one_frame() {
        let p = LineProtocol::new();
        let frames = vec![
            Frame::new("line", b"a\n".to_vec()),
            Frame::new("line", b"b\n".to_vec()),
        ];
        assert_eq!(p.exchange_take(&frames, Direction::Response), Some(1));
        assert_eq!(p.exchange_take(&[], Direction::Response), None);
    }

    #[test]
    fn default_exchange_take_consumes_everything_when_complete() {
        let p = RawProtocol::new();
        let frames = vec![
            Frame::new("raw", b"a".to_vec()),
            Frame::new("raw", b"b".to_vec()),
        ];
        assert_eq!(p.exchange_take(&frames, Direction::Response), Some(2));
        assert_eq!(p.exchange_take(&[], Direction::Response), None);
    }

    #[test]
    fn protocols_are_object_safe() {
        let protocols: Vec<Box<dyn Protocol>> =
            vec![Box::new(LineProtocol::new()), Box::new(RawProtocol::new())];
        assert_eq!(protocols[0].name(), "line");
        assert_eq!(protocols[1].name(), "raw");
    }
}

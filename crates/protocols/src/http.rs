//! The HTTP protocol module.
//!
//! Mirrors the paper's description (§IV-B1): "the HTTP module tokenizes at
//! the newline boundary and compares lines. If necessary, it also interprets
//! the HTTP header and decompresses the message before differencing, and it
//! saves CSRF tokens."
//!
//! Framing supports `Content-Length` and `Transfer-Encoding: chunked`
//! bodies for both requests and responses. Before tokenization, chunked
//! bodies are de-chunked and the toy `rle` content encoding (this repo's
//! stand-in for gzip — see `DESIGN.md`) is decoded, so instances that chose
//! different transfer framings still compare equal when their payloads agree.
//!
//! Framing and tokenizing both read the head where it lies: one forward scan
//! finds the blank line, the head is viewed as text without copying it
//! (`String::from_utf8_lossy` borrows whenever the head is valid UTF-8, i.e.
//! always in practice), and the three framing headers are matched
//! case-insensitively on that view. The tokenizer writes straight into the
//! engine's [`SegmentTable`]: header segments as `lower(name): value`, then
//! the body — copied, de-chunked or `rle`-decoded exactly once into the
//! table's arena — with one span per line. Nothing is allocated per header
//! or per line.

use std::ops::Range;

use bytes::BytesMut;
use rddr_core::{find_byte, Direction, Frame, Protocol, RddrError, Result, SegmentTable};

/// The HTTP/1.1 protocol module.
#[derive(Debug, Clone, Copy, Default)]
pub struct HttpProtocol;

impl HttpProtocol {
    /// Creates the HTTP module.
    pub fn new() -> Self {
        HttpProtocol
    }
}

/// The offset just past the head's blank line, if the buffer holds one.
///
/// Takes whichever of `CRLF CRLF` and `LF LF` comes first, so an LF-only
/// head followed by a body that happens to contain `CRLF CRLF` is not
/// mis-framed. One forward scan over the line feeds, which stops at the
/// blank line: the body is never looked at.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    let mut from = 0;
    while let Some(at) = find_byte(b'\n', &buf[from..]) {
        let lf = from + at;
        match buf.get(lf + 1) {
            Some(b'\n') => return Some(lf + 2),
            Some(b'\r') if lf > 0 && buf[lf - 1] == b'\r' && buf.get(lf + 2) == Some(&b'\n') => {
                return Some(lf + 3)
            }
            _ => {}
        }
        from = lf + 1;
    }
    None
}

/// The lines of a head's text: split at every line feed, each line without
/// the carriage return that preceded its line feed, if one did.
fn head_lines(text: &str) -> impl Iterator<Item = &str> {
    let mut rest = Some(text);
    std::iter::from_fn(move || {
        let text = rest?;
        let Some(at) = find_byte(b'\n', text.as_bytes()) else {
            rest = None;
            return Some(text);
        };
        rest = Some(&text[at + 1..]);
        let line = &text[..at];
        Some(line.strip_suffix('\r').unwrap_or(line))
    })
}

/// A header line as its trimmed `(name, value)`; `None` for anything else.
fn header(line: &str) -> Option<(&str, &str)> {
    let (name, value) = line.split_once(':')?;
    Some((name.trim(), value.trim()))
}

/// The values of the headers that say how the body is framed and coded.
/// They are interpreted, never diffed; of repeated ones the first counts.
#[derive(Default)]
struct Framing<'a> {
    transfer_encoding: Option<&'a str>,
    content_length: Option<&'a str>,
    content_encoding: Option<&'a str>,
}

impl<'a> Framing<'a> {
    /// Reads the framing headers off a head's text.
    fn of(text: &'a str) -> Self {
        let mut framing = Framing::default();
        for (name, value) in head_lines(text).skip(1).filter_map(header) {
            framing.note(name, value);
        }
        framing
    }

    /// Records `name: value` if it is a framing header; says whether it is.
    fn note(&mut self, name: &str, value: &'a str) -> bool {
        let slot = if name.eq_ignore_ascii_case("transfer-encoding") {
            &mut self.transfer_encoding
        } else if name.eq_ignore_ascii_case("content-length") {
            &mut self.content_length
        } else if name.eq_ignore_ascii_case("content-encoding") {
            &mut self.content_encoding
        } else {
            return false;
        };
        slot.get_or_insert(value);
        true
    }

    fn chunked(&self) -> bool {
        self.transfer_encoding
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"))
    }

    fn rle(&self) -> bool {
        self.content_encoding
            .is_some_and(|v| v.eq_ignore_ascii_case("rle"))
    }
}

/// Returns the total frame length if the buffer holds one complete message.
fn message_len(buf: &[u8]) -> Result<Option<usize>> {
    let Some(body_start) = find_head_end(buf) else {
        return Ok(None);
    };
    let text = String::from_utf8_lossy(&buf[..body_start]);
    let framing = Framing::of(&text);
    if framing.chunked() {
        return Ok(chunked_end(&buf[body_start..])?.map(|n| body_start + n));
    }
    if let Some(cl) = framing.content_length {
        let cl: usize = cl
            .parse()
            .map_err(|_| RddrError::Protocol(format!("bad content-length: {cl:?}")))?;
        // Compared against what is buffered, never added to an offset: a
        // declared length near `usize::MAX` just never completes.
        return Ok((buf.len() - body_start >= cl).then(|| body_start + cl));
    }
    // No body indicators: responses to HEAD, 204/304, or bare GET requests.
    Ok(Some(body_start))
}

/// Reads the chunk-size line at `body[pos..]`: the size and the offset just
/// past the line, or `None` when the line is still incomplete.
fn chunk_size(body: &[u8], pos: usize) -> Result<Option<(usize, usize)>> {
    let Some(line_end) = find_byte(b'\n', &body[pos..]) else {
        return Ok(None);
    };
    let size_text = std::str::from_utf8(&body[pos..pos + line_end])
        .map_err(|_| RddrError::Protocol("non-utf8 chunk size".into()))?
        .trim_end_matches('\r')
        .trim();
    let size = usize::from_str_radix(size_text.split(';').next().unwrap_or(""), 16)
        .map_err(|_| RddrError::Protocol(format!("bad chunk size: {size_text:?}")))?;
    Ok(Some((size, pos + line_end + 1)))
}

/// Returns the byte length of a complete chunked body (through the final
/// `0\r\n\r\n`), or `None` if incomplete.
fn chunked_end(body: &[u8]) -> Result<Option<usize>> {
    let mut pos = 0;
    loop {
        let Some((size, data)) = chunk_size(body, pos)? else {
            return Ok(None);
        };
        if body.len() - data < size {
            return Ok(None);
        }
        pos = data + size;
        // Chunk data is followed by CRLF (or LF).
        if body[pos..].starts_with(b"\r\n") {
            pos += 2;
        } else if body[pos..].starts_with(b"\n") {
            pos += 1;
        } else if size != 0 || !body[pos..].is_empty() {
            if body.len() <= pos {
                return Ok(None);
            }
            return Err(RddrError::Protocol("missing chunk terminator".into()));
        }
        if size == 0 {
            return Ok(Some(pos));
        }
    }
}

/// Decodes a complete chunked body into `table`'s arena, returning where
/// the payload landed. On an error whatever was decoded so far stays in the
/// arena, unreferenced.
fn dechunk_into(body: &[u8], table: &mut SegmentTable) -> Result<Range<usize>> {
    let start = table.arena().len();
    let mut pos = 0;
    loop {
        let (size, data) = chunk_size(body, pos)?
            .ok_or_else(|| RddrError::Protocol("truncated chunked body".into()))?;
        if size == 0 {
            return Ok(start..table.arena().len());
        }
        if body.len() - data < size {
            return Err(RddrError::Protocol("truncated chunk".into()));
        }
        pos = data + size;
        table.append(&body[data..pos]);
        if body[pos..].starts_with(b"\r\n") {
            pos += 2;
        } else if body[pos..].starts_with(b"\n") {
            pos += 1;
        }
    }
}

/// Encodes bytes with the toy run-length `rle` content coding: a sequence of
/// `(count, byte)` pairs. This repo's stand-in for gzip (see `DESIGN.md`).
pub fn rle_encode(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let b = data[i];
        let mut run = 1usize;
        while run < 255 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    out
}

/// Decodes the toy `rle` content coding.
///
/// # Errors
///
/// Returns [`RddrError::Protocol`] on odd-length input.
pub fn rle_decode(data: &[u8]) -> Result<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return Err(RddrError::Protocol("rle payload has odd length".into()));
    }
    let mut out = Vec::new();
    for pair in data.chunks_exact(2) {
        out.extend(std::iter::repeat_n(pair[1], pair[0] as usize));
    }
    Ok(out)
}

/// Decodes the `rle`-coded arena range `coded` into the arena, returning
/// where the payload landed, or `None` when the coding is malformed.
fn rle_decode_in(table: &mut SegmentTable, coded: Range<usize>) -> Option<Range<usize>> {
    if !coded.len().is_multiple_of(2) {
        return None;
    }
    let start = table.arena().len();
    for at in coded.step_by(2) {
        let (count, byte) = (table.arena()[at], table.arena()[at + 1]);
        table.append_run(byte, count as usize);
    }
    Some(start..table.arena().len())
}

/// Declares one `http:body` segment per line of the arena range `body`
/// (the paper's tokenization unit), line terminators dropped; a trailing
/// fragment without a newline is kept.
fn push_lines(table: &mut SegmentTable, body: Range<usize>) {
    let mut start = body.start;
    while start < body.end {
        let Some(at) = find_byte(b'\n', &table.arena()[start..body.end]) else {
            table.push_span("http:body", start..body.end);
            return;
        };
        let mut end = start + at;
        if end > start && table.arena()[end - 1] == b'\r' {
            end -= 1;
        }
        table.push_span("http:body", start..end);
        start += at + 1;
    }
}

impl Protocol for HttpProtocol {
    fn name(&self) -> &str {
        "http"
    }

    fn split_frames(&self, buf: &mut BytesMut, direction: Direction) -> Result<Vec<Frame>> {
        let label = match direction {
            Direction::Request => "http:request",
            Direction::Response => "http:response",
        };
        let mut frames = Vec::new();
        while let Some(len) = message_len(buf)? {
            frames.push(Frame::new(label, buf.split_to(len).freeze()));
        }
        Ok(frames)
    }

    fn tokenize_into(&self, frame: &Frame, table: &mut SegmentTable) {
        const HEADER_LABEL: &[u8] = b"http:header:";
        let Some(body_start) = find_head_end(&frame.bytes) else {
            table.push("http:malformed", &frame.bytes);
            return;
        };
        let text = String::from_utf8_lossy(&frame.bytes[..body_start]);
        let mut lines = head_lines(&text);
        let start_label = if frame.label == "http:request" {
            "http:request-line"
        } else {
            "http:status"
        };
        table.push(start_label, lines.next().unwrap_or("").as_bytes());
        let mut framing = Framing::default();
        for (name, value) in lines.filter_map(header) {
            // Transfer framing headers are normalized away by decoding below.
            if framing.note(name, value) {
                continue;
            }
            // `http:header:<name>` and `<name>: <value>` share the name.
            let label = table.append(HEADER_LABEL).start;
            let name_end = table.append_ascii_lowercase(name.as_bytes()).end;
            table.append(b": ");
            let end = table.append(value.as_bytes()).end;
            table.push_labelled_span(label..name_end, label + HEADER_LABEL.len()..end);
        }

        // Interpret the header and decode the body before differencing; a
        // body that does not decode is compared as it came.
        let raw = &frame.bytes[body_start..];
        let dechunked = if framing.chunked() {
            dechunk_into(raw, table).ok()
        } else {
            None
        };
        let mut body = dechunked.unwrap_or_else(|| table.append(raw));
        if framing.rle() {
            if let Some(decoded) = rle_decode_in(table, body.clone()) {
                body = decoded;
            }
        }
        push_lines(table, body);
    }

    fn supports_ephemeral(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(body: &str, extra_headers: &str) -> Vec<u8> {
        format!(
            "HTTP/1.1 200 OK\r\nContent-Length: {}\r\n{extra_headers}\r\n{body}",
            body.len()
        )
        .into_bytes()
    }

    #[test]
    fn frames_complete_response_only() {
        let p = HttpProtocol::new();
        let full = response("hello", "");
        let mut buf = BytesMut::from(&full[..full.len() - 2]);
        assert!(p
            .split_frames(&mut buf, Direction::Response)
            .unwrap()
            .is_empty());
        buf.extend_from_slice(&full[full.len() - 2..]);
        let frames = p.split_frames(&mut buf, Direction::Response).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].bytes, full);
        assert!(buf.is_empty());
    }

    #[test]
    fn frames_pipelined_messages() {
        let p = HttpProtocol::new();
        let mut wire = response("one", "");
        wire.extend(response("two", ""));
        let mut buf = BytesMut::from(&wire[..]);
        let frames = p.split_frames(&mut buf, Direction::Response).unwrap();
        assert_eq!(frames.len(), 2);
    }

    #[test]
    fn get_request_without_body_is_complete_at_head() {
        let p = HttpProtocol::new();
        let mut buf = BytesMut::from(&b"GET /path HTTP/1.1\r\nHost: svc\r\n\r\n"[..]);
        let frames = p.split_frames(&mut buf, Direction::Request).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(frames[0].label, "http:request");
    }

    #[test]
    fn post_request_waits_for_body() {
        let p = HttpProtocol::new();
        let mut buf = BytesMut::from(&b"POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"[..]);
        assert!(p
            .split_frames(&mut buf, Direction::Request)
            .unwrap()
            .is_empty());
        buf.extend_from_slice(b"cde");
        assert_eq!(
            p.split_frames(&mut buf, Direction::Request).unwrap().len(),
            1
        );
    }

    #[test]
    fn tokenize_splits_status_headers_and_body_lines() {
        let p = HttpProtocol::new();
        let frame = Frame::new("http:response", response("line1\nline2", "X-Id: 7\r\n"));
        let segs = p.tokenize(&frame);
        let labels: Vec<&str> = segs.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            vec!["http:status", "http:header:x-id", "http:body", "http:body"]
        );
        assert_eq!(segs[0].payload, b"HTTP/1.1 200 OK");
        assert_eq!(segs[1].payload, b"x-id: 7");
        assert_eq!(segs[2].payload, b"line1");
        assert_eq!(segs[3].payload, b"line2");
    }

    #[test]
    fn chunked_and_content_length_tokenize_identically() {
        let p = HttpProtocol::new();
        let plain = Frame::new("http:response", response("hello world", ""));
        let chunked = Frame::new(
            "http:response",
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n6\r\nhello \r\n5\r\nworld\r\n0\r\n\r\n"
                .to_vec(),
        );
        let a: Vec<_> = p
            .tokenize(&plain)
            .into_iter()
            .filter(|s| s.label == "http:body")
            .collect();
        let b: Vec<_> = p
            .tokenize(&chunked)
            .into_iter()
            .filter(|s| s.label == "http:body")
            .collect();
        assert_eq!(a, b, "framing must not affect diffing");
    }

    #[test]
    fn chunked_framing_waits_for_terminal_chunk() {
        let p = HttpProtocol::new();
        let mut buf = BytesMut::from(
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n"[..],
        );
        assert!(p
            .split_frames(&mut buf, Direction::Response)
            .unwrap()
            .is_empty());
        buf.extend_from_slice(b"0\r\n\r\n");
        assert_eq!(
            p.split_frames(&mut buf, Direction::Response).unwrap().len(),
            1
        );
    }

    #[test]
    fn rle_round_trip() {
        let data = b"aaabbbbbbcccd".to_vec();
        let encoded = rle_encode(&data);
        assert!(encoded.len() < data.len() + 2);
        assert_eq!(rle_decode(&encoded).unwrap(), data);
    }

    #[test]
    fn rle_rejects_odd_length() {
        assert!(rle_decode(&[3]).is_err());
    }

    #[test]
    fn rle_encoded_body_is_decoded_before_diffing() {
        let p = HttpProtocol::new();
        let body = rle_encode(b"secret-data");
        let mut wire = format!(
            "HTTP/1.1 200 OK\r\nContent-Encoding: rle\r\nContent-Length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend(&body);
        let segs = p.tokenize(&Frame::new("http:response", wire));
        let body_segs: Vec<_> = segs.iter().filter(|s| s.label == "http:body").collect();
        assert_eq!(body_segs.len(), 1);
        assert_eq!(body_segs[0].payload, b"secret-data");
    }

    #[test]
    fn bad_content_length_is_a_protocol_error() {
        let p = HttpProtocol::new();
        let mut buf = BytesMut::from(&b"HTTP/1.1 200 OK\r\nContent-Length: banana\r\n\r\n"[..]);
        assert!(p.split_frames(&mut buf, Direction::Response).is_err());
    }

    #[test]
    fn supports_ephemeral_per_paper() {
        assert!(HttpProtocol::new().supports_ephemeral());
    }

    #[test]
    fn header_names_compare_lower_cased_and_values_trimmed() {
        let p = HttpProtocol::new();
        let segs = p.tokenize(&Frame::new(
            "http:request",
            b"GET / HTTP/1.1\r\n X-FOO :  Bar baz \r\nno colon here\r\n\r\n".to_vec(),
        ));
        assert_eq!(segs.len(), 2, "a line without a colon is no header");
        assert_eq!(segs[0].label, "http:request-line");
        assert_eq!(segs[1].label, "http:header:x-foo");
        assert_eq!(segs[1].payload, b"x-foo: Bar baz");
    }

    #[test]
    fn framing_headers_match_in_any_case_and_the_first_of_a_kind_counts() {
        let p = HttpProtocol::new();
        let wire = b"HTTP/1.1 200 OK\r\ncOnTeNt-LeNgTh: 2\r\nContent-Length: 9\r\n\r\nhiHTTP";
        let mut buf = BytesMut::from(&wire[..]);
        let frames = p.split_frames(&mut buf, Direction::Response).unwrap();
        assert_eq!(frames.len(), 1);
        assert_eq!(&buf[..], b"HTTP");
        let labels: Vec<String> = p
            .tokenize(&frames[0])
            .into_iter()
            .map(|s| s.label)
            .collect();
        assert_eq!(labels, ["http:status", "http:body"], "both are dropped");
    }

    #[test]
    fn head_lines_split_like_crlf_then_lf() {
        for text in [
            "a\r\nb\nc\r\n\r\n",
            "a\r\r\nb\r",
            "\r\n",
            "\n\r\n\r",
            "",
            "no terminator",
        ] {
            let expected: Vec<&str> = text.split("\r\n").flat_map(|l| l.split('\n')).collect();
            assert_eq!(head_lines(text).collect::<Vec<_>>(), expected, "{text:?}");
        }
    }

    #[test]
    fn head_ends_at_whichever_blank_line_comes_first() {
        assert_eq!(find_head_end(b"a\r\nb\r\n\r\nbody"), Some(8));
        assert_eq!(find_head_end(b"a\nb\n\nbody\r\n\r\n"), Some(5));
        assert_eq!(find_head_end(b"a\r\n\r\nbody\n\n"), Some(5));
        assert_eq!(find_head_end(b"\n\n"), Some(2));
        assert_eq!(find_head_end(b"\r\n\r\n"), Some(4));
        // LF then CRLF is not a blank line; neither is an unfinished one.
        assert_eq!(find_head_end(b"a\n\r\nbody"), None);
        assert_eq!(find_head_end(b"a\r\n\r"), None);
        assert_eq!(find_head_end(b""), None);
    }

    #[test]
    fn a_body_that_does_not_decode_is_compared_as_it_came() {
        let p = HttpProtocol::new();
        let body = |wire: &[u8]| -> Vec<Vec<u8>> {
            p.tokenize(&Frame::new("http:response", wire.to_vec()))
                .into_iter()
                .filter(|s| s.label == "http:body")
                .map(|s| s.payload)
                .collect()
        };
        // The second chunk is cut short: the partial decode is discarded.
        assert_eq!(
            body(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\nab\r\n9\r\ncd"),
            [b"2".to_vec(), b"ab".to_vec(), b"9".to_vec(), b"cd".to_vec()]
        );
        // Odd-length rle.
        assert_eq!(
            body(b"HTTP/1.1 200 OK\r\nContent-Encoding: rle\r\n\r\nabc"),
            [b"abc".to_vec()]
        );
        // Chunked and rle together decode in that order.
        assert_eq!(
            body(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Encoding: rle\r\n\r\n4\r\n\x02a\x01\n\r\n2\r\n\x01b\r\n0\r\n\r\n"),
            [b"aa".to_vec(), b"b".to_vec()]
        );
    }

    #[test]
    fn hostile_lengths_neither_panic_nor_reserve() {
        let p = HttpProtocol::new();
        let mut buf =
            BytesMut::from(&b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551615\r\n\r\n"[..]);
        assert!(p
            .split_frames(&mut buf, Direction::Response)
            .unwrap()
            .is_empty());
        let mut buf = BytesMut::from(
            &b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffffffffff\r\nab"[..],
        );
        assert!(p
            .split_frames(&mut buf, Direction::Response)
            .unwrap()
            .is_empty());
        // The same sizes reaching the tokenizer directly fall back to the
        // raw body instead of slicing past it.
        let frame = Frame::new("http:response", buf.to_vec());
        assert_eq!(p.tokenize(&frame).last().unwrap().payload, b"ab");
        // One past what `usize` holds is not a length at all.
        let mut buf =
            BytesMut::from(&b"HTTP/1.1 200 OK\r\nContent-Length: 18446744073709551616\r\n\r\n"[..]);
        assert!(matches!(
            p.split_frames(&mut buf, Direction::Response),
            Err(RddrError::Protocol(_))
        ));
        // 64 KiB of headers and still no blank line: keep waiting.
        let mut wire = b"HTTP/1.1 200 OK\r\n".to_vec();
        while wire.len() < 64 * 1024 {
            wire.extend_from_slice(
                b"X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n",
            );
        }
        let mut buf = BytesMut::from(&wire[..]);
        assert!(p
            .split_frames(&mut buf, Direction::Response)
            .unwrap()
            .is_empty());
        assert_eq!(buf.len(), wire.len(), "nothing is consumed");
    }

    #[test]
    fn lf_only_messages_are_accepted() {
        let p = HttpProtocol::new();
        let mut buf = BytesMut::from(&b"HTTP/1.1 200 OK\nContent-Length: 2\n\nhi"[..]);
        let frames = p.split_frames(&mut buf, Direction::Response).unwrap();
        assert_eq!(frames.len(), 1);
    }

    #[test]
    fn body_lines_keep_a_trailing_fragment() {
        let lines = |body: &[u8]| -> Vec<Vec<u8>> {
            let mut table = SegmentTable::new();
            let range = table.append(body);
            push_lines(&mut table, range);
            table.to_segments().into_iter().map(|s| s.payload).collect()
        };
        assert_eq!(lines(b"a\nb"), vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(lines(b"a\r\nb\r\n"), vec![b"a".to_vec(), b"b".to_vec()]);
        assert_eq!(lines(b"\r\n\n"), vec![b"".to_vec(), b"".to_vec()]);
        assert!(lines(b"").is_empty());
    }
}

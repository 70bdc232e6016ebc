//! Frames and segments: the units the engine compares.
//!
//! A protocol module delimits a [`Frame`] (one application message, wire
//! bytes untouched) and tokenizes it into segments (the diffable units).
//! Segments exist in two shapes over the same content:
//!
//! * [`SegmentTable`] — what the engine uses. One byte arena plus one span
//!   vector per instance, owned by the engine and refilled for every
//!   exchange, so tokenizing, de-noising and diffing a 400-line body costs
//!   no more allocations than a 4-line one. Labels live in the table too
//!   (a `&'static str`, or a range of the arena for the dynamic
//!   `http:header:<name>` / `json:/path` labels).
//! * [`Segment`] — one owned `(label, payload)` pair, materialised from a
//!   table by [`SegmentTable::to_segments`] for callers that want to hold
//!   on to them (tests, probes, the provided [`crate::Protocol::tokenize`]).
//!
//! De-noise and diff read either shape through the crate-private
//! [`SegmentList`] view, so there is one comparison whichever way the bytes
//! are stored.

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;

/// Direction of traffic relative to the protected microservice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Client → protected instances (a request being replicated).
    Request,
    /// Protected instances → client (responses being diffed).
    Response,
}

/// One complete application-layer message, as delimited by a protocol module.
///
/// The incoming proxy accumulates raw bytes per instance and asks the
/// protocol module to split them into frames; the engine then diffs frames
/// position-by-position across instances.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol-assigned label (e.g. `"http:response"`, `"pg:DataRow"`).
    /// Every in-tree label is a literal, so framing allocates no label.
    pub label: Cow<'static, str>,
    /// The raw frame bytes, exactly as they appeared on the wire.
    pub bytes: Vec<u8>,
    /// Whether this frame participates in divergence detection. Protocol
    /// modules mark e.g. PostgreSQL `ParameterStatus` frames non-critical.
    pub critical: bool,
}

impl Frame {
    /// Creates a critical frame with the given label.
    pub fn new(label: impl Into<Cow<'static, str>>, bytes: impl Into<Vec<u8>>) -> Self {
        Self {
            label: label.into(),
            bytes: bytes.into(),
            critical: true,
        }
    }

    /// Creates a frame excluded from diffing.
    pub fn non_critical(label: impl Into<Cow<'static, str>>, bytes: impl Into<Vec<u8>>) -> Self {
        Self {
            critical: false,
            ..Self::new(label, bytes)
        }
    }

    /// Frame length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the frame carries no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} bytes)", self.label, self.bytes.len())
    }
}

/// A diffable unit inside a frame, in owned form.
///
/// For HTTP this is a line (the paper's HTTP module "tokenizes at the newline
/// boundary and compares lines", §IV-B1); for PostgreSQL a wire message; for
/// JSON a path/value pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Segment {
    /// Tokenizer-assigned label (e.g. `"line"`, `"json:/user/name"`).
    pub label: String,
    /// The segment payload compared across instances.
    pub payload: Vec<u8>,
}

impl Segment {
    /// Creates a segment.
    pub fn new(label: impl Into<String>, payload: impl Into<Vec<u8>>) -> Self {
        Self {
            label: label.into(),
            payload: payload.into(),
        }
    }

    /// The payload interpreted as lossy UTF-8, for reports.
    pub fn payload_lossy(&self) -> String {
        String::from_utf8_lossy(&self.payload).into_owned()
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.label, self.payload_lossy())
    }
}

/// Where a span's label lives.
#[derive(Debug, Clone)]
enum Label {
    Static(&'static str),
    Arena(Range<usize>),
}

#[derive(Debug, Clone)]
struct Span {
    label: Label,
    payload: Range<usize>,
}

/// One instance's tokenized output for one exchange: a byte arena and the
/// `(label, payload range)` spans over it, in segment order.
///
/// A tokenizer appends bytes with [`SegmentTable::append`] (or
/// [`SegmentTable::append_run`]) and then declares which ranges of the arena
/// are segments. Bytes no span covers (a decoded-then-re-decoded body, a
/// label) are simply never compared. Ranges are clamped to the arena when
/// read, so a tokenizer bug cannot make the engine panic.
#[derive(Debug, Clone, Default)]
pub struct SegmentTable {
    arena: Vec<u8>,
    spans: Vec<Span>,
}

impl SegmentTable {
    /// Arena or span capacity above which [`SegmentTable::clear`] gives the
    /// memory back instead of keeping it for the next exchange: an idle
    /// session pins at most this much per instance, whatever its largest
    /// response was.
    pub const MAX_RETAINED: usize = 64 * 1024;

    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empties the table for the next exchange, keeping its capacity up to
    /// [`SegmentTable::MAX_RETAINED`].
    pub fn clear(&mut self) {
        self.arena.clear();
        self.spans.clear();
        if self.arena.capacity() > Self::MAX_RETAINED {
            self.arena = Vec::new();
        }
        if self.spans.capacity() > Self::MAX_RETAINED / std::mem::size_of::<Span>() {
            self.spans = Vec::new();
        }
    }

    /// Number of segments.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the table holds no segments.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The arena: everything appended since the last clear.
    pub fn arena(&self) -> &[u8] {
        &self.arena
    }

    /// Appends `bytes` to the arena and returns the range they occupy.
    pub fn append(&mut self, bytes: &[u8]) -> Range<usize> {
        let start = self.arena.len();
        self.arena.extend_from_slice(bytes);
        start..self.arena.len()
    }

    /// Appends `bytes` with ASCII letters lower-cased (a header name in its
    /// comparison form) and returns the range they occupy.
    pub fn append_ascii_lowercase(&mut self, bytes: &[u8]) -> Range<usize> {
        let start = self.arena.len();
        self.arena.extend(bytes.iter().map(u8::to_ascii_lowercase));
        start..self.arena.len()
    }

    /// Appends `count` copies of `byte` to the arena.
    pub fn append_run(&mut self, byte: u8, count: usize) {
        self.arena.resize(self.arena.len() + count, byte);
    }

    /// Declares `payload` (a range of the arena) a segment labelled `label`.
    pub fn push_span(&mut self, label: &'static str, payload: Range<usize>) {
        self.spans.push(Span {
            label: Label::Static(label),
            payload,
        });
    }

    /// Like [`SegmentTable::push_span`] for a label built at run time, which
    /// the tokenizer appended to the arena first.
    pub fn push_labelled_span(&mut self, label: Range<usize>, payload: Range<usize>) {
        self.spans.push(Span {
            label: Label::Arena(label),
            payload,
        });
    }

    /// Appends `payload` and declares it a segment labelled `label`.
    pub fn push(&mut self, label: &'static str, payload: &[u8]) {
        let range = self.append(payload);
        self.push_span(label, range);
    }

    fn slice(&self, range: &Range<usize>) -> &[u8] {
        let end = range.end.min(self.arena.len());
        &self.arena[range.start.min(end)..end]
    }

    /// The label bytes of segment `index` (empty when out of range).
    pub fn label(&self, index: usize) -> &[u8] {
        match self.spans.get(index).map(|s| &s.label) {
            Some(Label::Static(label)) => label.as_bytes(),
            Some(Label::Arena(range)) => self.slice(range),
            None => &[],
        }
    }

    /// The payload of segment `index` (empty when out of range).
    pub fn payload(&self, index: usize) -> &[u8] {
        self.spans
            .get(index)
            .map_or(&[][..], |s| self.slice(&s.payload))
    }

    /// Materialises the table as owned segments.
    pub fn to_segments(&self) -> Vec<Segment> {
        (0..self.len())
            .map(|i| Segment::new(label_string(self.label(i)), self.payload(i)))
            .collect()
    }
}

/// A label as the owned string reports carry.
pub(crate) fn label_string(label: &[u8]) -> String {
    String::from_utf8_lossy(label).into_owned()
}

/// One instance's ordered segments, wherever their bytes live: the view
/// de-noise, ephemeral capture and diff are written against.
pub(crate) trait SegmentList {
    fn len(&self) -> usize;
    fn label(&self, index: usize) -> &[u8];
    fn payload(&self, index: usize) -> &[u8];
}

impl SegmentList for SegmentTable {
    fn len(&self) -> usize {
        SegmentTable::len(self)
    }
    fn label(&self, index: usize) -> &[u8] {
        SegmentTable::label(self, index)
    }
    fn payload(&self, index: usize) -> &[u8] {
        SegmentTable::payload(self, index)
    }
}

impl SegmentList for [Segment] {
    fn len(&self) -> usize {
        <[Segment]>::len(self)
    }
    fn label(&self, index: usize) -> &[u8] {
        self[index].label.as_bytes()
    }
    fn payload(&self, index: usize) -> &[u8] {
        &self[index].payload
    }
}

impl SegmentList for Vec<Segment> {
    fn len(&self) -> usize {
        self.as_slice().len()
    }
    fn label(&self, index: usize) -> &[u8] {
        self.as_slice().label(index)
    }
    fn payload(&self, index: usize) -> &[u8] {
        self.as_slice().payload(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_constructors_set_criticality() {
        assert!(Frame::new("a", b"x".to_vec()).critical);
        assert!(!Frame::non_critical("a", b"x".to_vec()).critical);
    }

    #[test]
    fn frame_len_and_empty() {
        let f = Frame::new("a", Vec::new());
        assert!(f.is_empty());
        assert_eq!(f.len(), 0);
        assert_eq!(Frame::new("a", b"abc".to_vec()).len(), 3);
    }

    #[test]
    fn segment_display_includes_label_and_payload() {
        let s = Segment::new("line", b"hello".to_vec());
        assert_eq!(s.to_string(), "[line] hello");
    }

    #[test]
    fn lossy_payload_handles_invalid_utf8() {
        let s = Segment::new("raw", vec![0xff, 0xfe]);
        assert!(!s.payload_lossy().is_empty());
    }

    #[test]
    fn static_and_owned_frame_labels_compare_alike() {
        let owned = Frame::new(String::from("line"), b"x".to_vec());
        assert_eq!(owned, Frame::new("line", b"x".to_vec()));
        assert!(owned.label == "line");
    }

    #[test]
    fn table_round_trips_static_and_dynamic_labels() {
        let mut t = SegmentTable::new();
        t.push("line", b"hello");
        let label = t.append(b"json:/a");
        let payload = t.append(b"1");
        t.push_labelled_span(label, payload);
        assert_eq!(t.len(), 2);
        assert_eq!(t.label(1), b"json:/a");
        assert_eq!(
            t.to_segments(),
            vec![
                Segment::new("line", b"hello"),
                Segment::new("json:/a", b"1")
            ]
        );
        t.clear();
        assert!(t.is_empty() && t.arena().is_empty());
    }

    #[test]
    fn table_reads_clamp_instead_of_panicking() {
        let mut t = SegmentTable::new();
        t.append(b"abc");
        t.push_span("x", 1..99);
        t.push_span("x", 50..60);
        assert_eq!(t.payload(0), b"bc");
        assert_eq!(t.payload(1), b"");
        assert_eq!(t.payload(7), b"");
        assert_eq!(t.label(7), b"");
    }

    #[test]
    fn clear_releases_oversized_scratch() {
        let mut t = SegmentTable::new();
        t.push("big", &vec![0u8; SegmentTable::MAX_RETAINED + 1]);
        t.clear();
        assert!(t.arena.capacity() <= SegmentTable::MAX_RETAINED);
        t.push("small", b"x");
        let kept = t.arena.capacity();
        t.clear();
        assert_eq!(t.arena.capacity(), kept, "small scratch is kept");
    }
}

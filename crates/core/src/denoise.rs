//! The De-noise phase (§IV-B2): distinguishing nondeterministic noise from
//! relevant divergence using a *filter pair*.
//!
//! RDDR deploys two identical instances of the protected microservice — the
//! filter pair — alongside the diverse instances. Any output position on
//! which the pair disagrees must be nondeterminism (session ids, timestamps,
//! ASLR'd pointers) because the pair runs the same code. Those positions are
//! masked before the Diff phase, so "RDDR identifies a divergence if any
//! instances except the filter pair produce non-identical output".
//!
//! A [`NoiseMask`] is learned from the pair's two segment lists wherever
//! their bytes live (the engine's [`crate::SegmentTable`]s, or owned
//! [`Segment`]s through [`NoiseMask::from_filter_pair`]) and is then applied
//! *as a relation*: [`SegmentMask::eq_masked`] decides whether two payloads
//! have the same canonical form without building either one. The canonical
//! bytes themselves ([`SegmentMask::canonicalize`]) are only materialised
//! for the excerpts and grouping forms of an exchange that diverged.

use crate::frame::SegmentList;
use crate::Segment;

/// What stands in for a masked range in a canonical form.
const PLACEHOLDER: &[u8] = b"<noise>";

/// The byte range of one segment to ignore during comparison.
///
/// Expressed as a prefix length and suffix length that *are* compared; the
/// middle is masked. Lengths are clamped per instance so the same mask can
/// apply to segments of different lengths (e.g. variable-width session ids).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentMask {
    /// Index of the segment within the frame's segment list.
    pub index: usize,
    /// Number of leading bytes still compared.
    pub prefix: usize,
    /// Number of trailing bytes still compared.
    pub suffix: usize,
    /// When `true` the whole segment is ignored (structural noise: the pair
    /// produced different segment counts at this position).
    pub whole: bool,
}

/// The set of masks derived from one frame's filter-pair comparison.
///
/// # Examples
///
/// ```
/// use rddr_core::{NoiseMask, Segment};
///
/// let pair_a = vec![Segment::new("line", b"sid=AAAA ok".to_vec())];
/// let pair_b = vec![Segment::new("line", b"sid=BBBB ok".to_vec())];
/// let mask = NoiseMask::from_filter_pair(&pair_a, &pair_b);
/// // A third, diverse instance's own session id is masked away:
/// assert_eq!(mask.apply(0, b"sid=CCCC ok"), b"sid=<noise> ok");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NoiseMask {
    masks: Vec<SegmentMask>,
}

impl NoiseMask {
    /// An empty mask (nothing filtered).
    pub fn none() -> Self {
        Self::default()
    }

    /// Derives the mask by comparing the filter pair's segment lists.
    ///
    /// For each position where the pair's payloads differ, the differing
    /// byte range (computed as the common prefix/suffix) is masked. If the
    /// pair produced different segment *counts*, the surplus positions are
    /// masked wholesale.
    pub fn from_filter_pair(a: &[Segment], b: &[Segment]) -> Self {
        let mut mask = Self::none();
        mask.learn(a, b);
        mask
    }

    /// Replaces this mask with the one the filter pair's lists `a` and `b`
    /// yield, reusing its storage.
    pub(crate) fn learn<L: SegmentList + ?Sized>(&mut self, a: &L, b: &L) {
        self.masks.clear();
        let common = a.len().min(b.len());
        for i in 0..common {
            let (pa, pb) = (a.payload(i), b.payload(i));
            if pa == pb {
                continue;
            }
            let prefix = common_prefix(pa, pb);
            let suffix = common_suffix(&pa[prefix..], &pb[prefix..]);
            self.masks.push(SegmentMask {
                index: i,
                prefix,
                suffix,
                whole: false,
            });
        }
        for i in common..a.len().max(b.len()) {
            self.masks.push(SegmentMask {
                index: i,
                prefix: 0,
                suffix: 0,
                whole: true,
            });
        }
    }

    /// Forgets every mask, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.masks.clear();
    }

    /// Number of masked positions.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether no positions are masked.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Iterates over the per-segment masks.
    pub fn iter(&self) -> std::slice::Iter<'_, SegmentMask> {
        self.masks.iter()
    }

    /// Returns the mask covering segment `index`, if any.
    pub fn mask_for(&self, index: usize) -> Option<&SegmentMask> {
        self.masks.iter().find(|m| m.index == index)
    }

    /// Adds an explicit mask (used for captured ephemeral-token ranges when
    /// no filter pair is deployed).
    pub fn add(&mut self, mask: SegmentMask) {
        self.masks.push(mask);
    }

    /// Applies the mask to a segment payload, replacing the masked middle
    /// with a fixed placeholder so equal-structure outputs compare equal.
    pub fn apply(&self, index: usize, payload: &[u8]) -> Vec<u8> {
        let Some(mask) = self.mask_for(index) else {
            return payload.to_vec();
        };
        mask.canonicalize(payload)
    }
}

impl SegmentMask {
    /// The three runs whose concatenation is `payload`'s canonical form.
    /// Prefix and suffix are clamped to the payload, prefix first, so a
    /// payload shorter than `prefix + suffix` is never read twice.
    fn parts<'a>(&self, payload: &'a [u8]) -> [&'a [u8]; 3] {
        if self.whole {
            return [&[], PLACEHOLDER, &[]];
        }
        let prefix = self.prefix.min(payload.len());
        let suffix = self.suffix.min(payload.len() - prefix);
        [
            &payload[..prefix],
            PLACEHOLDER,
            &payload[payload.len() - suffix..],
        ]
    }

    /// Rewrites `payload` with the masked range replaced by a placeholder.
    pub fn canonicalize(&self, payload: &[u8]) -> Vec<u8> {
        self.parts(payload).concat()
    }

    /// Whether `a` and `b` have the same canonical form under this mask:
    /// exactly `canonicalize(a) == canonicalize(b)`, without building either.
    pub fn eq_masked(&self, a: &[u8], b: &[u8]) -> bool {
        let (pa, pb) = (self.parts(a), self.parts(b));
        // Run by run is the same relation as comparing the concatenations,
        // even when clamping leaves one form's placeholder beside bytes of
        // the other that spell it: the prefix is clamped first, so kept
        // prefixes differ in length only when one payload is shorter than
        // `prefix`, keeps all of itself and no suffix — and then its form is
        // shorter than any form that keeps a longer prefix.
        pa[0] == pb[0] && pa[2] == pb[2]
    }
}

/// Length of the common prefix of two byte slices.
pub(crate) fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Length of the common suffix of two byte slices.
pub(crate) fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    a.iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn segs(lines: &[&str]) -> Vec<Segment> {
        lines
            .iter()
            .map(|l| Segment::new("line", l.as_bytes().to_vec()))
            .collect()
    }

    #[test]
    fn identical_pair_yields_empty_mask() {
        let a = segs(&["hello", "world"]);
        let mask = NoiseMask::from_filter_pair(&a, &a);
        assert!(mask.is_empty());
    }

    #[test]
    fn differing_middle_is_masked() {
        let a = segs(&["sid=AAAA; path=/"]);
        let b = segs(&["sid=BBBB; path=/"]);
        let mask = NoiseMask::from_filter_pair(&a, &b);
        assert_eq!(mask.len(), 1);
        let m = mask.mask_for(0).unwrap();
        assert_eq!(m.prefix, 4);
        assert_eq!(m.suffix, 8);
        // Applying to a third, diverse instance with its own session id:
        let canon = mask.apply(0, b"sid=CCCC; path=/");
        assert_eq!(canon, b"sid=<noise>; path=/");
    }

    #[test]
    fn variable_length_noise_masks_by_affix() {
        let a = segs(&["ptr=0x7fff12345678"]);
        let b = segs(&["ptr=0x7ffe9abcdef0"]);
        let mask = NoiseMask::from_filter_pair(&a, &b);
        let canon_a = mask.apply(0, &a[0].payload);
        let canon_b = mask.apply(0, &b[0].payload);
        assert_eq!(canon_a, canon_b, "pair canonicalizes identically");
    }

    #[test]
    fn structural_difference_masks_extra_segments() {
        let a = segs(&["x", "y"]);
        let b = segs(&["x"]);
        let mask = NoiseMask::from_filter_pair(&a, &b);
        assert_eq!(mask.len(), 1);
        assert!(mask.mask_for(1).unwrap().whole);
        assert_eq!(mask.apply(1, b"anything"), b"<noise>");
    }

    #[test]
    fn unmasked_positions_pass_through() {
        let mask = NoiseMask::none();
        assert_eq!(mask.apply(3, b"data"), b"data");
    }

    #[test]
    fn mask_clamps_on_short_third_instance() {
        let a = segs(&["token=0123456789"]);
        let b = segs(&["token=abcdefghij"]);
        let mask = NoiseMask::from_filter_pair(&a, &b);
        // A diverse instance returning a shorter value must not panic.
        let canon = mask.apply(0, b"tok");
        assert_eq!(canon, b"tok<noise>");
    }

    #[test]
    fn prefix_suffix_helpers() {
        assert_eq!(common_prefix(b"abcd", b"abxd"), 2);
        assert_eq!(common_suffix(b"cd", b"xd"), 1);
        assert_eq!(common_prefix(b"", b"a"), 0);
        assert_eq!(common_suffix(b"same", b"same"), 4);
    }

    #[test]
    fn differently_clamped_forms_never_compare_equal() {
        let m = SegmentMask {
            index: 0,
            prefix: 2,
            suffix: 7,
            whole: false,
        };
        // Kept runs ("ab", "") and ("ab", "<noise>"): the second payload's
        // own bytes spell the placeholder, the forms still differ.
        assert_eq!(m.canonicalize(b"ab"), b"ab<noise>");
        assert_eq!(m.canonicalize(b"abX<noise>"), b"ab<noise><noise>");
        assert!(!m.eq_masked(b"ab", b"abX<noise>"));
        let m = SegmentMask { prefix: 9, ..m };
        assert_eq!(m.canonicalize(b"ab"), b"ab<noise>");
        assert_eq!(m.canonicalize(b"ab<noise>"), b"ab<noise><noise>");
        assert!(!m.eq_masked(b"ab", b"ab<noise>"));
    }

    #[test]
    fn masked_equality_is_canonical_equality() {
        // Exhaustive over a small alphabet that can spell the placeholder's
        // edges, every length up to 3 plus payloads holding the placeholder
        // itself, under every mask shape that clamps on some of them.
        let alphabet = [b'<', b'n', b'>', b'a'];
        let mut payloads: Vec<Vec<u8>> = vec![Vec::new()];
        for len in 1..=3usize {
            for code in 0..alphabet.len().pow(len as u32) {
                let mut c = code;
                payloads.push(
                    (0..len)
                        .map(|_| {
                            let b = alphabet[c % alphabet.len()];
                            c /= alphabet.len();
                            b
                        })
                        .collect(),
                );
            }
        }
        payloads.extend([
            b"<noise>".to_vec(),
            b"a<noise>".to_vec(),
            b"<noise>a".to_vec(),
            b"a<noise>a<noise>".to_vec(),
        ]);
        for prefix in 0..=9 {
            for suffix in 0..=9 {
                for whole in [false, true] {
                    let m = SegmentMask {
                        index: 0,
                        prefix,
                        suffix,
                        whole,
                    };
                    for a in &payloads {
                        for b in &payloads {
                            assert_eq!(
                                m.eq_masked(a, b),
                                m.canonicalize(a) == m.canonicalize(b),
                                "{m:?} {a:?} {b:?}"
                            );
                        }
                    }
                }
            }
        }
    }
}

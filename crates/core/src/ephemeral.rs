//! Ephemeral-state handling (§IV-B3): CSRF tokens and similar server-minted
//! secrets that clients must echo back.
//!
//! Each instance mints its *own* token, so the N responses differ — but the
//! difference is not noise to be ignored: when the client later submits the
//! token, each instance must receive the token *it* minted or it will reject
//! the request. RDDR therefore (1) detects candidate tokens in responses —
//! "lines that differ across all instances" whose differing character range
//! is "alphanumeric and at least ten characters long" (criteria the authors
//! determined empirically), (2) forwards the first instance's token to the
//! client, (3) substitutes the matching per-instance token into subsequent
//! requests, and (4) deletes the mapping after use (tokens are ephemeral).

use std::collections::BTreeMap;

use crate::denoise::{common_prefix, common_suffix};
use crate::scan::find_byte;
use crate::Segment;

/// Minimum length of a differing alphanumeric run for it to be treated as an
/// ephemeral token (the paper's empirically chosen threshold).
pub const MIN_TOKEN_LEN: usize = 10;

/// One captured ephemeral token: the canonical value sent to the client and
/// the per-instance values to substitute on the way back in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EphemeralToken {
    /// The value the client saw (instance 0's token).
    pub canonical: Vec<u8>,
    /// One value per instance, indexed by instance id.
    pub per_instance: Vec<Vec<u8>>,
}

impl EphemeralToken {
    /// The token each instance expects to receive.
    pub fn token_for(&self, instance: usize) -> &[u8] {
        &self.per_instance[instance]
    }
}

/// The most tokens one session keeps live. A page that mints a token per
/// response which the client never echoes would otherwise grow the store —
/// and the cost of rewriting every later request — without bound; past the
/// cap the oldest capture is dropped (and, if the client does echo it later,
/// passes through unchanged, exactly as a token RDDR never saw).
pub const MAX_LIVE_TOKENS: usize = 64;

#[derive(Debug, Clone)]
struct LiveToken {
    token: EphemeralToken,
    /// Capture order, for oldest-first eviction.
    seq: u64,
}

/// The per-session store of live ephemeral tokens.
///
/// Keys are the canonical token bytes (what the client echoes back).
#[derive(Debug, Clone, Default)]
pub struct EphemeralStore {
    // BTreeMap: `substitute` iterates the live tokens, so rewritten request
    // bytes (and token reports) must be order-stable across runs/instances.
    tokens: BTreeMap<Vec<u8>, LiveToken>,
    pending_consumed: Vec<Vec<u8>>,
    captured_total: u64,
    substituted_total: u64,
}

impl EphemeralStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (captured, not yet consumed) tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Whether no tokens are live.
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Total tokens ever captured in this session.
    pub fn captured_total(&self) -> u64 {
        self.captured_total
    }

    /// Total substitutions ever performed in this session.
    pub fn substituted_total(&self) -> u64 {
        self.substituted_total
    }

    /// Scans aligned segments (one per instance, same position in the frame)
    /// for an ephemeral token and captures it if found.
    ///
    /// Returns the captured token when the paper's criteria hold: all
    /// instances' payloads mutually differ in a range that is alphanumeric
    /// and at least [`MIN_TOKEN_LEN`] bytes long in every instance.
    pub fn scan_position(&mut self, payloads: &[&[u8]]) -> Option<EphemeralToken> {
        let (prefix, suffix) = self.scan_at(payloads.len(), |i| payloads[i])?;
        let first = payloads[0];
        self.get(&first[prefix..first.len() - suffix]).cloned()
    }

    /// [`EphemeralStore::scan_position`] over `instances` payloads fetched
    /// by index, so the caller need not gather them. Returns the lengths of
    /// the prefix and suffix all payloads share around the captured token.
    pub(crate) fn scan_at<'a>(
        &mut self,
        instances: usize,
        payload: impl Fn(usize) -> &'a [u8],
    ) -> Option<(usize, usize)> {
        if instances < 2 {
            return None;
        }
        // "Lines that differ across all instances": every pair must differ.
        for i in 0..instances {
            for j in (i + 1)..instances {
                if payload(i) == payload(j) {
                    return None;
                }
            }
        }
        // The differing character range: common prefix/suffix over all.
        let first = payload(0);
        let mut prefix = usize::MAX;
        let mut suffix = usize::MAX;
        for i in 1..instances {
            prefix = prefix.min(common_prefix(first, payload(i)));
            suffix = suffix.min(common_suffix(first, payload(i)));
        }
        let middle = |p: &'a [u8]| -> Option<&'a [u8]> {
            let middle = p.get(prefix..p.len().checked_sub(suffix)?)?;
            (middle.len() >= MIN_TOKEN_LEN && middle.iter().all(|b| b.is_ascii_alphanumeric()))
                .then_some(middle)
        };
        let per_instance = (0..instances)
            .map(|i| middle(payload(i)).map(<[u8]>::to_vec))
            .collect::<Option<Vec<_>>>()?;
        let token = EphemeralToken {
            canonical: per_instance[0].clone(),
            per_instance,
        };
        self.captured_total += 1;
        self.tokens.insert(
            token.canonical.clone(),
            LiveToken {
                token,
                seq: self.captured_total,
            },
        );
        if self.tokens.len() > MAX_LIVE_TOKENS {
            let oldest = self
                .tokens
                .iter()
                .min_by_key(|(_, live)| live.seq)
                .map(|(key, _)| key.clone());
            if let Some(key) = oldest {
                self.tokens.remove(&key);
            }
        }
        Some((prefix, suffix))
    }

    /// Scans a whole frame's worth of aligned segment lists, capturing every
    /// token position. Returns how many tokens were captured.
    pub fn scan_segments(&mut self, instance_segments: &[Vec<Segment>]) -> usize {
        let min_len = instance_segments.iter().map(Vec::len).min().unwrap_or(0);
        (0..min_len)
            .filter(|&pos| {
                self.scan_at(instance_segments.len(), |i| {
                    instance_segments[i][pos].payload.as_slice()
                })
                .is_some()
            })
            .count()
    }

    /// Rewrites a client request for one instance, substituting each live
    /// canonical token with that instance's own token. Consumed tokens are
    /// recorded; call [`EphemeralStore::purge_consumed`] once the request has
    /// been rewritten for *all* instances.
    pub fn substitute(&mut self, request: &[u8], instance: usize) -> Vec<u8> {
        self.substitute_rewritten(request, instance)
            .unwrap_or_else(|| request.to_vec())
    }

    /// Copy-on-write variant of [`EphemeralStore::substitute`]: returns
    /// `None` when no live token occurs in `request` (the caller keeps using
    /// its original bytes), and the rewritten copy only when a substitution
    /// actually fired.
    pub fn substitute_rewritten(&mut self, request: &[u8], instance: usize) -> Option<Vec<u8>> {
        let mut out: Option<Vec<u8>> = None;
        let mut consumed = Vec::new();
        for (canonical, live) in &self.tokens {
            let Some(replacement) = live.token.per_instance.get(instance) else {
                continue;
            };
            let current = out.as_deref().unwrap_or(request);
            if let Some((rewritten, count)) = replace_all(current, canonical, replacement) {
                out = Some(rewritten);
                self.substituted_total += count;
                consumed.push(canonical.clone());
            }
        }
        self.pending_consumed.extend(consumed);
        out
    }

    /// Deletes tokens consumed by the preceding round of
    /// [`EphemeralStore::substitute`] calls ("because they are ephemeral,
    /// tokens are deleted after forwarding").
    pub fn purge_consumed(&mut self) {
        let pending = std::mem::take(&mut self.pending_consumed);
        for key in pending {
            self.tokens.remove(&key);
        }
    }

    /// Looks up a live token by its canonical bytes.
    pub fn get(&self, canonical: &[u8]) -> Option<&EphemeralToken> {
        self.tokens.get(canonical).map(|live| &live.token)
    }
}

/// The offset of the first occurrence of `needle` in `haystack`.
fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    let (&first, rest) = needle.split_first()?;
    let mut from = 0;
    while let Some(at) = find_byte(first, haystack.get(from..)?) {
        let at = from + at;
        if haystack[at + 1..].starts_with(rest) {
            return Some(at);
        }
        from = at + 1;
    }
    None
}

/// Replaces all occurrences of `needle` in `haystack`, returning the result
/// and the number of replacements — or `None`, having copied nothing, when
/// there is no occurrence (every request that echoes no live token).
fn replace_all(haystack: &[u8], needle: &[u8], replacement: &[u8]) -> Option<(Vec<u8>, u64)> {
    let mut next = find(haystack, needle)?;
    let mut out = Vec::with_capacity(haystack.len());
    let mut copied = 0;
    let mut count = 0;
    loop {
        out.extend_from_slice(&haystack[copied..next]);
        out.extend_from_slice(replacement);
        copied = next + needle.len();
        count += 1;
        match find(&haystack[copied..], needle) {
            Some(at) => next = copied + at,
            None => break,
        }
    }
    out.extend_from_slice(&haystack[copied..]);
    Some((out, count))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_csrf_like_token() {
        let mut store = EphemeralStore::new();
        let a = b"<input name='csrf' value='AAAAAAAAAA'>".as_slice();
        let b = b"<input name='csrf' value='BBBBBBBBBB'>".as_slice();
        let c = b"<input name='csrf' value='CCCCCCCCCC'>".as_slice();
        let token = store.scan_position(&[a, b, c]).expect("token captured");
        assert_eq!(token.canonical, b"AAAAAAAAAA");
        assert_eq!(token.token_for(2), b"CCCCCCCCCC");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn short_tokens_are_not_captured() {
        let mut store = EphemeralStore::new();
        let a = b"id=AAAA".as_slice();
        let b = b"id=BBBB".as_slice();
        assert!(store.scan_position(&[a, b]).is_none());
    }

    #[test]
    fn non_alphanumeric_ranges_are_not_captured() {
        let mut store = EphemeralStore::new();
        let a = b"x=AAAA-AAAA-AAAA".as_slice();
        let b = b"x=BBBB-BBBB-BBBB".as_slice();
        assert!(store.scan_position(&[a, b]).is_none());
    }

    #[test]
    fn identical_pair_blocks_capture() {
        // "Lines that differ across ALL instances" — if any two agree, no token.
        let mut store = EphemeralStore::new();
        let a = b"tok=AAAAAAAAAA".as_slice();
        let b = b"tok=AAAAAAAAAA".as_slice();
        let c = b"tok=CCCCCCCCCC".as_slice();
        assert!(store.scan_position(&[a, b, c]).is_none());
    }

    #[test]
    fn substitution_rewrites_per_instance_then_purges() {
        let mut store = EphemeralStore::new();
        store.scan_position(&[
            b"v=ALPHAALPHA1".as_slice(),
            b"v=BRAVOBRAVO2".as_slice(),
            b"v=CHARLIECHA3".as_slice(),
        ]);
        let req = b"POST /submit csrf=ALPHAALPHA1 end";
        assert_eq!(
            store.substitute(req, 0),
            b"POST /submit csrf=ALPHAALPHA1 end"
        );
        assert_eq!(
            store.substitute(req, 1),
            b"POST /submit csrf=BRAVOBRAVO2 end"
        );
        assert_eq!(
            store.substitute(req, 2),
            b"POST /submit csrf=CHARLIECHA3 end"
        );
        assert_eq!(store.substituted_total(), 3);
        store.purge_consumed();
        assert!(store.is_empty(), "tokens are deleted after forwarding");
    }

    #[test]
    fn substitution_order_is_byte_stable() {
        // Two live tokens where one canonical is a prefix of the other: the
        // rewrite result depends on iteration order, which must be the
        // sorted order (shortest canonical first) — not HashMap order,
        // which varies per store instance and would itself diverge.
        let mut store = EphemeralStore::new();
        store.scan_position(&[b"t=AAAAAAAAAA;".as_slice(), b"t=BBBBBBBBBB;".as_slice()]);
        store.scan_position(&[b"u=AAAAAAAAAAB;".as_slice(), b"u=CCCCCCCCCCC;".as_slice()]);
        assert_eq!(store.len(), 2);
        let out = store.substitute(b"x AAAAAAAAAAB y", 1);
        assert_eq!(out, b"x BBBBBBBBBBB y");
    }

    #[test]
    fn substitute_rewritten_is_copy_on_write() {
        let mut store = EphemeralStore::new();
        store.scan_position(&[b"v=ALPHAALPHA1".as_slice(), b"v=BRAVOBRAVO2".as_slice()]);
        assert_eq!(
            store.substitute_rewritten(b"GET / no token here", 1),
            None,
            "untouched requests are not copied"
        );
        assert_eq!(
            store
                .substitute_rewritten(b"csrf=ALPHAALPHA1", 1)
                .as_deref(),
            Some(b"csrf=BRAVOBRAVO2".as_slice())
        );
    }

    #[test]
    fn untouched_tokens_survive_purge() {
        let mut store = EphemeralStore::new();
        store.scan_position(&[b"v=ALPHAALPHA1".as_slice(), b"v=BRAVOBRAVO2".as_slice()]);
        let _ = store.substitute(b"GET / no token here", 0);
        store.purge_consumed();
        assert_eq!(store.len(), 1, "unused token remains live");
    }

    #[test]
    fn scan_segments_captures_multiple_positions() {
        let mut store = EphemeralStore::new();
        let mk = |t1: &str, t2: &str| {
            vec![
                Segment::new("line", format!("a={t1}").into_bytes()),
                Segment::new("line", b"static".to_vec()),
                Segment::new("line", format!("b={t2}").into_bytes()),
            ]
        };
        let captured = store.scan_segments(&[
            mk("AAAAAAAAAA", "XXXXXXXXXX"),
            mk("BBBBBBBBBB", "YYYYYYYYYY"),
        ]);
        assert_eq!(captured, 2);
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn variable_length_tokens_capture() {
        let mut store = EphemeralStore::new();
        let a = b"t=AAAAAAAAAAAAAA;".as_slice(); // 14 chars
        let b = b"t=BBBBBBBBBB;".as_slice(); // 10 chars
        let token = store.scan_position(&[a, b]).expect("captured");
        assert_eq!(token.per_instance[0].len(), 14);
        assert_eq!(token.per_instance[1].len(), 10);
    }

    #[test]
    fn replace_all_handles_adjacent_matches() {
        let (out, n) = replace_all(b"abab", b"ab", b"X").unwrap();
        assert_eq!(out, b"XX");
        assert_eq!(n, 2);
    }

    #[test]
    fn replace_all_matches_the_bytewise_scan() {
        // Overlapping candidates, matches at both ends, no match, empty needle.
        assert_eq!(replace_all(b"aaab", b"aab", b"-").unwrap().0, b"a-");
        assert_eq!(replace_all(b"abxab", b"ab", b"yz").unwrap().0, b"yzxyz");
        assert_eq!(
            replace_all(b"aaa", b"aa", b"b").unwrap(),
            (b"ba".to_vec(), 1)
        );
        assert_eq!(replace_all(b"abc", b"abcd", b"x"), None);
        assert_eq!(replace_all(b"abc", b"", b"x"), None);
        assert_eq!(replace_all(b"", b"a", b"x"), None);
    }

    /// The `i`-th distinct 12-character alphanumeric token of `instance`,
    /// differing from the other instances' at both ends.
    fn minted(instance: usize, i: usize) -> Vec<u8> {
        let tag = ["A", "B", "C"][instance];
        format!("{tag}{i:010}{tag}").into_bytes()
    }

    #[test]
    fn unechoed_tokens_are_capped_with_oldest_first_eviction() {
        let mut store = EphemeralStore::new();
        for i in 0..10_000 {
            let page: Vec<Vec<u8>> = (0..3)
                .map(|k| [b"csrf=".as_slice(), &minted(k, i), b";"].concat())
                .collect();
            let views: Vec<&[u8]> = page.iter().map(Vec::as_slice).collect();
            assert!(store.scan_position(&views).is_some());
            assert!(store.len() <= MAX_LIVE_TOKENS);
        }
        assert_eq!(store.len(), MAX_LIVE_TOKENS);
        assert_eq!(store.captured_total(), 10_000);

        // An evicted token passes through unchanged, like one never seen.
        let stale = [b"POST t=".as_slice(), &minted(0, 0)].concat();
        for k in 0..3 {
            assert_eq!(store.substitute_rewritten(&stale, k), None);
        }
        // The newest still substitutes per instance.
        let fresh = [b"POST t=".as_slice(), &minted(0, 9_999)].concat();
        for k in 0..3 {
            assert_eq!(
                store.substitute(&fresh, k),
                [b"POST t=".as_slice(), &minted(k, 9_999)].concat()
            );
        }
        store.purge_consumed();
        assert_eq!(store.len(), MAX_LIVE_TOKENS - 1);
    }

    #[test]
    fn recapturing_a_token_refreshes_its_age() {
        let mut store = EphemeralStore::new();
        let capture = |store: &mut EphemeralStore, i: usize| {
            let (a, b) = (minted(0, i), minted(1, i));
            store.scan_position(&[&a, &b]).expect("captured");
        };
        capture(&mut store, 0);
        for i in 1..MAX_LIVE_TOKENS {
            capture(&mut store, i);
        }
        capture(&mut store, 0); // token 0 is now the youngest
        capture(&mut store, MAX_LIVE_TOKENS); // evicts token 1, the oldest
        assert!(store.get(&minted(0, 0)).is_some());
        assert!(store.get(&minted(0, 1)).is_none());
    }
}

//! Byte search for framing and tokenizing, which look for a line feed in
//! every message and then in every body line.

/// The offset of the first `needle` in `haystack`.
///
/// Examines eight bytes at a time (a line-feed search over a 2 KiB body is
/// most of what tokenizing it costs when done a byte at a time).
pub fn find_byte(needle: u8, haystack: &[u8]) -> Option<usize> {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    let pattern = LOW * u64::from(needle);
    let mut words = haystack.chunks_exact(8);
    let mut offset = 0;
    for word in &mut words {
        // Bytes equal to the needle become zero; the classic zero-byte test
        // then sets the high bit of each, lowest (= first) hit exact.
        let x = u64::from_le_bytes(word.try_into().expect("8 bytes")) ^ pattern;
        let hits = x.wrapping_sub(LOW) & !x & HIGH;
        if hits != 0 {
            return Some(offset + (hits.trailing_zeros() / 8) as usize);
        }
        offset += 8;
    }
    words
        .remainder()
        .iter()
        .position(|&b| b == needle)
        .map(|at| offset + at)
}

#[cfg(test)]
mod tests {
    use super::find_byte;

    #[test]
    fn agrees_with_the_bytewise_search() {
        // Every needle position and absence, at every alignment of a buffer
        // long enough for whole words plus a remainder, among bytes that
        // differ from the needle by one bit or by the borrow the test uses.
        for len in 0..40 {
            for at in 0..=len {
                for filler in [0x0bu8, 0x09, 0x8a, 0x00, 0xff] {
                    let mut buf = vec![filler; len];
                    if at < len {
                        buf[at] = b'\n';
                        if at + 1 < len {
                            buf[at + 1] = b'\n';
                        }
                    }
                    let expected = buf.iter().position(|&b| b == b'\n');
                    assert_eq!(find_byte(b'\n', &buf), expected, "{buf:?}");
                }
            }
        }
        assert_eq!(find_byte(0, b"abc\0"), Some(3));
        assert_eq!(find_byte(0xff, &[0xfe, 0xff]), Some(1));
    }
}

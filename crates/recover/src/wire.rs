//! Sequence-number wire framing.
//!
//! A framed request (and its response) carries an 8-byte big-endian
//! sequence number ahead of the protocol payload, so receivers can dedup
//! retransmissions and responders can echo the number for the client's
//! call matching. The seam-role wirings (the DNS family — ODoH, legacy
//! ODNS and direct DNS — MPR, Privacy Pass, blind cash, PGPP, the VPN and
//! ECH) frame every leg whether or not recovery is on: real sockets
//! interleave, so no hop may pair answers with queries by arrival order.
//! The wirings still on simulator nodes (PPM and mixnet) frame only when
//! recovery is enabled.
//!
//! The frame sits *outside* the ciphertext, on one leg only: each relay
//! re-keys what it forwards under a number of its own (ODoH's proxy,
//! MPR's relays, the VPN server), so no counter crosses a hop — the
//! sequence number is itself metadata, and exposing one constant counter
//! across paths would undo what re-randomization buys. On the VPN's
//! access link the number sits beside the subscriber's address, which
//! the link's observer sees anyway.

/// Bytes of the sequence-number prefix.
pub const SEQ_LEN: usize = 8;

/// Prefix `payload` with the big-endian `seq`.
pub fn frame(seq: u64, payload: &[u8]) -> Vec<u8> {
    frame_parts(seq, &[payload])
}

/// [`frame`] over a payload given in parts, written into one buffer.
pub fn frame_parts(seq: u64, parts: &[&[u8]]) -> Vec<u8> {
    let len = parts.iter().map(|p| p.len()).sum::<usize>();
    let mut out = Vec::with_capacity(SEQ_LEN + len);
    out.extend_from_slice(&seq.to_be_bytes());
    for part in parts {
        out.extend_from_slice(part);
    }
    out
}

/// Re-number a framed message in place, so a relay forwards it under
/// `seq` without copying its payload. Bytes too short to carry a prefix
/// are left as they are (and [`unframe`] refuses them).
pub fn reframe(bytes: &mut [u8], seq: u64) {
    if let Some(prefix) = bytes.get_mut(..SEQ_LEN) {
        prefix.copy_from_slice(&seq.to_be_bytes());
    }
}

/// Split a framed message back into `(seq, payload)`. `None` if the
/// bytes are too short to carry a prefix (fail closed: callers drop the
/// message rather than guess).
pub fn unframe(bytes: &[u8]) -> Option<(u64, &[u8])> {
    if bytes.len() < SEQ_LEN {
        return None;
    }
    let mut seq = [0u8; SEQ_LEN];
    seq.copy_from_slice(&bytes[..SEQ_LEN]);
    Some((u64::from_be_bytes(seq), &bytes[SEQ_LEN..]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A frame round-trips, and any bytes that unframe re-frame to
        /// themselves; bytes too short for a prefix are refused.
        #[test]
        fn frames_round_trip_and_arbitrary_bytes_fail_closed(
            seq in any::<u64>(),
            payload in collection::vec(any::<u8>(), 0..48),
            bytes in collection::vec(any::<u8>(), 0..24),
            (cut, other) in (any::<usize>(), any::<u64>()),
        ) {
            let framed = frame(seq, &payload);
            prop_assert_eq!(unframe(&framed), Some((seq, &payload[..])));
            let (head, tail) = payload.split_at(cut % (payload.len() + 1));
            prop_assert_eq!(frame_parts(seq, &[head, &[], tail]), framed.clone());
            let mut renumbered = framed;
            reframe(&mut renumbered, other);
            prop_assert_eq!(unframe(&renumbered), Some((other, &payload[..])));
            let mut reframed = bytes.clone();
            reframe(&mut reframed, other);
            match unframe(&bytes) {
                Some((seq, rest)) => prop_assert_eq!(frame(seq, rest), bytes),
                None => prop_assert!(bytes.len() < SEQ_LEN && reframed == bytes),
            }
        }
    }

    #[test]
    fn frame_round_trips() {
        let framed = frame(0xdead_beef_0102_0304, b"payload");
        let (seq, rest) = unframe(&framed).unwrap();
        assert_eq!(seq, 0xdead_beef_0102_0304);
        assert_eq!(rest, b"payload");
    }

    #[test]
    fn empty_payload_and_zero_seq() {
        let framed = frame(0, b"");
        assert_eq!(framed.len(), SEQ_LEN);
        assert_eq!(unframe(&framed), Some((0, &b""[..])));
    }

    #[test]
    fn short_frames_fail_closed() {
        assert_eq!(unframe(b""), None);
        assert_eq!(unframe(b"1234567"), None);
        assert!(unframe(b"12345678").is_some());
    }
}

//! Fail-closed stream codec for the production transport.
//!
//! Reuses the workspace wire format (`dcp-transport`'s
//! `type:u8 ‖ len:u32be ‖ payload`) but hardens the reassembly for bytes
//! arriving from *real* sockets: the length prefix is validated against a
//! hard cap **before** any buffering commitment, so a hostile peer
//! claiming a 4 GiB frame cannot make the server allocate 4 GiB — or
//! even hold the connection's buffer hostage. Every failure is a typed
//! error the server answers by closing that one connection; nothing here
//! can panic on wire input (the proptest in `tests/serve_loopback.rs`
//! fuzzes exactly this surface).

use dcp_transport::frame::{Frame, FrameType};
use dcp_transport::TransportError;
use std::io::Write;

/// Hard cap on a single frame's payload arriving over a real socket,
/// defined beside the seam so that wirings can size their served
/// workloads by it. Anything larger is an attack or a bug, and is
/// rejected *from the length prefix alone* — before buffering a single
/// payload byte.
pub use dcp_runtime::seam::MAX_FRAME_PAYLOAD;

/// Incremental frame reassembler for socket streams, the hardened
/// production twin of `dcp_transport::frame::Framer`.
///
/// Differences from the sim-side `Framer`, both fail-closed:
/// * unknown type tags poison the stream immediately (first byte);
/// * a length prefix over [`MAX_FRAME_PAYLOAD`] errors before buffering.
///
/// After any error the reader must be discarded along with its
/// connection — resynchronizing inside a hostile byte stream is
/// guesswork, and guessing is exactly what fail-closed forbids.
#[derive(Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed stream bytes; returns every frame completed by this chunk.
    ///
    /// Errors with [`TransportError::BadFrame`] on an unknown type tag
    /// and [`TransportError::Oversize`] on a length prefix over the cap.
    pub fn push(&mut self, chunk: &[u8]) -> Result<Vec<Frame>, TransportError> {
        self.buf.extend_from_slice(chunk);
        let mut frames = Vec::new();
        loop {
            if self.buf.is_empty() {
                break;
            }
            // Validate the type tag from the very first byte: a garbage
            // stream is rejected before it can buffer anything.
            if frame_type_of(self.buf[0]).is_none() {
                return Err(TransportError::BadFrame);
            }
            if self.buf.len() < 5 {
                break;
            }
            let len =
                u32::from_be_bytes([self.buf[1], self.buf[2], self.buf[3], self.buf[4]]) as usize;
            if len > MAX_FRAME_PAYLOAD {
                return Err(TransportError::Oversize);
            }
            if self.buf.len() < 5 + len {
                break;
            }
            let (frame, used) = Frame::decode_prefix(&self.buf)?;
            frames.push(frame);
            self.buf.drain(..used);
        }
        Ok(frames)
    }

    /// Bytes buffered awaiting completion — bounded by `5 +`
    /// [`MAX_FRAME_PAYLOAD`] for any input, hostile or not.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

fn frame_type_of(tag: u8) -> Option<FrameType> {
    match tag {
        0x01 => Some(FrameType::Data),
        0x02 => Some(FrameType::Connect),
        0x03 => Some(FrameType::Response),
        0x04 => Some(FrameType::Chaff),
        0x05 => Some(FrameType::Token),
        _ => None,
    }
}

/// Encode and write one frame to a (blocking) stream. The length check
/// happens in `Frame::encode` — an oversize payload is a local bug and
/// surfaces as an error here rather than a truncated frame on the wire.
pub fn write_frame<W: Write>(
    w: &mut W,
    ftype: FrameType,
    payload: &[u8],
) -> Result<(), crate::ServeError> {
    let bytes = Frame::new(ftype, payload.to_vec())
        .encode()
        .map_err(crate::ServeError::Wire)?;
    w.write_all(&bytes).map_err(crate::ServeError::Io)?;
    w.flush().map_err(crate::ServeError::Io)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reassembles_across_arbitrary_splits() {
        let f1 = Frame::new(FrameType::Data, vec![1; 100]);
        let f2 = Frame::new(FrameType::Response, vec![2; 7]);
        let mut stream = f1.encode().unwrap();
        stream.extend_from_slice(&f2.encode().unwrap());
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for chunk in stream.chunks(3) {
            got.extend(r.push(chunk).unwrap());
        }
        assert_eq!(got, vec![f1, f2]);
        assert_eq!(r.pending(), 0);
    }

    #[test]
    fn oversize_length_prefix_rejected_before_buffering() {
        // Claims a 16 MiB payload; only the 5-byte header arrives. The
        // reader must reject from the prefix alone.
        let mut hdr = vec![0x01];
        hdr.extend_from_slice(&(16u32 << 20).to_be_bytes());
        let mut r = FrameReader::new();
        assert_eq!(r.push(&hdr).unwrap_err(), TransportError::Oversize);
    }

    #[test]
    fn bad_tag_poisons_immediately() {
        let mut r = FrameReader::new();
        assert_eq!(r.push(&[0xfe]).unwrap_err(), TransportError::BadFrame);
    }

    #[test]
    fn pending_is_bounded() {
        // A maximal valid frame buffers at most 5 + cap bytes.
        let mut hdr = vec![0x01];
        hdr.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32).to_be_bytes());
        let mut r = FrameReader::new();
        assert!(r.push(&hdr).unwrap().is_empty());
        assert!(r.pending() <= 5 + MAX_FRAME_PAYLOAD);
    }
}

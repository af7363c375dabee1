//! Per-connection state machines for the nonblocking reactor: an
//! incremental frame reader and a reply write queue.
//!
//! Both halves are pure buffer machines — no sockets — so partial I/O
//! (a frame arriving one byte at a time, a kernel send buffer accepting
//! a short write) is unit-testable right here, and the reactor's only
//! job is to pump bytes between them and the nonblocking stream.
//!
//! The write queue doubles as the connection's *reply reorder buffer*:
//! the protocol has no request ids, so replies must leave in request
//! order. Each request reserves a slot at parse time; slots complete out
//! of order (a cache hit finishes before an in-flight cold plan), but
//! bytes only ever drain from the head, and only once the head is ready.

use crate::frame::{parse_body, parse_header, FrameError, HEADER_LEN, MAX_FRAME};
use crate::metrics::Timer;
use opass_json::Json;
use std::collections::VecDeque;
use std::io::Write;
use std::sync::Arc;

/// Accumulates raw bytes and yields complete frames.
///
/// Feed bytes with [`FrameBuf::extend`], then drain frames with
/// [`FrameBuf::next_frame`]. An error (`Oversized`, `BadJson`) is
/// unrecoverable — framing is lost after a bad frame — so the caller
/// replies with a typed error and closes.
#[derive(Debug, Default)]
pub(crate) struct FrameBuf {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by parsed frames; compacted
    /// lazily so byte-at-a-time arrivals don't shift the buffer per byte.
    pos: usize,
}

impl FrameBuf {
    pub(crate) fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends newly read bytes.
    pub(crate) fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// The next complete frame, if the buffer holds one. `None` means
    /// "need more bytes"; `Some(Err(_))` means framing is unrecoverable.
    pub(crate) fn next_frame(&mut self) -> Option<Result<Json, FrameError>> {
        let avail = &self.buf[self.pos..];
        if avail.len() < HEADER_LEN {
            self.compact();
            return None;
        }
        let header: [u8; HEADER_LEN] = avail[..HEADER_LEN]
            .try_into()
            .expect("slice length checked above");
        let len = match parse_header(header, MAX_FRAME) {
            Ok(len) => len,
            Err(e) => return Some(Err(e)),
        };
        if avail.len() < HEADER_LEN + len {
            self.compact();
            return None;
        }
        let body = &avail[HEADER_LEN..HEADER_LEN + len];
        let parsed = parse_body(body);
        self.pos += HEADER_LEN + len;
        Some(parsed)
    }

    /// Drops consumed bytes once they dominate the buffer, keeping the
    /// amortized cost of pipelined frame streams linear.
    fn compact(&mut self) {
        if self.pos > 0 && self.pos >= self.buf.len() / 2 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// One reply slot: reserved at request-parse time, completed when the
/// reply bytes exist.
#[derive(Debug)]
enum Slot {
    /// Reply not yet determined; holds the admission timer so latency is
    /// measured where the request entered, not where it was computed.
    Pending { id: u64, timer: Timer },
    /// Pre-encoded frame ready to write.
    Ready(Arc<Vec<u8>>),
}

/// FIFO reply queue with out-of-order completion and head-only draining.
#[derive(Debug, Default)]
pub(crate) struct WriteQueue {
    slots: VecDeque<Slot>,
    /// Bytes of the head slot already written (short-write re-arm state).
    written: usize,
    next_id: u64,
}

impl WriteQueue {
    pub(crate) fn new() -> WriteQueue {
        WriteQueue::default()
    }

    /// Reserves the next in-order slot for a reply that is not yet
    /// computed. Returns the slot id to [`WriteQueue::fill`] later.
    pub(crate) fn push_pending(&mut self, timer: Timer) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.slots.push_back(Slot::Pending { id, timer });
        id
    }

    /// Enqueues an already-encoded reply (inline requests: ping, stats,
    /// errors — and cache hits, which write the shared bytes zero-copy).
    pub(crate) fn push_ready(&mut self, bytes: Arc<Vec<u8>>) {
        self.slots.push_back(Slot::Ready(bytes));
    }

    /// Completes a pending slot. Returns the admission timer on success,
    /// `None` if the slot is unknown (already reaped).
    pub(crate) fn fill(&mut self, id: u64, bytes: Arc<Vec<u8>>) -> Option<Timer> {
        let slot = self
            .slots
            .iter_mut()
            .find(|s| matches!(s, Slot::Pending { id: slot_id, .. } if *slot_id == id))?;
        let Slot::Pending { timer, .. } = *slot else {
            unreachable!("find matched a pending slot");
        };
        *slot = Slot::Ready(bytes);
        Some(timer)
    }

    /// Undetermined (pending) slots — the backpressure quantity.
    pub(crate) fn pending(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Pending { .. }))
            .count()
    }

    /// Whether every reply has been fully written.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drains ready replies from the head into `w` until the queue is
    /// empty, the head is still pending, or the stream would block.
    /// Returns whether any bytes moved, including before a `WouldBlock`.
    /// Interrupted writes retry; any other error propagates (the caller
    /// reaps the connection).
    pub(crate) fn write_to<W: Write>(&mut self, w: &mut W) -> std::io::Result<bool> {
        let mut progressed = false;
        loop {
            let Some(Slot::Ready(bytes)) = self.slots.front() else {
                return Ok(progressed);
            };
            match w.write(&bytes[self.written..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "peer stopped accepting bytes",
                    ))
                }
                Ok(n) => {
                    progressed = true;
                    self.written += n;
                    if self.written == bytes.len() {
                        self.slots.pop_front();
                        self.written = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(progressed),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::encode_frame;

    fn frame_bytes(json: &Json) -> Vec<u8> {
        encode_frame(json).expect("test frame encodes")
    }

    #[test]
    fn frames_reassemble_from_single_bytes() {
        let v = Json::object([("type".into(), Json::from("ping"))]);
        let bytes = frame_bytes(&v);
        let mut fb = FrameBuf::new();
        for (i, b) in bytes.iter().enumerate() {
            assert!(
                fb.next_frame().is_none(),
                "no frame before byte {i} of {}",
                bytes.len()
            );
            fb.extend(&[*b]);
        }
        let got = fb.next_frame().expect("complete").expect("parses");
        assert_eq!(got, v);
        assert!(fb.next_frame().is_none());
    }

    #[test]
    fn pipelined_frames_drain_in_order() {
        let mut fb = FrameBuf::new();
        let mut all = Vec::new();
        for i in 0..50u64 {
            all.extend(frame_bytes(&Json::object([("i".into(), Json::from(i))])));
        }
        // Arrives in two arbitrary chunks.
        let (a, b) = all.split_at(all.len() / 3);
        fb.extend(a);
        let mut seen = 0u64;
        while let Some(f) = fb.next_frame() {
            let f = f.expect("parses");
            assert_eq!(f.get("i").and_then(Json::as_u64), Some(seen));
            seen += 1;
        }
        fb.extend(b);
        while let Some(f) = fb.next_frame() {
            let f = f.expect("parses");
            assert_eq!(f.get("i").and_then(Json::as_u64), Some(seen));
            seen += 1;
        }
        assert_eq!(seen, 50);
    }

    #[test]
    fn oversized_header_is_fatal() {
        let mut fb = FrameBuf::new();
        fb.extend(&((MAX_FRAME + 1) as u32).to_be_bytes());
        match fb.next_frame() {
            Some(Err(FrameError::Oversized { .. })) => {}
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn garbage_body_is_fatal_but_typed() {
        let mut fb = FrameBuf::new();
        let body = b"not json";
        fb.extend(&(body.len() as u32).to_be_bytes());
        fb.extend(body);
        match fb.next_frame() {
            Some(Err(FrameError::BadJson(_))) => {}
            other => panic!("expected BadJson, got {other:?}"),
        }
    }

    /// A sink that accepts at most `cap` bytes per write call, then
    /// signals `WouldBlock` until re-armed — the kernel send buffer in
    /// miniature.
    struct Throttle {
        out: Vec<u8>,
        budget: usize,
        cap: usize,
    }

    impl Write for Throttle {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.budget == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.cap).min(self.budget);
            self.out.extend_from_slice(&buf[..n]);
            self.budget -= n;
            Ok(n)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_writes_rearm_and_resume_mid_frame() {
        let mut wq = WriteQueue::new();
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        wq.push_ready(Arc::new(payload.clone()));
        let mut sink = Throttle {
            out: Vec::new(),
            budget: 300,
            cap: 7,
        };
        // Dribbles 7 bytes at a time until the 300-byte budget runs dry;
        // the bytes moved before `WouldBlock` count as progress.
        assert!(wq.write_to(&mut sink).expect("io"));
        assert_eq!(sink.out.len(), 300);
        assert!(!wq.is_empty(), "frame partially written");
        // Re-arm: the queue resumes exactly where it stopped.
        sink.budget = usize::MAX;
        assert!(wq.write_to(&mut sink).expect("io"));
        assert_eq!(sink.out, payload);
        assert!(wq.is_empty());
    }

    #[test]
    fn replies_leave_in_request_order_despite_completion_order() {
        let mut wq = WriteQueue::new();
        let a = wq.push_pending(Timer::start());
        wq.push_ready(Arc::new(b"B".to_vec()));
        let c = wq.push_pending(Timer::start());
        assert_eq!(wq.pending(), 2);

        let mut sink = Throttle {
            out: Vec::new(),
            budget: usize::MAX,
            cap: usize::MAX,
        };
        // Head is pending: nothing drains even though B is ready.
        assert!(!wq.write_to(&mut sink).expect("io"));
        assert!(sink.out.is_empty());

        // C completes before A; order still holds once A lands.
        assert!(wq.fill(c, Arc::new(b"C".to_vec())).is_some());
        assert!(!wq.write_to(&mut sink).expect("io"));
        assert!(wq.fill(a, Arc::new(b"A".to_vec())).is_some());
        assert!(wq.write_to(&mut sink).expect("io"));
        assert_eq!(sink.out, b"ABC");
        assert_eq!(wq.pending(), 0);
        assert!(wq.fill(99, Arc::new(Vec::new())).is_none(), "unknown slot");
    }
}

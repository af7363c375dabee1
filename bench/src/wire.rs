//! The load generator's side of a connection: pre-encoded request frames
//! out, raw reply bodies in.
//!
//! The generator must stay cheaper than the server it measures, so the
//! timed loops never build or parse JSON: requests are encoded once in
//! set-up, hot replies are verified by byte equality against a reply
//! that was fully decoded and checked in warm-up, and churn replies get
//! a byte scan ([`scan_plan`]) in the loop and a full decode between
//! rounds. `loadgen.cpu_share` keeps this visible.

use opass_serve::frame::{encode_frame, parse_body, parse_header, HEADER_LEN, MAX_FRAME};
use opass_serve::{Request, Response};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};

/// One client connection with a reusable receive buffer.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

/// Encodes `request` as one wire frame.
pub fn frame_of(request: &Request) -> Vec<u8> {
    encode_frame(&request.to_json()).expect("requests are far below the frame cap")
}

/// Fully decodes a reply body through `serve::frame` and
/// `serve::protocol`.
pub fn decode(body: &[u8]) -> Response {
    let json = parse_body(body).expect("server replies are valid JSON");
    Response::from_json(&json).expect("server replies decode")
}

impl Conn {
    /// Connects and completes one `ping` round-trip, so the connection is
    /// registered with its shard before any timing starts. `TCP_NODELAY`
    /// is set on this (the client's) socket only.
    pub fn connect(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).expect("connect to the server under test");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let mut conn = Conn {
            stream,
            buf: vec![0; 256 << 10],
            start: 0,
            end: 0,
        };
        conn.send(&frame_of(&Request::Ping));
        assert!(
            matches!(decode(conn.recv()), Response::Pong { .. }),
            "handshake ping is answered with a pong"
        );
        conn
    }

    /// Writes pre-encoded frame bytes (one frame or a pipelined burst).
    #[inline]
    pub fn send(&mut self, frames: &[u8]) {
        self.stream.write_all(frames).expect("write request frames");
    }

    /// Makes at least `need` unread bytes available at `start`.
    fn fill(&mut self, need: usize) {
        if self.end - self.start >= need {
            return;
        }
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.buf.len() < need {
            self.buf.resize(need.next_power_of_two(), 0);
        }
        while self.end < need {
            let n = self
                .stream
                .read(&mut self.buf[self.end..])
                .expect("read reply bytes");
            assert!(n > 0, "server closed the connection mid-run");
            self.end += n;
        }
    }

    /// Blocks for the next reply frame and returns its body, valid until
    /// the next call.
    #[inline]
    pub fn recv(&mut self) -> &[u8] {
        self.fill(HEADER_LEN);
        let header: [u8; HEADER_LEN] = self.buf[self.start..self.start + HEADER_LEN]
            .try_into()
            .expect("header slice has HEADER_LEN bytes");
        let len = parse_header(header, MAX_FRAME).expect("reply frame within the cap");
        self.fill(HEADER_LEN + len);
        let body = self.start + HEADER_LEN;
        self.start = body + len;
        &self.buf[body..body + len]
    }
}

/// What the in-loop byte scan reads off a `plan` reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanScan {
    /// The generation the plan was computed under.
    pub generation: u64,
    /// Entries of the `owners` array.
    pub owners: usize,
    /// Largest owner index.
    pub max_owner: u64,
}

/// Position of the first `needle` in `haystack`.
pub fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The unsigned decimal at the start of `bytes` and its digit count.
pub fn number_at(bytes: &[u8]) -> Option<(u64, usize)> {
    let digits = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    if digits == 0 {
        return None;
    }
    let mut value = 0u64;
    for &b in &bytes[..digits] {
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
    }
    Some((value, digits))
}

/// Scans a reply body for the cheap per-reply checks without building a
/// JSON tree: it must be a `plan` reply, and its generation, owner count
/// and largest owner index come back. `None` for any other reply
/// (`overloaded`, `shutting_down`, `error`, malformed).
pub fn scan_plan(body: &[u8]) -> Option<PlanScan> {
    if !body.starts_with(br#"{"v":1,"type":"plan","#) {
        return None;
    }
    let gen_at = find(body, br#""generation":"#)? + br#""generation":"#.len();
    let (generation, _) = number_at(&body[gen_at..])?;
    let mut at = find(body, br#""owners":["#)? + br#""owners":["#.len();
    let (mut owners, mut max_owner) = (0usize, 0u64);
    while body.get(at) != Some(&b']') {
        let (owner, digits) = number_at(&body[at..])?;
        owners += 1;
        max_owner = max_owner.max(owner);
        at += digits;
        if body.get(at) == Some(&b',') {
            at += 1;
        }
    }
    Some(PlanScan {
        generation,
        owners,
        max_owner,
    })
}

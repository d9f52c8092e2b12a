//! The versioned, length-prefixed binary wire protocol.
//!
//! Every message on a cluster connection is one **frame**:
//!
//! | field       | size | notes                                   |
//! |-------------|------|-----------------------------------------|
//! | magic       | 4    | `0x424D_4E45` ("BMNE"), little-endian   |
//! | version     | 1    | [`WIRE_VERSION`]                        |
//! | opcode      | 1    | [`Opcode`]                              |
//! | flags       | 2    | [`flags`] bits: response/error/degraded |
//! | request id  | 8    | echoed verbatim in the response         |
//! | payload len | 4    | bytes following the header              |
//!
//! All integers are little-endian. Strings are `u32` length-prefixed
//! UTF-8. The decoder is **total**: any byte sequence either decodes or
//! returns a [`WireError`] — it never panics and never allocates more
//! than the declared (bounds-checked) payload length, so a malicious or
//! corrupted peer cannot crash or balloon a server. The fuzz-style
//! corpus in `tests/wire_fuzz.rs` holds the decoder to that contract.

use std::io::{Read, Write};

use broadmatch::{AdId, AdInfo, MatchHit, MatchType, QueryStats};
use broadmatch_serve::UpdateOp;

/// Frame magic: "BMNE" (BroadMatch NEt) as a little-endian `u32`.
pub const MAGIC: u32 = 0x454E_4D42;

/// Current protocol version. A server refuses frames from a newer major
/// version rather than mis-parsing them.
pub const WIRE_VERSION: u8 = 1;

/// Size of the fixed frame header in bytes.
pub const HEADER_LEN: usize = 20;

/// Upper bound on a frame payload: large enough for a full metrics dump
/// or a fat op-log batch, small enough that a hostile length field cannot
/// balloon allocation.
pub const MAX_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Upper bound on any single string field (query text, phrase, metrics
/// exposition chunk).
pub const MAX_STRING: u32 = 4 * 1024 * 1024;

/// Frame flag bits.
pub mod flags {
    /// The frame is a response (otherwise a request).
    pub const RESPONSE: u16 = 1 << 0;
    /// The response carries an [`super::ErrorReply`] payload.
    pub const ERROR: u16 = 1 << 1;
    /// The response is partial: at least one shard failed or timed out.
    pub const DEGRADED: u16 = 1 << 2;
}

/// Operation selector of a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Run a query (broad/exact/phrase).
    Query = 0x01,
    /// Insert an ad through the delta overlay.
    Insert = 0x02,
    /// Remove ads by exact phrase + listing id.
    Remove = 0x03,
    /// Fold the overlay into a rebuilt base now.
    Compact = 0x04,
    /// Dump the telemetry registry (Prometheus text exposition).
    Metrics = 0x05,
    /// Liveness + replication positions.
    Health = 0x06,
    /// Fetch a batch of op-log entries from `from_seq`.
    OplogSubscribe = 0x07,
}

impl Opcode {
    fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            0x01 => Some(Opcode::Query),
            0x02 => Some(Opcode::Insert),
            0x03 => Some(Opcode::Remove),
            0x04 => Some(Opcode::Compact),
            0x05 => Some(Opcode::Metrics),
            0x06 => Some(Opcode::Health),
            0x07 => Some(Opcode::OplogSubscribe),
            _ => None,
        }
    }
}

/// Why a frame or payload failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The underlying transport failed (kind preserved; a timeout surfaces
    /// as `WouldBlock`/`TimedOut` depending on platform).
    Io(std::io::ErrorKind),
    /// The peer closed the connection cleanly between frames.
    Closed,
    /// First four bytes are not [`MAGIC`] — not our protocol; hang up.
    BadMagic(u32),
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Unknown opcode byte.
    BadOpcode(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    PayloadTooLarge(u32),
    /// Payload ended before the declared structure was complete.
    Truncated,
    /// Structurally invalid payload (bad enum tag, non-UTF-8 string,
    /// element count inconsistent with remaining bytes, ...).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(kind) => write!(f, "transport error: {kind:?}"),
            WireError::Closed => write!(f, "connection closed"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            WireError::PayloadTooLarge(n) => write!(f, "payload of {n} bytes exceeds cap"),
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Closed
        } else {
            WireError::Io(e.kind())
        }
    }
}

/// A decoded frame header plus its raw payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Operation selector.
    pub opcode: Opcode,
    /// [`flags`] bits.
    pub flags: u16,
    /// Correlates responses with requests on a multiplexed connection.
    pub request_id: u64,
    /// Opcode-specific payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// True when the RESPONSE flag is set.
    pub fn is_response(&self) -> bool {
        self.flags & flags::RESPONSE != 0
    }

    /// True when the ERROR flag is set.
    pub fn is_error(&self) -> bool {
        self.flags & flags::ERROR != 0
    }

    /// True when the DEGRADED flag is set.
    pub fn is_degraded(&self) -> bool {
        self.flags & flags::DEGRADED != 0
    }
}

/// Serialize `frame` into `out` (header + payload).
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    out.reserve(HEADER_LEN + frame.payload.len());
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(frame.opcode as u8);
    out.extend_from_slice(&frame.flags.to_le_bytes());
    out.extend_from_slice(&frame.request_id.to_le_bytes());
    out.extend_from_slice(&(frame.payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&frame.payload);
}

/// Write one frame to a stream.
///
/// # Errors
/// Propagates transport errors.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> std::io::Result<()> {
    let mut buf = Vec::new();
    encode_frame(frame, &mut buf);
    w.write_all(&buf)?;
    w.flush()
}

/// Read exactly one frame from a stream.
///
/// # Errors
/// [`WireError::Closed`] on clean EOF at a frame boundary; other
/// [`WireError`] variants for transport failures and protocol violations.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; HEADER_LEN];
    // Distinguish clean close (zero bytes at a frame boundary) from a
    // truncated header.
    let mut got = 0;
    while got < HEADER_LEN {
        match r.read(&mut header[got..]) {
            Ok(0) => {
                return Err(if got == 0 {
                    WireError::Closed
                } else {
                    WireError::Truncated
                });
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    let (opcode, frame_flags, request_id, payload_len) = decode_header(&header)?;
    let mut payload = vec![0u8; payload_len as usize];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == std::io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e.kind())
        }
    })?;
    Ok(Frame {
        opcode,
        flags: frame_flags,
        request_id,
        payload,
    })
}

/// Decode one frame from a byte slice, returning it and the bytes
/// consumed. This is the entry point the fuzz corpus drives.
///
/// # Errors
/// Any [`WireError`] protocol violation; never panics on any input.
pub fn decode_frame(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
    if bytes.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mut header = [0u8; HEADER_LEN];
    header.copy_from_slice(&bytes[..HEADER_LEN]);
    let (opcode, frame_flags, request_id, payload_len) = decode_header(&header)?;
    let total = HEADER_LEN + payload_len as usize;
    if bytes.len() < total {
        return Err(WireError::Truncated);
    }
    Ok((
        Frame {
            opcode,
            flags: frame_flags,
            request_id,
            payload: bytes[HEADER_LEN..total].to_vec(),
        },
        total,
    ))
}

fn decode_header(header: &[u8; HEADER_LEN]) -> Result<(Opcode, u16, u64, u32), WireError> {
    let magic = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if header[4] != WIRE_VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let opcode = Opcode::from_u8(header[5]).ok_or(WireError::BadOpcode(header[5]))?;
    let frame_flags = u16::from_le_bytes([header[6], header[7]]);
    let mut id = [0u8; 8];
    id.copy_from_slice(&header[8..16]);
    let request_id = u64::from_le_bytes(id);
    let payload_len = u32::from_le_bytes([header[16], header[17], header[18], header[19]]);
    if payload_len > MAX_PAYLOAD {
        return Err(WireError::PayloadTooLarge(payload_len));
    }
    Ok((opcode, frame_flags, request_id, payload_len))
}

// ---------------------------------------------------------------------------
// Payload cursor: total reads, never panics.

/// Bounds-checked little-endian reader over a payload slice.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        let mut b = [0u8; 8];
        b.copy_from_slice(s);
        Ok(u64::from_le_bytes(b))
    }

    fn string(&mut self) -> Result<String, WireError> {
        let len = self.u32()?;
        if len > MAX_STRING {
            return Err(WireError::Malformed("string length exceeds cap"));
        }
        let bytes = self.take(len as usize)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }

    /// A declared element count is plausible only if `count * min_elem`
    /// bytes can still follow; rejects hostile counts before allocating.
    fn count(&mut self, min_elem: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len().saturating_sub(self.pos);
        if n.saturating_mul(min_elem.max(1)) > remaining {
            return Err(WireError::Malformed("element count exceeds payload"));
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after payload"))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_string(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn match_type_to_u8(mt: MatchType) -> u8 {
    match mt {
        MatchType::Broad => 0,
        MatchType::Exact => 1,
        MatchType::Phrase => 2,
    }
}

fn match_type_from_u8(b: u8) -> Result<MatchType, WireError> {
    match b {
        0 => Ok(MatchType::Broad),
        1 => Ok(MatchType::Exact),
        2 => Ok(MatchType::Phrase),
        _ => Err(WireError::Malformed("bad match type")),
    }
}

// ---------------------------------------------------------------------------
// Requests.

/// A decoded request payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Run a query.
    Query {
        /// Raw query text.
        text: String,
        /// Matching semantics.
        match_type: MatchType,
    },
    /// Insert an ad.
    Insert {
        /// Bid phrase.
        phrase: String,
        /// Ad metadata.
        info: AdInfo,
    },
    /// Remove by exact phrase + listing id.
    Remove {
        /// Bid phrase.
        phrase: String,
        /// Listing to remove.
        listing_id: u64,
    },
    /// Fold the overlay now.
    Compact,
    /// Prometheus text exposition dump.
    Metrics,
    /// Liveness and replication positions.
    Health,
    /// Op-log batch from `from_seq` (exclusive start: the first op
    /// returned has sequence `from_seq + 1`).
    OplogSubscribe {
        /// Ops with sequence `> from_seq` are returned.
        from_seq: u64,
        /// At most this many ops in one batch.
        max_ops: u32,
    },
}

impl Request {
    /// The opcode this request travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Request::Query { .. } => Opcode::Query,
            Request::Insert { .. } => Opcode::Insert,
            Request::Remove { .. } => Opcode::Remove,
            Request::Compact => Opcode::Compact,
            Request::Metrics => Opcode::Metrics,
            Request::Health => Opcode::Health,
            Request::OplogSubscribe { .. } => Opcode::OplogSubscribe,
        }
    }

    /// Encode into a request frame.
    pub fn to_frame(&self, request_id: u64) -> Frame {
        let mut payload = Vec::new();
        match self {
            Request::Query { text, match_type } => {
                payload.push(match_type_to_u8(*match_type));
                put_string(&mut payload, text);
            }
            Request::Insert { phrase, info } => {
                put_u64(&mut payload, info.listing_id);
                put_u32(&mut payload, info.campaign_id);
                put_u64(&mut payload, info.bid_micros);
                put_string(&mut payload, phrase);
            }
            Request::Remove { phrase, listing_id } => {
                put_u64(&mut payload, *listing_id);
                put_string(&mut payload, phrase);
            }
            Request::Compact | Request::Metrics | Request::Health => {}
            Request::OplogSubscribe { from_seq, max_ops } => {
                put_u64(&mut payload, *from_seq);
                put_u32(&mut payload, *max_ops);
            }
        }
        Frame {
            opcode: self.opcode(),
            flags: 0,
            request_id,
            payload,
        }
    }

    /// Decode a request from a frame.
    ///
    /// # Errors
    /// [`WireError::Malformed`]/[`WireError::Truncated`] on any payload
    /// that does not exactly match the opcode's schema.
    pub fn from_frame(frame: &Frame) -> Result<Request, WireError> {
        if frame.is_response() {
            return Err(WireError::Malformed("response flag on a request"));
        }
        let mut c = Cursor::new(&frame.payload);
        let req = match frame.opcode {
            Opcode::Query => {
                let match_type = match_type_from_u8(c.u8()?)?;
                let text = c.string()?;
                Request::Query { text, match_type }
            }
            Opcode::Insert => {
                let listing_id = c.u64()?;
                let campaign_id = c.u32()?;
                let bid_micros = c.u64()?;
                let phrase = c.string()?;
                Request::Insert {
                    phrase,
                    info: AdInfo {
                        listing_id,
                        campaign_id,
                        bid_micros,
                    },
                }
            }
            Opcode::Remove => {
                let listing_id = c.u64()?;
                let phrase = c.string()?;
                Request::Remove { phrase, listing_id }
            }
            Opcode::Compact => Request::Compact,
            Opcode::Metrics => Request::Metrics,
            Opcode::Health => Request::Health,
            Opcode::OplogSubscribe => {
                let from_seq = c.u64()?;
                let max_ops = c.u32()?;
                Request::OplogSubscribe { from_seq, max_ops }
            }
        };
        c.finish()?;
        Ok(req)
    }
}

// ---------------------------------------------------------------------------
// Replicated operations: entries of the serve runtime's op log
// (tag 1 = insert, tag 2 = remove).

/// Minimum encoded size of an [`UpdateOp`] (tag + listing + empty phrase).
const UPDATE_OP_MIN: usize = 1 + 8 + 4;

fn put_update_op(out: &mut Vec<u8>, op: &UpdateOp) {
    match op {
        UpdateOp::Insert { phrase, info } => {
            out.push(1);
            put_u64(out, info.listing_id);
            put_u32(out, info.campaign_id);
            put_u64(out, info.bid_micros);
            put_string(out, phrase);
        }
        UpdateOp::Remove { phrase, listing_id } => {
            out.push(2);
            put_u64(out, *listing_id);
            put_string(out, phrase);
        }
    }
}

fn get_update_op(c: &mut Cursor<'_>) -> Result<UpdateOp, WireError> {
    match c.u8()? {
        1 => {
            let listing_id = c.u64()?;
            let campaign_id = c.u32()?;
            let bid_micros = c.u64()?;
            let phrase = c.string()?;
            Ok(UpdateOp::Insert {
                phrase,
                info: AdInfo {
                    listing_id,
                    campaign_id,
                    bid_micros,
                },
            })
        }
        2 => {
            let listing_id = c.u64()?;
            let phrase = c.string()?;
            Ok(UpdateOp::Remove { phrase, listing_id })
        }
        _ => Err(WireError::Malformed("bad op tag")),
    }
}

// ---------------------------------------------------------------------------
// Responses.

/// Machine-readable failure category in an [`ErrorReply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// Admission control refused the query; honor `retry_after_micros`.
    Overloaded,
    /// The backend is shutting down.
    ShuttingDown,
    /// The request failed validation (bad phrase, malformed payload).
    BadRequest,
    /// Unexpected server-side failure.
    Internal,
}

impl ErrorCode {
    fn to_u8(self) -> u8 {
        match self {
            ErrorCode::Overloaded => 1,
            ErrorCode::ShuttingDown => 2,
            ErrorCode::BadRequest => 3,
            ErrorCode::Internal => 4,
        }
    }

    fn from_u8(b: u8) -> Result<ErrorCode, WireError> {
        match b {
            1 => Ok(ErrorCode::Overloaded),
            2 => Ok(ErrorCode::ShuttingDown),
            3 => Ok(ErrorCode::BadRequest),
            4 => Ok(ErrorCode::Internal),
            _ => Err(WireError::Malformed("bad error code")),
        }
    }
}

/// An error response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorReply {
    /// Failure category.
    pub code: ErrorCode,
    /// Backoff hint for [`ErrorCode::Overloaded`] (0 otherwise).
    pub retry_after_micros: u64,
    /// Human-readable detail.
    pub detail: String,
}

/// A query response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// Matching ads.
    pub hits: Vec<MatchHit>,
    /// Processing statistics (summed across shards by the router).
    pub stats: QueryStats,
    /// Snapshot version that served the query.
    pub version: u64,
}

/// A decoded (non-error) response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Query results.
    Query(QueryReply),
    /// Insert acknowledged.
    Insert {
        /// Assigned ad id (dense, backend-local).
        ad: u32,
        /// The primary's op-log head once this insert committed: at or
        /// after the insert's own sequence, so a replica that has applied
        /// through `seq` answers with the insert.
        seq: u64,
    },
    /// Remove acknowledged.
    Remove {
        /// Ads removed (0 = no-op, nothing logged).
        removed: u64,
        /// Op-log head after this mutation.
        seq: u64,
    },
    /// Compaction finished (`version == 0` means nothing to fold).
    Compact {
        /// New snapshot version, or 0 when the overlay was empty.
        version: u64,
    },
    /// Full Prometheus text exposition.
    Metrics {
        /// The exposition text.
        text: String,
    },
    /// Liveness + replication positions.
    Health {
        /// Published snapshot version.
        version: u64,
        /// Op-log head sequence.
        oplog_seq: u64,
        /// Base epoch of the published snapshot.
        base_epoch: u64,
    },
    /// Op-log batch.
    Oplog {
        /// Ops with sequence in `(from_seq, next_seq]`.
        ops: Vec<UpdateOp>,
        /// Sequence of the last op in `ops` (when the batch is empty, the
        /// request's `from_seq` clamped to `head_seq`).
        next_seq: u64,
        /// The primary's op-log head — `head_seq - next_seq` is the
        /// replica's lag in ops.
        head_seq: u64,
        /// Base epoch of the primary's published snapshot, bumped by every
        /// fold or publish. Informational: the log is relative to the base
        /// the primary's runtime started from, not to this epoch.
        base_epoch: u64,
    },
    /// Failure.
    Error(ErrorReply),
}

/// Minimum encoded size of a [`MatchHit`].
const HIT_BYTES: usize = 4 + 8 + 4 + 8;

fn put_stats(out: &mut Vec<u8>, s: &QueryStats) {
    for v in [
        s.probes,
        s.probe_hits,
        s.nodes_visited,
        s.hits,
        s.entries_examined,
        s.ads_examined,
        s.scanned_bytes,
        s.early_terminations,
        s.remapped_nodes,
        s.remapped_scan_bytes,
        s.tombstone_hits,
        s.overlay_hits,
    ] {
        put_u64(out, v as u64);
    }
    out.push(u8::from(s.truncated));
}

fn get_stats(c: &mut Cursor<'_>) -> Result<QueryStats, WireError> {
    let mut v = [0u64; 12];
    for slot in &mut v {
        *slot = c.u64()?;
    }
    let truncated = match c.u8()? {
        0 => false,
        1 => true,
        _ => return Err(WireError::Malformed("bad truncated flag")),
    };
    Ok(QueryStats {
        probes: v[0] as usize,
        probe_hits: v[1] as usize,
        nodes_visited: v[2] as usize,
        hits: v[3] as usize,
        entries_examined: v[4] as usize,
        ads_examined: v[5] as usize,
        scanned_bytes: v[6] as usize,
        early_terminations: v[7] as usize,
        remapped_nodes: v[8] as usize,
        remapped_scan_bytes: v[9] as usize,
        tombstone_hits: v[10] as usize,
        overlay_hits: v[11] as usize,
        truncated,
    })
}

impl Response {
    /// The opcode this response travels under.
    pub fn opcode(&self) -> Opcode {
        match self {
            Response::Query(_) => Opcode::Query,
            Response::Insert { .. } => Opcode::Insert,
            Response::Remove { .. } => Opcode::Remove,
            Response::Compact { .. } => Opcode::Compact,
            Response::Metrics { .. } => Opcode::Metrics,
            Response::Health { .. } => Opcode::Health,
            Response::Oplog { .. } => Opcode::OplogSubscribe,
            // An error echoes the request's opcode; this is the fallback
            // when the caller builds one standalone.
            Response::Error(_) => Opcode::Health,
        }
    }

    /// Encode into a response frame for `opcode` (errors echo the
    /// request's opcode so callers can correlate by id + opcode).
    pub fn to_frame(&self, opcode: Opcode, request_id: u64) -> Frame {
        let mut payload = Vec::new();
        let mut frame_flags = flags::RESPONSE;
        match self {
            Response::Query(reply) => {
                put_u64(&mut payload, reply.version);
                put_stats(&mut payload, &reply.stats);
                put_u32(&mut payload, reply.hits.len() as u32);
                for h in &reply.hits {
                    put_u32(&mut payload, h.ad.raw());
                    put_u64(&mut payload, h.info.listing_id);
                    put_u32(&mut payload, h.info.campaign_id);
                    put_u64(&mut payload, h.info.bid_micros);
                }
            }
            Response::Insert { ad, seq } => {
                put_u32(&mut payload, *ad);
                put_u64(&mut payload, *seq);
            }
            Response::Remove { removed, seq } => {
                put_u64(&mut payload, *removed);
                put_u64(&mut payload, *seq);
            }
            Response::Compact { version } => {
                put_u64(&mut payload, *version);
            }
            Response::Metrics { text } => {
                put_string(&mut payload, text);
            }
            Response::Health {
                version,
                oplog_seq,
                base_epoch,
            } => {
                put_u64(&mut payload, *version);
                put_u64(&mut payload, *oplog_seq);
                put_u64(&mut payload, *base_epoch);
            }
            Response::Oplog {
                ops,
                next_seq,
                head_seq,
                base_epoch,
            } => {
                put_u64(&mut payload, *next_seq);
                put_u64(&mut payload, *head_seq);
                put_u64(&mut payload, *base_epoch);
                put_u32(&mut payload, ops.len() as u32);
                for op in ops {
                    put_update_op(&mut payload, op);
                }
            }
            Response::Error(err) => {
                frame_flags |= flags::ERROR;
                payload.push(err.code.to_u8());
                put_u64(&mut payload, err.retry_after_micros);
                put_string(&mut payload, &err.detail);
            }
        }
        Frame {
            opcode,
            flags: frame_flags,
            request_id,
            payload,
        }
    }

    /// Decode a response from a frame (dispatching on opcode + flags).
    ///
    /// # Errors
    /// [`WireError`] on any payload that does not match the schema.
    pub fn from_frame(frame: &Frame) -> Result<Response, WireError> {
        if !frame.is_response() {
            return Err(WireError::Malformed("request flag on a response"));
        }
        let mut c = Cursor::new(&frame.payload);
        if frame.is_error() {
            let code = ErrorCode::from_u8(c.u8()?)?;
            let retry_after_micros = c.u64()?;
            let detail = c.string()?;
            c.finish()?;
            return Ok(Response::Error(ErrorReply {
                code,
                retry_after_micros,
                detail,
            }));
        }
        let resp = match frame.opcode {
            Opcode::Query => {
                let version = c.u64()?;
                let stats = get_stats(&mut c)?;
                let n = c.count(HIT_BYTES)?;
                let mut hits = Vec::with_capacity(n);
                for _ in 0..n {
                    let ad = AdId(c.u32()?);
                    let listing_id = c.u64()?;
                    let campaign_id = c.u32()?;
                    let bid_micros = c.u64()?;
                    hits.push(MatchHit {
                        ad,
                        info: AdInfo {
                            listing_id,
                            campaign_id,
                            bid_micros,
                        },
                    });
                }
                Response::Query(QueryReply {
                    hits,
                    stats,
                    version,
                })
            }
            Opcode::Insert => Response::Insert {
                ad: c.u32()?,
                seq: c.u64()?,
            },
            Opcode::Remove => Response::Remove {
                removed: c.u64()?,
                seq: c.u64()?,
            },
            Opcode::Compact => Response::Compact { version: c.u64()? },
            Opcode::Metrics => Response::Metrics { text: c.string()? },
            Opcode::Health => Response::Health {
                version: c.u64()?,
                oplog_seq: c.u64()?,
                base_epoch: c.u64()?,
            },
            Opcode::OplogSubscribe => {
                let next_seq = c.u64()?;
                let head_seq = c.u64()?;
                let base_epoch = c.u64()?;
                let n = c.count(UPDATE_OP_MIN)?;
                let mut ops = Vec::with_capacity(n);
                for _ in 0..n {
                    ops.push(get_update_op(&mut c)?);
                }
                Response::Oplog {
                    ops,
                    next_seq,
                    head_seq,
                    base_epoch,
                }
            }
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let frame = req.to_frame(42);
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        let (decoded, used) = decode_frame(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, frame);
        assert_eq!(Request::from_frame(&decoded).expect("parses"), req);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Query {
            text: "cheap used books".into(),
            match_type: MatchType::Broad,
        });
        round_trip_request(Request::Query {
            text: String::new(),
            match_type: MatchType::Phrase,
        });
        round_trip_request(Request::Insert {
            phrase: "quantum books".into(),
            info: AdInfo {
                listing_id: 7,
                campaign_id: 3,
                bid_micros: 120_000,
            },
        });
        round_trip_request(Request::Remove {
            phrase: "used books".into(),
            listing_id: 1,
        });
        round_trip_request(Request::Compact);
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Health);
        round_trip_request(Request::OplogSubscribe {
            from_seq: 99,
            max_ops: 512,
        });
    }

    fn round_trip_response(resp: Response, opcode: Opcode) {
        let frame = resp.to_frame(opcode, 7);
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);
        let (decoded, used) = decode_frame(&bytes).expect("decodes");
        assert_eq!(used, bytes.len());
        assert_eq!(Response::from_frame(&decoded).expect("parses"), resp);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(
            Response::Query(QueryReply {
                hits: vec![
                    MatchHit {
                        ad: AdId(3),
                        info: AdInfo::with_bid(9, 25),
                    },
                    MatchHit {
                        ad: AdId(0),
                        info: AdInfo {
                            listing_id: u64::MAX,
                            campaign_id: u32::MAX,
                            bid_micros: u64::MAX,
                        },
                    },
                ],
                stats: QueryStats {
                    probes: 15,
                    probe_hits: 3,
                    nodes_visited: 2,
                    truncated: true,
                    hits: 2,
                    entries_examined: 40,
                    ads_examined: 17,
                    scanned_bytes: 512,
                    early_terminations: 1,
                    remapped_nodes: 1,
                    remapped_scan_bytes: 64,
                    tombstone_hits: 1,
                    overlay_hits: 1,
                },
                version: 12,
            }),
            Opcode::Query,
        );
        round_trip_response(Response::Insert { ad: 4, seq: 17 }, Opcode::Insert);
        round_trip_response(
            Response::Remove {
                removed: 2,
                seq: 18,
            },
            Opcode::Remove,
        );
        round_trip_response(Response::Compact { version: 0 }, Opcode::Compact);
        round_trip_response(
            Response::Metrics {
                text: "# HELP x y\nx 1\n".into(),
            },
            Opcode::Metrics,
        );
        round_trip_response(
            Response::Health {
                version: 3,
                oplog_seq: 44,
                base_epoch: 2,
            },
            Opcode::Health,
        );
        round_trip_response(
            Response::Oplog {
                ops: vec![
                    UpdateOp::Insert {
                        phrase: "a b".into(),
                        info: AdInfo::with_bid(1, 5),
                    },
                    UpdateOp::Remove {
                        phrase: "a b".into(),
                        listing_id: 1,
                    },
                ],
                next_seq: 2,
                head_seq: 9,
                base_epoch: 1,
            },
            Opcode::OplogSubscribe,
        );
        round_trip_response(
            Response::Error(ErrorReply {
                code: ErrorCode::Overloaded,
                retry_after_micros: 1500,
                detail: "shard 2 queue full".into(),
            }),
            Opcode::Query,
        );
    }

    #[test]
    fn oplog_batch_bytes_are_pinned() {
        let resp = Response::Oplog {
            ops: vec![
                UpdateOp::Insert {
                    phrase: "a b".into(),
                    info: AdInfo {
                        listing_id: 0x0102,
                        campaign_id: 3,
                        bid_micros: 4,
                    },
                },
                UpdateOp::Remove {
                    phrase: "x".into(),
                    listing_id: 7,
                },
            ],
            next_seq: 2,
            head_seq: 9,
            base_epoch: 1,
        };
        #[rustfmt::skip]
        let want: Vec<u8> = vec![
            2, 0, 0, 0, 0, 0, 0, 0, // next_seq
            9, 0, 0, 0, 0, 0, 0, 0, // head_seq
            1, 0, 0, 0, 0, 0, 0, 0, // base_epoch
            2, 0, 0, 0, // op count
            1, 2, 1, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0, // insert
            3, 0, 0, 0, b'a', b' ', b'b',
            2, 7, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, b'x', // remove
        ];
        assert_eq!(resp.to_frame(Opcode::OplogSubscribe, 1).payload, want);
    }

    #[test]
    fn header_violations_are_rejected() {
        let frame = Request::Health.to_frame(1);
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);

        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(decode_frame(&bad), Err(WireError::BadMagic(_))));

        let mut bad = bytes.clone();
        bad[4] = 99;
        assert_eq!(decode_frame(&bad), Err(WireError::BadVersion(99)));

        let mut bad = bytes.clone();
        bad[5] = 0xEE;
        assert_eq!(decode_frame(&bad), Err(WireError::BadOpcode(0xEE)));

        let mut bad = bytes.clone();
        bad[16..20].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            decode_frame(&bad),
            Err(WireError::PayloadTooLarge(MAX_PAYLOAD + 1))
        );

        assert_eq!(decode_frame(&bytes[..10]), Err(WireError::Truncated));
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A query response declaring u32::MAX hits in a 40-byte payload
        // must be rejected by the plausibility check, not attempted.
        let reply = Response::Query(QueryReply {
            hits: Vec::new(),
            stats: QueryStats::default(),
            version: 1,
        });
        let mut frame = reply.to_frame(Opcode::Query, 1);
        let len = frame.payload.len();
        frame.payload[len - 4..].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            Response::from_frame(&frame),
            Err(WireError::Malformed("element count exceeds payload"))
        );
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut frame = Request::Health.to_frame(1);
        frame.payload.push(0);
        assert_eq!(
            Request::from_frame(&frame),
            Err(WireError::Malformed("trailing bytes after payload"))
        );
    }

    #[test]
    fn stream_read_distinguishes_close_from_truncation() {
        let frame = Request::Metrics.to_frame(5);
        let mut bytes = Vec::new();
        encode_frame(&frame, &mut bytes);

        let mut cursor = std::io::Cursor::new(bytes.clone());
        assert_eq!(read_frame(&mut cursor).expect("full frame"), frame);
        assert_eq!(read_frame(&mut cursor), Err(WireError::Closed));

        let mut cut = std::io::Cursor::new(bytes[..HEADER_LEN - 3].to_vec());
        assert_eq!(read_frame(&mut cut), Err(WireError::Truncated));
    }
}

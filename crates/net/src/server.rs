//! The backend: a thread-per-connection TCP server wrapping a
//! [`ServeRuntime`].
//!
//! Each accepted connection gets a handler thread that decodes frames,
//! dispatches them to the embedded runtime, and writes responses. The
//! design leans entirely on the serve layer for the hard parts:
//! admission control (a full wait line surfaces on the wire as an
//! `Overloaded` error frame carrying the runtime's retry-after hint),
//! snapshot consistency (RCU swap), and poison recovery.
//!
//! The accept loop enforces a **bounded accept budget**: past
//! `max_connections` concurrent clients, a new connection is answered
//! with a single `Overloaded` error frame and closed, so an open-socket
//! flood cannot exhaust threads. The listener runs non-blocking and
//! polls a stop flag; [`Backend::shutdown`] additionally half-closes
//! every registered live connection, which unblocks handler threads
//! mid-read — this is the hook the partition test uses to kill a backend
//! *mid-query-stream* rather than between requests.

use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use broadmatch_serve::{poison, ServeError, ServeRuntime};

use crate::metrics::NetMetrics;
use crate::wire::{
    self, ErrorCode, ErrorReply, Frame, Opcode, QueryReply, Request, Response, WireError,
};

/// Backend sizing knobs.
#[derive(Debug, Clone)]
pub struct BackendConfig {
    /// Accept budget: concurrent connections beyond this are refused
    /// with an `Overloaded` error frame.
    pub max_connections: usize,
    /// Poll interval of the non-blocking accept loop.
    pub accept_poll: Duration,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            max_connections: 64,
            accept_poll: Duration::from_millis(2),
        }
    }
}

struct BackendShared {
    runtime: Arc<ServeRuntime>,
    metrics: NetMetrics,
    stop: AtomicBool,
    active: AtomicU64,
    config: BackendConfig,
    // try_clone'd handles of live connections keyed by connection id, so
    // shutdown can sever them mid-read. A handler removes its own entry
    // when its connection ends.
    conns: Mutex<HashMap<u64, TcpStream>>,
    next_conn_id: AtomicU64,
}

/// A running backend server. Dropping it shuts the server down.
pub struct Backend {
    shared: Arc<BackendShared>,
    addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Backend")
            .field("addr", &self.addr)
            .field(
                "active",
                // ORDER: Relaxed — debug display, no synchronization implied.
                &self.shared.active.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl Backend {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve `runtime`
    /// on it. Net metric families register into the runtime's registry,
    /// so one `Metrics` frame exposes serve + net together.
    ///
    /// # Errors
    /// Propagates bind failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        runtime: Arc<ServeRuntime>,
        config: BackendConfig,
    ) -> std::io::Result<Backend> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let metrics = NetMetrics::register(runtime.registry());
        let shared = Arc::new(BackendShared {
            runtime,
            metrics,
            stop: AtomicBool::new(false),
            active: AtomicU64::new(0),
            config,
            conns: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
        });
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name(format!("net-accept-{}", local.port()))
            .spawn(move || accept_loop(listener, accept_shared))?;
        Ok(Backend {
            shared,
            addr: local,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The embedded serving runtime.
    pub fn runtime(&self) -> &Arc<ServeRuntime> {
        &self.shared.runtime
    }

    /// Stop accepting, sever every live connection (mid-read included),
    /// and join the accept thread. Idempotent.
    pub fn shutdown(&mut self) {
        // ORDER: SeqCst — the stop flag must be visible to the accept loop
        // and every handler before we sever their sockets, so a woken
        // thread re-checks it and exits instead of looping on an error.
        self.shared.stop.store(true, Ordering::SeqCst);
        {
            let mut conns = poison::lock(&self.shared.conns);
            for (_, conn) in conns.drain() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Backend {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, shared: Arc<BackendShared>) {
    // ORDER: SeqCst — pairs with the SeqCst store in shutdown().
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_nonblocking(false);
                let _ = stream.set_nodelay(true);
                handle_accept(stream, &shared);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(shared.config.accept_poll);
            }
            Err(_) => {
                // Transient accept failure (EMFILE, reset during
                // handshake); back off and keep serving.
                std::thread::sleep(shared.config.accept_poll);
            }
        }
    }
}

fn handle_accept(mut stream: TcpStream, shared: &Arc<BackendShared>) {
    // ORDER: SeqCst — the budget check must observe decrements from
    // concurrently exiting handlers; an occasional off-by-one refusal
    // under racing accepts is acceptable, silent unbounded growth is not.
    let active = shared.active.load(Ordering::SeqCst);
    if active >= shared.config.max_connections as u64 {
        shared.metrics.connections_refused_total.inc();
        let refusal = Response::Error(ErrorReply {
            code: ErrorCode::Overloaded,
            retry_after_micros: 10_000,
            detail: "accept budget exhausted".into(),
        })
        .to_frame(Opcode::Health, 0);
        let _ = wire::write_frame(&mut stream, &refusal);
        let _ = stream.shutdown(Shutdown::Both);
        return;
    }
    shared.metrics.connections_total.inc();
    // ORDER: SeqCst — symmetric with the budget load above.
    shared.active.fetch_add(1, Ordering::SeqCst);
    shared.metrics.connections_active.add(1.0);
    // ORDER: Relaxed — only uniqueness matters; the id publishes nothing.
    let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
    if let Ok(clone) = stream.try_clone() {
        poison::lock(&shared.conns).insert(conn_id, clone);
    }
    let conn_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("net-conn".into())
        .spawn(move || {
            connection_loop(&mut stream, &conn_shared);
            poison::lock(&conn_shared.conns).remove(&conn_id);
            let _ = stream.shutdown(Shutdown::Both);
            // ORDER: SeqCst — symmetric with the budget fetch_add.
            conn_shared.active.fetch_sub(1, Ordering::SeqCst);
            conn_shared.metrics.connections_active.add(-1.0);
        });
    if spawned.is_err() {
        // Thread spawn failed (resource exhaustion): undo the accounting.
        poison::lock(&shared.conns).remove(&conn_id);
        // ORDER: SeqCst — symmetric with the budget fetch_add.
        shared.active.fetch_sub(1, Ordering::SeqCst);
        shared.metrics.connections_active.add(-1.0);
    }
}

fn connection_loop(stream: &mut TcpStream, shared: &Arc<BackendShared>) {
    loop {
        // ORDER: SeqCst — pairs with the SeqCst store in shutdown(); a
        // handler woken by a severed socket must see stop=true.
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let frame = match wire::read_frame(stream) {
            Ok(f) => f,
            Err(WireError::Closed) => return,
            Err(WireError::Io(_)) => return,
            Err(_) => {
                // Protocol violation: not our protocol or a corrupted
                // peer. Count it and hang up — resynchronizing a framed
                // stream after garbage is guesswork.
                shared.metrics.decode_errors_total.inc();
                return;
            }
        };
        shared.metrics.frames_in_total.inc();
        let request_id = frame.request_id;
        let opcode = frame.opcode;
        let response = match Request::from_frame(&frame) {
            Ok(req) => dispatch(&req, shared),
            Err(e) => {
                shared.metrics.decode_errors_total.inc();
                Response::Error(ErrorReply {
                    code: ErrorCode::BadRequest,
                    retry_after_micros: 0,
                    detail: e.to_string(),
                })
            }
        };
        if matches!(response, Response::Error(_)) {
            shared.metrics.errors_out_total.inc();
        }
        let out = response.to_frame(opcode, request_id);
        if write_response(stream, &out).is_err() {
            return;
        }
        shared.metrics.frames_out_total.inc();
    }
}

fn write_response(stream: &mut TcpStream, frame: &Frame) -> std::io::Result<()> {
    let mut buf = Vec::new();
    wire::encode_frame(frame, &mut buf);
    stream.write_all(&buf)?;
    stream.flush()
}

/// Execute one decoded request against the embedded runtime.
fn dispatch(req: &Request, shared: &Arc<BackendShared>) -> Response {
    match req {
        Request::Query { text, match_type } => match shared.runtime.query(text, *match_type) {
            Ok(resp) => Response::Query(QueryReply {
                hits: resp.hits,
                stats: resp.stats,
                version: resp.version,
            }),
            Err(ServeError::Overloaded { retry_after }) => Response::Error(ErrorReply {
                code: ErrorCode::Overloaded,
                retry_after_micros: retry_after.as_micros() as u64,
                detail: "admission control".into(),
            }),
        },
        Request::Insert { phrase, info } => match shared.runtime.insert(phrase, *info) {
            Ok(ad) => Response::Insert {
                ad: ad.raw(),
                seq: shared.runtime.log_head(),
            },
            Err(e) => Response::Error(ErrorReply {
                code: ErrorCode::BadRequest,
                retry_after_micros: 0,
                detail: e.to_string(),
            }),
        },
        Request::Remove { phrase, listing_id } => {
            let removed = shared.runtime.remove(phrase, *listing_id);
            Response::Remove {
                removed: removed as u64,
                seq: shared.runtime.log_head(),
            }
        }
        Request::Compact => match shared.runtime.compact_now() {
            Ok(version) => Response::Compact {
                version: version.unwrap_or(0),
            },
            Err(e) => Response::Error(ErrorReply {
                code: ErrorCode::Internal,
                retry_after_micros: 0,
                detail: e.to_string(),
            }),
        },
        Request::Metrics => Response::Metrics {
            text: shared.runtime.prometheus(),
        },
        Request::Health => {
            let (_, version) = shared.runtime.current();
            Response::Health {
                version,
                oplog_seq: shared.runtime.log_head(),
                base_epoch: shared.runtime.base_epoch(),
            }
        }
        Request::OplogSubscribe { from_seq, max_ops } => {
            let (ops, next_seq, head_seq) = shared.runtime.log_since(*from_seq, *max_ops as usize);
            Response::Oplog {
                ops,
                next_seq,
                head_seq,
                base_epoch: shared.runtime.base_epoch(),
            }
        }
    }
}

/// Blocking client helper: send `req` on `stream` and read the matching
/// response (skipping any frame whose id doesn't match, which cannot
/// happen on a well-behaved connection but keeps the client total).
///
/// # Errors
/// [`WireError`] on transport or protocol failure.
pub fn call(stream: &mut TcpStream, req: &Request, request_id: u64) -> Result<Response, WireError> {
    let frame = req.to_frame(request_id);
    let mut buf = Vec::new();
    wire::encode_frame(&frame, &mut buf);
    stream.write_all(&buf).map_err(WireError::from)?;
    stream.flush().map_err(WireError::from)?;
    loop {
        let reply = wire::read_frame(stream)?;
        if reply.request_id == request_id {
            return Response::from_frame(&reply);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use broadmatch::{AdInfo, IndexBuilder, MatchType};
    use broadmatch_serve::ServeConfig;
    use std::time::Instant;

    fn registered(backend: &Backend) -> usize {
        poison::lock(&backend.shared.conns).len()
    }

    fn wait_until_registered(backend: &Backend, want: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while registered(backend) != want {
            assert!(
                Instant::now() < deadline,
                "{} connections still registered, want {want}",
                registered(backend)
            );
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn closed_connections_leave_the_registry() {
        let mut builder = IndexBuilder::new();
        builder
            .add("cheap used books", AdInfo::with_bid(1, 25))
            .unwrap();
        let runtime =
            ServeRuntime::start(Arc::new(builder.build().unwrap()), ServeConfig::default());
        let backend = Backend::bind("127.0.0.1:0", Arc::new(runtime), BackendConfig::default())
            .expect("bind loopback");

        for i in 0..50 {
            let mut conn = TcpStream::connect(backend.local_addr()).expect("connect");
            let reply = call(&mut conn, &Request::Health, i).expect("health");
            assert!(matches!(reply, Response::Health { .. }));
        }
        wait_until_registered(&backend, 0);

        // The backend still serves, and tracks the one live connection.
        let mut conn = TcpStream::connect(backend.local_addr()).expect("connect");
        let req = Request::Query {
            text: "cheap used books online".into(),
            match_type: MatchType::Broad,
        };
        let Response::Query(reply) = call(&mut conn, &req, 50).expect("query") else {
            panic!("expected a query reply");
        };
        assert_eq!(reply.hits.len(), 1);
        assert_eq!(registered(&backend), 1);
        drop(conn);
        wait_until_registered(&backend, 0);
    }
}

//! Replica update shipping: replay the primary's op log locally.
//!
//! A read replica starts from the same base index as its primary (same
//! corpus, same build), then a [`ReplicaSyncer`] thread polls the
//! primary's `OplogSubscribe` wire op from its last applied sequence and
//! replays each [`UpdateOp`] through its local runtime's delta overlay.
//! The shipped log is the primary runtime's own op log
//! ([`ServeRuntime::log_since`]), sequenced under the lock that commits
//! each mutation, so it is in commit order even under concurrent writers.
//! Because the overlay applies operations deterministically, *same base +
//! same op prefix ⇒ identical answers* — the partition tests assert this
//! bit-for-bit against the primary and a fresh single-threaded rebuild.
//!
//! The primary's op log is append-only relative to the base its runtime
//! started from, so a replica (re)started from that base can always
//! catch up from sequence 0, even across primary compactions (folding
//! the overlay changes the primary's *internal* representation, not its
//! answers, and the log is not truncated). An insert's acknowledged
//! `seq` is the primary's log head once the insert committed — at or
//! after the insert's own sequence — so [`ReplicaSyncer::wait_for_seq`]
//! on it is a read-your-write wait.
//!
//! The syncer is deliberately pull-based: a poll loop with a reconnect
//! path is trivially correct under partitions — the replica just lags
//! (visible as `net_replica_lag_ops`) and drains the backlog when the
//! primary returns.

use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use broadmatch_serve::{ServeRuntime, UpdateOp};

use crate::metrics::ReplicaMetrics;
use crate::server::call;
use crate::wire::{Request, Response};

/// Replica polling knobs.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Delay between polls when caught up (a non-empty batch polls again
    /// immediately).
    pub poll_interval: Duration,
    /// Max ops fetched per poll.
    pub batch_size: u32,
    /// Socket read timeout / connect timeout toward the primary.
    pub io_timeout: Duration,
}

impl Default for ReplicaConfig {
    fn default() -> Self {
        ReplicaConfig {
            poll_interval: Duration::from_millis(5),
            batch_size: 256,
            io_timeout: Duration::from_millis(250),
        }
    }
}

struct SyncShared {
    stop: AtomicBool,
    applied_seq: AtomicU64,
}

/// A background thread keeping a local runtime caught up with a primary.
pub struct ReplicaSyncer {
    shared: Arc<SyncShared>,
    thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for ReplicaSyncer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicaSyncer")
            .field("applied_seq", &self.applied_seq())
            .finish_non_exhaustive()
    }
}

impl ReplicaSyncer {
    /// Start syncing `replica` from the backend at `primary`, beginning
    /// at op-log sequence `from_seq` (0 for a replica built from the
    /// primary's initial base). Metric families register into the
    /// replica runtime's registry.
    ///
    /// # Errors
    /// Propagates a failure to spawn the sync thread.
    pub fn start(
        primary: SocketAddr,
        replica: Arc<ServeRuntime>,
        from_seq: u64,
        config: ReplicaConfig,
    ) -> std::io::Result<ReplicaSyncer> {
        let metrics = ReplicaMetrics::register(replica.registry());
        let shared = Arc::new(SyncShared {
            stop: AtomicBool::new(false),
            applied_seq: AtomicU64::new(from_seq),
        });
        let loop_shared = Arc::clone(&shared);
        let thread = std::thread::Builder::new()
            .name("net-replica-sync".into())
            .spawn(move || sync_loop(primary, &replica, &config, &metrics, &loop_shared))?;
        Ok(ReplicaSyncer {
            shared,
            thread: Some(thread),
        })
    }

    /// Last op-log sequence applied locally.
    pub fn applied_seq(&self) -> u64 {
        // ORDER: Relaxed — monotonic progress counter for observers; the
        // ops themselves are published by the runtime's own locks.
        self.shared.applied_seq.load(Ordering::Relaxed)
    }

    /// Block until the local runtime has applied through `seq` or
    /// `timeout` elapses; true when caught up.
    pub fn wait_for_seq(&self, seq: u64, timeout: Duration) -> bool {
        let t0 = std::time::Instant::now();
        while self.applied_seq() < seq {
            if t0.elapsed() > timeout {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Stop the sync thread and join it. Idempotent.
    pub fn shutdown(&mut self) {
        // ORDER: SeqCst — must be visible to the poll loop before join.
        self.shared.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicaSyncer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn sync_loop(
    primary: SocketAddr,
    replica: &Arc<ServeRuntime>,
    config: &ReplicaConfig,
    metrics: &ReplicaMetrics,
    shared: &Arc<SyncShared>,
) {
    let mut conn: Option<TcpStream> = None;
    let mut first_attach = true;
    // ORDER: SeqCst — pairs with the store in shutdown().
    while !shared.stop.load(Ordering::SeqCst) {
        let stream = match conn.take() {
            Some(s) => Some(s),
            None => {
                let dialed = TcpStream::connect_timeout(&primary, config.io_timeout)
                    .and_then(|s| {
                        s.set_read_timeout(Some(config.io_timeout))?;
                        s.set_nodelay(true)?;
                        Ok(s)
                    })
                    .ok();
                if dialed.is_some() && !first_attach {
                    metrics.reconnects_total.inc();
                }
                if dialed.is_some() {
                    first_attach = false;
                }
                dialed
            }
        };
        let Some(mut stream) = stream else {
            std::thread::sleep(config.poll_interval);
            continue;
        };

        // ORDER: Relaxed — only this thread writes applied_seq.
        let from_seq = shared.applied_seq.load(Ordering::Relaxed);
        let req = Request::OplogSubscribe {
            from_seq,
            max_ops: config.batch_size,
        };
        match call(&mut stream, &req, from_seq) {
            Ok(Response::Oplog {
                ops,
                next_seq,
                head_seq,
                base_epoch: _,
            }) => {
                let caught_up = ops.is_empty();
                for op in ops {
                    apply_op(replica, &op);
                    metrics.ops_applied_total.inc();
                }
                // ORDER: Relaxed — progress counter; see applied_seq().
                shared.applied_seq.store(next_seq, Ordering::Relaxed);
                metrics
                    .lag_ops
                    .set(head_seq.saturating_sub(next_seq) as f64);
                conn = Some(stream);
                if caught_up {
                    std::thread::sleep(config.poll_interval);
                }
            }
            Ok(_) => {
                // Protocol confusion: drop the connection and redial.
                std::thread::sleep(config.poll_interval);
            }
            Err(_) => {
                // Primary unreachable or mid-restart: back off, redial.
                std::thread::sleep(config.poll_interval);
            }
        }
    }
}

/// Replay one shipped op against the local runtime. Insert failures are
/// impossible for ops the primary accepted (same validation), but are
/// swallowed rather than crash the sync thread.
fn apply_op(replica: &Arc<ServeRuntime>, op: &UpdateOp) {
    match op {
        UpdateOp::Insert { phrase, info } => {
            let _ = replica.insert(phrase, *info);
        }
        UpdateOp::Remove { phrase, listing_id } => {
            let _ = replica.remove(phrase, *listing_id);
        }
    }
}

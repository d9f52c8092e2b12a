//! Model-checked ports of this crate's four riskiest concurrency
//! protocols, driven by `conccheck` (see DESIGN.md §"Correctness
//! tooling").
//!
//! Each protocol is rewritten against the `conccheck::sync` facade with
//! its memory effects made explicit (refcounts and liveness as model
//! atomics), in both the shipped shape and deliberately weakened
//! variants:
//!
//! 1. **ArcSwap reclamation** (`arcswap.rs`): readers announce, read the
//!    pointer, secure a reference, retire; the writer swaps and spins for
//!    `readers == 0` before dropping the old snapshot. The announce/swap
//!    pair is a store-buffering (Dekker) shape, so `SeqCst` is load-
//!    bearing: the weakened acquire/release variant exhibits use-after-
//!    free, which is the machine-checked verdict recorded in DESIGN.md.
//! 2. **Overlay republish** (`runtime.rs` publish path): generation
//!    fields are plain writes published by one atomic store; readers must
//!    never see a torn generation, and per-reader versions must be
//!    monotone. Needs release/acquire; the relaxed variant tears.
//! 3. **base_epoch fold-vs-mutation retry** (`update.rs::compact`): cut
//!    the op log and snapshot under the lock, fold offline, then detect
//!    a base swap via the epoch and retry, replaying the log suffix.
//!    Skipping the replay loses racing inserts; skipping the epoch check
//!    lets a stale fold clobber a concurrent publish.
//! 4. **Admission gate** (`runtime.rs::Gate`): callers take one of
//!    `n_workers` slots, wait while the wait line has room, and are
//!    refused past it; releasing a slot wakes one waiter. Running must
//!    never exceed `n_workers` and every admitted caller must finish.
//!    Releasing without `notify_one` strands a waiter (deadlock); waking
//!    without re-checking the slot count lets a barging caller and the
//!    woken waiter both run.
//!
//! In normal builds the facade is `std`, so every *correct* model here
//! still runs as a plain stress test; the weakened variants only execute
//! (and must fail) under `RUSTFLAGS="--cfg conccheck"`. Run the real
//! exploration with:
//!
//! ```text
//! RUSTFLAGS="--cfg conccheck" cargo test -p broadmatch-serve --test conccheck_models
//! ```

use conccheck::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use conccheck::sync::{Arc, Condvar, Mutex};
use conccheck::{thread, Opts};

/// The cell orderings under test. The shipped code uses `SeqCst` for all
/// of them; the weakened variant is the strongest non-SC assignment.
#[derive(Clone, Copy)]
struct CellOrds {
    /// `readers` fetch_add/fetch_sub and the `ptr` swap.
    rmw: Ordering,
    /// `ptr` and `readers` plain loads.
    load: Ordering,
}

const SHIPPED: CellOrds = CellOrds {
    // ORDER: mirrors arcswap.rs — the announce/swap protocol is a Dekker
    // shape and needs a single total order (see model verdicts below).
    rmw: Ordering::SeqCst,
    load: Ordering::SeqCst,
};

const WEAKENED: CellOrds = CellOrds {
    // ORDER: deliberately wrong — strongest non-SeqCst assignment, which
    // the checker must prove insufficient (store-buffering reordering).
    rmw: Ordering::AcqRel,
    load: Ordering::Acquire,
};

// ---------------------------------------------------------------------------
// Model 1: ArcSwap load/store/reclamation.
// ---------------------------------------------------------------------------

/// One heap snapshot: its `Arc` strong count plus a free flag. The flag is
/// only ever accessed with RMWs, which read the latest value in
/// modification order — i.e. it models the *actual* state of the
/// allocation, not any thread's stale view of it.
struct Slot {
    rc: AtomicUsize,
    freed: AtomicU64,
}

impl Slot {
    fn new(rc: usize) -> Self {
        Slot {
            rc: AtomicUsize::new(rc),
            // ORDER: n/a — initial value, published by thread spawn.
            freed: AtomicU64::new(0),
        }
    }

    /// `Arc::increment_strong_count` (and any later use of the payload):
    /// touching a freed allocation is the bug the model hunts.
    fn assert_alive(&self, who: &str) {
        // ORDER: RMW purely to read the latest modification-order value
        // (real memory state); the flag itself carries no synchronization.
        assert_eq!(
            self.freed.fetch_add(0, Ordering::Relaxed),
            0,
            "use-after-free: {who} touched a freed snapshot"
        );
    }

    /// Drop one strong reference; free the allocation when it was the
    /// last. Mirrors std `Arc`: relaxed increments, AcqRel decrement.
    fn drop_ref(&self) {
        // ORDER: AcqRel mirrors std Arc's release decrement + acquire on
        // the last-reference path, so the freeing thread sees all uses.
        if self.rc.fetch_sub(1, Ordering::AcqRel) == 1 {
            // ORDER: RMW latest-value read again; detects double free.
            assert_eq!(
                self.freed.fetch_add(1, Ordering::Relaxed),
                0,
                "double free of a snapshot"
            );
        }
    }
}

/// The ArcSwap protocol verbatim (arcswap.rs), with `Arc<T>` pointers
/// replaced by slot indices and refcount/liveness made explicit.
fn arcswap_model(ords: CellOrds, n_readers: usize) {
    // Slot 0 is the initial snapshot (one reference: the cell's); slot 1
    // is the writer's replacement.
    let slots = Arc::new(vec![Slot::new(1), Slot::new(1)]);
    let ptr = Arc::new(AtomicUsize::new(0));
    let readers = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for r in 0..n_readers {
        let (slots, ptr, rd) = (Arc::clone(&slots), Arc::clone(&ptr), Arc::clone(&readers));
        handles.push(thread::spawn(move || {
            // load(): announce, read pointer, secure, retire.
            rd.fetch_add(1, ords.rmw);
            let i = ptr.load(ords.load);
            slots[i].assert_alive("reader securing");
            // ORDER: Relaxed mirrors Arc::increment_strong_count (a live
            // reference already pins the count above zero).
            slots[i].rc.fetch_add(1, Ordering::Relaxed);
            rd.fetch_sub(1, ords.rmw);
            // ...the reader now uses its snapshot for a while...
            slots[i].assert_alive(&format!("reader {r} using snapshot"));
            slots[i].drop_ref();
        }));
    }

    let (slots_w, ptr_w, rd_w) = (Arc::clone(&slots), Arc::clone(&ptr), Arc::clone(&readers));
    let writer = thread::spawn(move || {
        // store(): swap, spin out the announce window, drop the old ref.
        let old = ptr_w.swap(1, ords.rmw);
        while rd_w.load(ords.load) != 0 {
            conccheck::hint::spin_loop();
        }
        slots_w[old].drop_ref();
    });

    for h in handles {
        h.join().unwrap();
    }
    writer.join().unwrap();

    // Tear down the cell itself, then audit: every slot freed exactly once.
    let live = ptr.load(Ordering::SeqCst);
    slots[live].drop_ref();
    for (i, s) in slots.iter().enumerate() {
        // ORDER: RMW latest-value read (see assert_alive).
        assert_eq!(
            s.freed.fetch_add(0, Ordering::Relaxed),
            1,
            "slot {i} not freed exactly once"
        );
    }
}

#[test]
fn arcswap_seqcst_passes_randomized() {
    conccheck::check("arcswap-seqcst", &Opts::from_env(64), || {
        arcswap_model(SHIPPED, 2)
    })
    .assert_pass();
}

#[test]
fn arcswap_seqcst_passes_dfs() {
    // Smallest configuration, exhaustively (up to the schedule cap).
    let mut opts = Opts::from_env(64);
    opts.engine.max_schedules = 50_000;
    conccheck::check_dfs("arcswap-seqcst-dfs", &opts, || arcswap_model(SHIPPED, 1)).assert_pass();
}

/// The DESIGN.md verdict: weakening the cell below SeqCst admits the
/// store-buffering reordering of the reader's announce against the
/// writer's readers-check, and the checker exhibits the use-after-free.
#[test]
fn arcswap_weakened_fails_under_checker() {
    let bug = conccheck::find_bug("arcswap-acqrel", &Opts::from_env(64), || {
        arcswap_model(WEAKENED, 1)
    });
    if conccheck::enabled() {
        let bug = bug.expect("acquire/release ArcSwap must exhibit use-after-free");
        assert!(
            bug.message.contains("use-after-free") || bug.message.contains("double free"),
            "unexpected counterexample: {bug}"
        );
        assert!(bug.seed.is_some(), "counterexample must carry its seed");
    }
}

// ---------------------------------------------------------------------------
// Model 2: CoW overlay republish + reader snapshot consistency.
// ---------------------------------------------------------------------------

/// A generation as the runtime publishes it: several plain fields made
/// visible by one atomic index store (the ArcSwap pointer in real code).
struct GenSlot {
    version: AtomicU64,
    payload: AtomicU64,
}

/// `publish` is the ordering on the generation-index store, `read` on the
/// reader's index load. The shipped path is SeqCst on both (via ArcSwap).
fn republish_model(publish: Ordering, read: Ordering, n_readers: usize, n_gens: u64) {
    let slots: Arc<Vec<GenSlot>> = Arc::new(
        (0..=n_gens)
            .map(|g| GenSlot {
                // Generation 0 is pre-published (spawn publishes it).
                version: AtomicU64::new(if g == 0 { 0 } else { u64::MAX }),
                payload: AtomicU64::new(if g == 0 { 1 } else { u64::MAX }),
            })
            .collect(),
    );
    let cur = Arc::new(AtomicUsize::new(0));

    let mut handles = Vec::new();
    for _ in 0..n_readers {
        let (slots, cur) = (Arc::clone(&slots), Arc::clone(&cur));
        handles.push(thread::spawn(move || {
            let mut last = 0u64;
            for _ in 0..2 {
                let i = cur.load(read);
                // ORDER: Relaxed on the fields is the point under test —
                // all ordering must come from the index load above.
                let v = slots[i].version.load(Ordering::Relaxed);
                let p = slots[i].payload.load(Ordering::Relaxed);
                assert_eq!(v as usize, i, "torn generation: stale version");
                assert_eq!(p, v * 7 + 1, "torn generation: stale payload");
                assert!(v >= last, "snapshot version went backwards");
                last = v;
            }
        }));
    }

    let (slots_p, cur_p) = (Arc::clone(&slots), Arc::clone(&cur));
    let publisher = thread::spawn(move || {
        for g in 1..=n_gens {
            // Build the generation with plain (relaxed) writes...
            // ORDER: Relaxed on purpose — publication safety must come
            // from the index store below, exactly like the real CoW
            // overlay build before the ArcSwap store.
            slots_p[g as usize].version.store(g, Ordering::Relaxed);
            slots_p[g as usize]
                .payload
                .store(g * 7 + 1, Ordering::Relaxed);
            // ...then make it visible with one atomic store.
            cur_p.store(g as usize, publish);
        }
    });

    for h in handles {
        h.join().unwrap();
    }
    publisher.join().unwrap();
}

#[test]
fn republish_release_acquire_passes_randomized() {
    conccheck::check("republish-relacq", &Opts::from_env(64), || {
        republish_model(Ordering::Release, Ordering::Acquire, 2, 2)
    })
    .assert_pass();
}

#[test]
fn republish_seqcst_passes_dfs() {
    let mut opts = Opts::from_env(64);
    opts.engine.max_schedules = 50_000;
    conccheck::check_dfs("republish-seqcst-dfs", &opts, || {
        republish_model(Ordering::SeqCst, Ordering::SeqCst, 1, 1)
    })
    .assert_pass();
}

/// Relaxed publication lets a reader observe the new index before the
/// generation's fields: a torn snapshot.
#[test]
fn republish_relaxed_fails_under_checker() {
    let bug = conccheck::find_bug("republish-relaxed", &Opts::from_env(64), || {
        republish_model(Ordering::Relaxed, Ordering::Relaxed, 1, 1)
    });
    if conccheck::enabled() {
        let bug = bug.expect("relaxed republish must tear");
        assert!(bug.message.contains("torn generation"), "{bug}");
    }
}

// ---------------------------------------------------------------------------
// Model 3: op-log base_epoch fold-vs-mutation retry (update.rs::compact).
// ---------------------------------------------------------------------------

/// The generation packed into one atomic word (publication atomicity is
/// ArcSwap's job — model 1): base mask | overlay mask | epoch.
const OVERLAY_SHIFT: u64 = 16;
const EPOCH_SHIFT: u64 = 32;
/// An "external publish" swaps in a new base carrying this bit.
const MARKER: u64 = 1 << 15;

fn pack(base: u64, overlay: u64, epoch: u64) -> u64 {
    base | (overlay << OVERLAY_SHIFT) | (epoch << EPOCH_SHIFT)
}

fn unpack(g: u64) -> (u64, u64, u64) {
    (g & 0xFFFF, (g >> OVERLAY_SHIFT) & 0xFFFF, g >> EPOCH_SHIFT)
}

/// The compact() protocol with its two guards toggleable. Ads are bits;
/// folding ORs the overlay into the base; the op log is the update mutex's
/// append-only `Vec`, exactly like `Inner::log`: folds cut it by position
/// and never clear it, and the epoch lives only in the generation word.
fn base_epoch_model(check_epoch: bool, replay_log: bool) {
    let gen = Arc::new(AtomicU64::new(pack(0, 0, 0)));
    let log: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

    // Writer: two inserts, each logged and republished onto the current
    // base (insert() in update.rs: log the op, republish same base with
    // the op applied to a cloned overlay).
    let (gen_i, log_i) = (Arc::clone(&gen), Arc::clone(&log));
    let inserter = thread::spawn(move || {
        for bit in [1u64, 2] {
            let mut st = log_i.lock().unwrap();
            st.push(bit);
            // ORDER: SeqCst mirrors the real snapshot load/store through
            // ArcSwap; mutation of gen only ever happens under the lock.
            let (b, o, e) = unpack(gen_i.load(Ordering::SeqCst));
            gen_i.store(pack(b, o | bit, e), Ordering::SeqCst);
            drop(st);
        }
    });

    // An epoch-bumping base swap racing the fold (a foreground publish or
    // competing compaction): swaps in a new base (MARKER) and bumps the
    // epoch, invalidating any fold cut against the old base.
    let (gen_p, log_p) = (Arc::clone(&gen), Arc::clone(&log));
    let publisher = thread::spawn(move || {
        let st = log_p.lock().unwrap();
        // ORDER: as above — gen mutations are lock-serialized SeqCst.
        let (b, o, e) = unpack(gen_p.load(Ordering::SeqCst));
        gen_p.store(pack(b | MARKER, o, e + 1), Ordering::SeqCst);
        drop(st);
    });

    // The compactor: compact()'s cut → offline fold → epoch check →
    // replay → publish loop.
    let (gen_c, log_c) = (Arc::clone(&gen), Arc::clone(&log));
    let compactor = thread::spawn(move || {
        loop {
            let (cut, g0) = {
                let st = log_c.lock().unwrap();
                // ORDER: snapshot read under the lock, as in compact().
                (st.len(), gen_c.load(Ordering::SeqCst))
            };
            let (b0, o0, e0) = unpack(g0);
            if o0 == 0 {
                return; // overlay empty: nothing to fold
            }
            // The offline fold, lock released — the race window.
            thread::yield_now();
            let folded_base = b0 | o0;

            let st = log_c.lock().unwrap();
            let (_bc, _oc, ec) = unpack(gen_c.load(Ordering::SeqCst));
            if check_epoch && ec != e0 {
                drop(st);
                continue; // base swapped under the fold: re-cut, retry
            }
            let replayed = if replay_log {
                st[cut..].iter().fold(0u64, |acc, b| acc | b)
            } else {
                0
            };
            gen_c.store(pack(folded_base, replayed, ec + 1), Ordering::SeqCst);
            return;
        }
    });

    inserter.join().unwrap();
    publisher.join().unwrap();
    compactor.join().unwrap();

    // Every insert and the external publish survive, in base or overlay.
    let (b, o, _e) = unpack(gen.load(Ordering::SeqCst));
    let live = b | o;
    assert_eq!(live & 1, 1, "insert #1 lost by compaction");
    assert_eq!(live & 2, 2, "insert #2 lost by compaction");
    assert_eq!(
        live & MARKER,
        MARKER,
        "external publish clobbered by stale fold"
    );
}

#[test]
fn base_epoch_protocol_passes_randomized() {
    conccheck::check("base-epoch", &Opts::from_env(64), || {
        base_epoch_model(true, true)
    })
    .assert_pass();
}

/// Dropping the log replay loses inserts that raced the offline fold.
#[test]
fn base_epoch_without_replay_fails_under_checker() {
    let bug = conccheck::find_bug("base-epoch-no-replay", &Opts::from_env(64), || {
        base_epoch_model(true, false)
    });
    if conccheck::enabled() {
        let bug = bug.expect("skipping the log replay must lose an insert");
        assert!(bug.message.contains("lost by compaction"), "{bug}");
    }
}

/// Dropping the epoch check lets a fold cut against a superseded base
/// clobber a concurrent publish.
#[test]
fn base_epoch_without_check_fails_under_checker() {
    let bug = conccheck::find_bug("base-epoch-no-check", &Opts::from_env(64), || {
        base_epoch_model(false, true)
    });
    if conccheck::enabled() {
        let bug = bug.expect("skipping the epoch check must clobber a publish");
        assert!(bug.message.contains("clobbered"), "{bug}");
    }
}

// ---------------------------------------------------------------------------
// Model 4: the admission gate (runtime.rs::Gate).
// ---------------------------------------------------------------------------

/// The gate verbatim: `(running, waiting)` under one mutex, a condvar for
/// freed slots. `notify` and `recheck` toggle the two load-bearing steps.
struct GateModel {
    state: Mutex<(usize, usize)>,
    freed: Condvar,
    n_workers: usize,
    queue_capacity: usize,
    notify: bool,
    recheck: bool,
}

impl GateModel {
    /// `Gate::admit`: true when a slot was taken, false when refused.
    fn admit(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        if st.0 >= self.n_workers {
            if st.1 >= self.queue_capacity {
                return false;
            }
            st.1 += 1;
            if self.recheck {
                while st.0 >= self.n_workers {
                    st = self.freed.wait(st).unwrap();
                }
            } else {
                st = self.freed.wait(st).unwrap();
            }
            st.1 -= 1;
        }
        st.0 += 1;
        assert!(st.0 <= self.n_workers, "running exceeded n_workers");
        true
    }

    /// `Slot::drop`.
    fn release(&self) {
        self.state.lock().unwrap().0 -= 1;
        if self.notify {
            self.freed.notify_one();
        }
    }
}

/// `callers` callers against one slot and a one-caller wait line. Each
/// caller that gets in marks itself executing in a model atomic (the
/// query's work, outside the gate's lock) and checks the bound there.
fn gate_model(callers: usize, notify: bool, recheck: bool) {
    let gate = Arc::new(GateModel {
        state: Mutex::new((0, 0)),
        freed: Condvar::new(),
        n_workers: 1,
        queue_capacity: 1,
        notify,
        recheck,
    });
    let executing = Arc::new(AtomicUsize::new(0));
    let handles: Vec<_> = (0..callers)
        .map(|_| {
            let (gate, executing) = (Arc::clone(&gate), Arc::clone(&executing));
            thread::spawn(move || {
                if !gate.admit() {
                    return false;
                }
                // ORDER: SeqCst — a plain occupancy count; exclusion must
                // come from the gate, not from this counter's ordering.
                let now = executing.fetch_add(1, Ordering::SeqCst) + 1;
                assert!(now <= gate.n_workers, "running exceeded n_workers");
                // ORDER: SeqCst — as above.
                executing.fetch_sub(1, Ordering::SeqCst);
                gate.release();
                true
            })
        })
        .collect();
    let admitted = handles
        .into_iter()
        .map(|h| h.join().unwrap())
        .filter(|&ran| ran)
        .count();
    // The first caller always gets in; a refusal needs a full wait line.
    assert!(admitted >= 1, "no caller was admitted");
    let st = gate.state.lock().unwrap();
    assert_eq!(*st, (0, 0), "slot or wait-line count leaked");
}

#[test]
fn admission_gate_passes_randomized() {
    conccheck::check("admission-gate", &Opts::from_env(64), || {
        gate_model(3, true, true)
    })
    .assert_pass();
}

#[test]
fn admission_gate_passes_dfs() {
    // Two callers (one runs, one waits for the handoff), depth-first up to
    // the schedule cap.
    let mut opts = Opts::from_env(64);
    opts.engine.max_schedules = 5_000;
    conccheck::check_dfs("admission-gate-dfs", &opts, || gate_model(2, true, true)).assert_pass();
}

/// A release that never notifies strands the caller waiting in line: every
/// live thread ends up blocked.
#[test]
fn admission_gate_without_notify_fails_under_checker() {
    let bug = conccheck::find_bug("admission-gate-no-notify", &Opts::from_env(64), || {
        gate_model(3, false, true)
    });
    if conccheck::enabled() {
        let bug = bug.expect("a release without notify_one must strand a waiter");
        assert!(bug.message.contains("deadlock"), "{bug}");
    }
}

/// A woken waiter that takes the slot without re-checking races a caller
/// that barged in between the release and the wake-up: two run at once.
#[test]
fn admission_gate_without_recheck_fails_under_checker() {
    let bug = conccheck::find_bug("admission-gate-no-recheck", &Opts::from_env(64), || {
        gate_model(3, true, false)
    });
    if conccheck::enabled() {
        let bug = bug.expect("waking without a re-check must over-admit");
        assert!(bug.message.contains("exceeded n_workers"), "{bug}");
    }
}

// ---------------------------------------------------------------------------
// Determinism contract (acceptance criterion): a seed replays to an
// identical trace.
// ---------------------------------------------------------------------------

#[test]
fn model_seeds_replay_identically() {
    let opts = Opts::from_env(64);
    for seed in [0u64, 1, 7, 42] {
        let a = conccheck::replay(&opts, seed, || arcswap_model(SHIPPED, 2));
        let b = conccheck::replay(&opts, seed, || arcswap_model(SHIPPED, 2));
        assert_eq!(a, b, "seed {seed} did not replay identically");
        if conccheck::enabled() {
            assert!(!a.is_empty(), "instrumented replay must record a trace");
        }
    }
    // Exploration is seed-indexed: distinct seeds give distinct schedules.
    if conccheck::enabled() {
        let mut distinct = std::collections::HashSet::new();
        for seed in 0..16u64 {
            distinct.insert(conccheck::replay(&opts, seed, || arcswap_model(SHIPPED, 2)));
        }
        assert!(distinct.len() > 1, "all seeds produced one interleaving");
    }
}

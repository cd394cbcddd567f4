//! Workload drivers, one per experiment family.

use std::sync::Arc;

use wfrc_baselines::Lf;
use wfrc_core::counters::{CounterSnapshot, LeaseSnapshot};
use wfrc_core::lease::{LeaseConfig, LeasePool};
use wfrc_core::{Domain, RawBytes, RcObject, ReclaimOutcome, Scheme, Wf};
use wfrc_sim::exec::{run_fixed_ops, StopFlag};
use wfrc_sim::latency::Histogram;
use wfrc_sim::rng::SmallRng;
use wfrc_sim::Supervisor;
use wfrc_structures::hash_map::{SessionCache, SessionMm};
use wfrc_structures::manager::{ByteMm, RcMm, RcMmDomain};
use wfrc_structures::ordered_list::ListCell;

use crate::RunResult;

fn merge_counters(parts: Vec<(u64, CounterSnapshot)>) -> (u64, CounterSnapshot) {
    parts
        .into_iter()
        .fold((0, CounterSnapshot::default()), |(ops, acc), (o, c)| {
            (ops + o, acc.merged(&c))
        })
}

/// The result of a run whose workers each returned `(ops, counters)`.
fn run_result(
    threads: usize,
    parts: Vec<(u64, CounterSnapshot)>,
    wall: std::time::Duration,
) -> RunResult {
    let (total_ops, counters) = merge_counters(parts);
    RunResult {
        threads,
        total_ops,
        wall,
        counters,
    }
}

/// The E4 fixture: a hot link flipping between two nodes. The experiment
/// owns one *standing* count on each node for its whole duration, so
/// neither can ever be reclaimed, a blind `add_refs` on the off-link node is
/// always safe, and the unprotected baseline's plain load is sound.
struct FlipFixture<T: wfrc_core::RcObject, M: RcMm<T>> {
    setup: M,
    link: Arc<wfrc_core::Link<T>>,
    a: *mut wfrc_core::Node<T>,
    b: *mut wfrc_core::Node<T>,
}

impl<T: wfrc_core::RcObject, M: RcMm<T>> FlipFixture<T, M> {
    fn new(setup: M) -> Self {
        let link = Arc::new(wfrc_core::Link::<T>::null());
        let a = setup.alloc_node().expect("node a");
        let b = setup.alloc_node().expect("node b");
        // SAFETY: we own the alloc references; store transfers one count
        // into the link, so `a` gets a second count first.
        unsafe {
            setup.add_refs(a, 1);
            setup.store_link(&link, a);
        }
        Self { setup, link, a, b }
    }

    /// Clears the link (releasing its count on whichever node it ended on),
    /// then drops the standing counts. Quiescent: all workers joined.
    fn teardown(self) {
        // SAFETY: quiescent per contract; the counts are the fixture's own.
        unsafe {
            let cur = self.link.swap_raw(std::ptr::null_mut());
            if !cur.is_null() {
                self.setup.release_node(cur);
            }
            self.setup.release_node(self.a);
            self.setup.release_node(self.b);
        }
    }
}

/// Ops between pin sessions on the snapshot read path: long enough that
/// the per-session epoch bump and pin-bit write amortize to nothing, short
/// enough that writers' deferred frees are never starved for a grace edge.
const SNAPSHOT_REPIN: u64 = 1024;

/// E4: one reader dereferencing a hot link while `writers` threads flip it
/// between two nodes. Returns the run result (reader ops and the reader's
/// counters only — their `max_deref_retries` is the paper's unboundedness
/// claim made visible) and the reader's per-op latency histogram.
///
/// With `snapshot` the reader uses the pinned plain-load snapshot path
/// (DESIGN.md §4f) instead of counted dereferences — one pin per
/// `SNAPSHOT_REPIN` ops, zero count FAAs and zero announcement-slot
/// writes per read. For schemes without protected snapshots (the LFRC
/// baseline's no-op pin, `SNAPSHOT_PROTECTED == false`) the plain load
/// is safe only because the experiment's standing counts pin both nodes
/// for the whole run — which is exactly the comparison E4 wants: the
/// identical reader instruction sequence with and without the protection
/// machinery, under identical writer interference.
pub fn run_deref_interference<D, T>(
    domain: Arc<D>,
    writers: usize,
    reader_ops: u64,
    snapshot: bool,
) -> (RunResult, Histogram)
where
    T: wfrc_core::RcObject + Default,
    D: RcMmDomain<T> + Send + Sync + 'static,
{
    if snapshot {
        deref_interference::<D, T, true>(domain, writers, reader_ops)
    } else {
        deref_interference::<D, T, false>(domain, writers, reader_ops)
    }
}

/// Both E4 read modes; `SNAPSHOT` picks the reader's dereference at compile
/// time, so neither timed loop carries the other's branch.
fn deref_interference<D, T, const SNAPSHOT: bool>(
    domain: Arc<D>,
    writers: usize,
    reader_ops: u64,
) -> (RunResult, Histogram)
where
    T: wfrc_core::RcObject + Default,
    D: RcMmDomain<T> + Send + Sync + 'static,
{
    let fx = FlipFixture::new(domain.register_mm().expect("register"));
    let (a_addr, b_addr) = (fx.a as usize, fx.b as usize);
    let stop = Arc::new(StopFlag::new());

    // Writers flip the link between a and b for the reader's whole run.
    let writer_handles: Vec<_> = (0..writers)
        .map(|_| {
            let domain = Arc::clone(&domain);
            let link = Arc::clone(&fx.link);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let h = domain.register_mm().expect("register");
                while !stop.is_stopped() {
                    flip(&h, &link, a_addr, b_addr);
                }
            })
        })
        .collect();

    let reader = {
        let domain = Arc::clone(&domain);
        let link = Arc::clone(&fx.link);
        std::thread::spawn(move || {
            let h = domain.register_mm().expect("register");
            let mut hist = Histogram::new();
            let start = std::time::Instant::now();
            let mut since_pin = 0u64;
            if SNAPSHOT {
                h.snapshot_enter();
            }
            for _ in 0..reader_ops {
                let t0 = std::time::Instant::now();
                // SAFETY: the link holds nodes of this domain. A snapshot
                // load is protected by the pin session under the wait-free
                // scheme and by the standing counts under the baseline.
                unsafe {
                    if SNAPSHOT {
                        let p = h.snapshot_load(&link);
                        if !p.is_null() {
                            std::hint::black_box(h.payload(p));
                        }
                    } else {
                        let p = h.deref_link(&link);
                        if !p.is_null() {
                            h.release_node(p);
                        }
                    }
                }
                hist.record(t0.elapsed().as_nanos() as u64);
                since_pin += 1;
                if SNAPSHOT && since_pin == SNAPSHOT_REPIN {
                    // SAFETY: pairs the live session; re-entered at once.
                    unsafe { h.snapshot_exit() };
                    h.snapshot_enter();
                    since_pin = 0;
                }
            }
            if SNAPSHOT {
                // SAFETY: pairs the live session.
                unsafe { h.snapshot_exit() };
            }
            (start.elapsed(), hist, h.counter_snapshot())
        })
    };
    let (wall, hist, counters) = reader.join().unwrap();
    stop.stop();
    for w in writer_handles {
        w.join().unwrap();
    }
    fx.teardown();
    let result = RunResult {
        threads: writers + 1,
        total_ops: reader_ops,
        wall,
        counters,
    };
    (result, hist)
}

/// E4 (write path, zero-announcer): `writers` threads flip a hot link
/// between two standing nodes via raw `CompareAndSwapLink` — never
/// dereferencing it, so no announcement is ever live. Every obligatory
/// `HelpDeRef` therefore runs against an empty announcement table, which is
/// the common case the presence-summary fast path targets: the measured
/// throughput is the §3.2 write-side helping overhead with nothing to help.
/// Returns the merged writer-side result; its `help_scan_skips` /
/// `help_scan_full` counters expose the fast-path hit rate.
pub fn run_write_interference<D, T>(domain: Arc<D>, writers: usize, ops: u64) -> RunResult
where
    T: wfrc_core::RcObject + Default,
    D: RcMmDomain<T> + Send + Sync + 'static,
{
    assert!(writers >= 1, "write-path mode needs at least one writer");
    let fx = FlipFixture::new(domain.register_mm().expect("register"));
    let (a_addr, b_addr) = (fx.a as usize, fx.b as usize);
    let (parts, wall) = run_fixed_ops(writers, |w| {
        let domain = Arc::clone(&domain);
        let link = Arc::clone(&fx.link);
        move || {
            let h = domain.register_mm().expect("register");
            let mut done = 0u64;
            // Stagger the starting direction so the CAS traffic mixes
            // successes and failures at every writer count.
            let (mut from, mut to) = if w % 2 == 0 {
                (a_addr, b_addr)
            } else {
                (b_addr, a_addr)
            };
            for _ in 0..ops {
                let from_p = from as *mut wfrc_core::Node<T>;
                let to_p = to as *mut wfrc_core::Node<T>;
                // SAFETY: both nodes are pinned by the standing counts; the
                // count taken on `to_p` transfers into the link on success
                // and is returned on failure.
                unsafe {
                    h.add_refs(to_p, 1);
                    if h.cas_link(&link, from_p, to_p) {
                        h.release_node(from_p); // the link's old count
                    } else {
                        h.release_node(to_p); // undo
                    }
                }
                core::mem::swap(&mut from, &mut to);
                done += 1;
            }
            (done, h.counter_snapshot())
        }
    });
    fx.teardown();
    run_result(writers, parts, wall)
}

/// One link flip with full §3.2 discipline: dereference the current node,
/// CAS to the partner, release appropriately.
fn flip<T, M>(h: &M, link: &wfrc_core::Link<T>, a_addr: usize, b_addr: usize)
where
    T: wfrc_core::RcObject,
    M: RcMm<T>,
{
    // SAFETY: standard discipline, commented inline.
    unsafe {
        let cur = h.deref_link(link);
        if cur.is_null() {
            return;
        }
        let other = if cur as usize == a_addr {
            b_addr as *mut wfrc_core::Node<T>
        } else {
            a_addr as *mut wfrc_core::Node<T>
        };
        // `other` is kept alive by the experiment's standing counts (the
        // alloc reference the teardown owns), so taking a new count is safe.
        h.add_refs(other, 1);
        if h.cas_link(link, cur, other) {
            h.release_node(cur); // the link's old count
        } else {
            h.release_node(other); // undo
        }
        h.release_node(cur); // our dereference
    }
}

/// What one reclaim pass did (see [`Elastic`]).
#[derive(Debug, Default, Clone)]
pub struct ReclaimTally {
    /// Segments retired.
    pub retired: u64,
    /// Aborted or contended attempts.
    pub aborted: u64,
    /// The reclaimer handle's counters (empty when no handle was involved).
    pub counters: CounterSnapshot,
}

/// The one scheme-specific step of the elastic experiments (E11, E12
/// `--reclaim`): giving grown segments back. The wait-free scheme reclaims
/// through a registered handle, beside live traffic if need be; the LFRC
/// baseline has no epochs, so it can only reclaim stop-the-world, with
/// `&mut` as its quiescence proof. That asymmetry is what the experiments
/// show — everything else in their drivers is written once over
/// `Domain<T, S>`.
pub trait Elastic: Scheme {
    /// Retires class `ci`'s trailing segments until none is eligible. Called
    /// with every worker gone, so both schemes can take it to the floor.
    fn reclaim_to_floor<T: RcObject>(domain: &mut Domain<T, Self>, ci: usize) -> ReclaimTally;

    /// Reclaims every byte class over and over, beside live traffic, until
    /// `stop` is raised. A scheme that cannot do that returns at once.
    fn reclaim_beside_traffic<T: RcObject>(
        domain: &Domain<T, Self>,
        stop: &StopFlag,
    ) -> ReclaimTally;
}

impl Elastic for Wf {
    fn reclaim_to_floor<T: RcObject>(domain: &mut Domain<T, Self>, ci: usize) -> ReclaimTally {
        let h = domain.register().expect("a slot for the reclaimer");
        let mut tally = ReclaimTally::default();
        let mut stalls = 0u32;
        loop {
            match h.reclaim_class(ci) {
                ReclaimOutcome::Retired { .. } => {
                    tally.retired += 1;
                    stalls = 0;
                }
                ReclaimOutcome::NoCandidate => break,
                _ => {
                    tally.aborted += 1;
                    stalls += 1;
                    if stalls > 1_000 {
                        break; // report the stall via `aborted` rather than hang
                    }
                    std::thread::yield_now();
                }
            }
        }
        tally.counters = h.counters().snapshot();
        tally
    }

    fn reclaim_beside_traffic<T: RcObject>(
        domain: &Domain<T, Self>,
        stop: &StopFlag,
    ) -> ReclaimTally {
        let h = domain.register().expect("a slot for the reclaimer");
        let mut tally = ReclaimTally::default();
        while !stop.is_stopped() {
            for ci in 0..domain.class_count() {
                match h.reclaim_class(ci) {
                    ReclaimOutcome::Retired { .. } => tally.retired += 1,
                    ReclaimOutcome::NoCandidate => {}
                    _ => tally.aborted += 1,
                }
            }
            std::thread::yield_now();
        }
        tally.counters = h.counters().snapshot();
        tally
    }
}

impl Elastic for Lf {
    fn reclaim_to_floor<T: RcObject>(domain: &mut Domain<T, Self>, ci: usize) -> ReclaimTally {
        let mut tally = ReclaimTally::default();
        while domain.reclaim_class_quiescent(ci) {
            tally.retired += 1;
        }
        tally
    }

    fn reclaim_beside_traffic<T: RcObject>(
        _domain: &Domain<T, Self>,
        _stop: &StopFlag,
    ) -> ReclaimTally {
        ReclaimTally::default()
    }
}

/// Block sizes of the domain's byte classes, in class order.
fn class_sizes<T: RcObject, S: Scheme>(domain: &Domain<T, S>) -> Vec<usize> {
    (0..domain.class_count())
        .map(|ci| domain.class_block_size(ci))
        .collect()
}

/// [`run_fixed_ops`] for workers that borrow the domain (the elastic
/// drivers need it back as `&mut` afterwards): scoped threads, released
/// together by a barrier.
fn run_scoped<R: Send>(threads: usize, worker: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let barrier = std::sync::Barrier::new(threads);
    std::thread::scope(|s| {
        let joins: Vec<_> = (0..threads)
            .map(|t| {
                let (barrier, worker) = (&barrier, &worker);
                s.spawn(move || {
                    barrier.wait();
                    worker(t)
                })
            })
            .collect();
        joins.into_iter().map(|j| j.join().unwrap()).collect()
    })
}

/// One byte class's telemetry from a mixed-size run (E11).
#[derive(Debug, Clone)]
pub struct ClassCurve {
    /// Block size of the class in bytes.
    pub size: usize,
    /// Resident segments after the workload. Segments do not shrink while
    /// their blocks are merely free, so this sample is the run's peak.
    pub peak_segments: usize,
    /// Resident segments after the quiescent reclaim pass (equals
    /// `peak_segments` without `--reclaim`).
    pub resident_after: usize,
    /// Segments retired during the pass.
    pub retired: u64,
    /// Aborted or contended attempts during the pass.
    pub aborted: u64,
}

/// The mixed-size worker loop: each op allocates a buffer a few bytes under
/// the rotating class's block size (so smallest-fit selection is exercised,
/// not just exact fits), holds the last `window` tokens as a sliding window
/// (forcing concurrent live blocks in every class, and growth when the
/// classes start under-provisioned), and verifies the first payload byte on
/// every free to catch cross-class block aliasing. Returns completed ops.
fn mixed_size_worker<M: ByteMm>(h: &M, t: usize, ops: u64, sizes: &[usize], window: usize) -> u64 {
    let max = *sizes.iter().max().expect("at least one class");
    let mut scratch = vec![0u8; max];
    let mut held: std::collections::VecDeque<(RawBytes, u8)> =
        std::collections::VecDeque::with_capacity(window);
    let verify_and_free = |tok: RawBytes, expect: u8| {
        // SAFETY: the token is live, this thread owns it, and it is freed
        // exactly once and never used again.
        unsafe {
            assert_eq!(h.value_bytes(&tok)[0], expect, "mixed-size block corrupted");
            h.free_value(tok);
        }
    };
    for i in 0..ops {
        let ci = (i as usize + t) % sizes.len();
        let len = sizes[ci] - (i as usize % 8).min(sizes[ci] - 1);
        let fill = (i as u8).wrapping_add(t as u8);
        scratch[0] = fill;
        let tok = h
            .alloc_value(&scratch[..len])
            .expect("class growth covers the window");
        if held.len() == window {
            let (old, expect) = held.pop_front().expect("window is non-empty");
            verify_and_free(old, expect);
        }
        held.push_back((tok, fill));
    }
    for (tok, expect) in held {
        verify_and_free(tok, expect);
    }
    ops
}

/// E11: mixed-size allocation across the domain's byte classes. Every
/// worker cycles through all configured classes (offset by its thread id,
/// so at any instant different threads hammer different classes and all
/// classes are hit concurrently), holding a sliding window of `window`
/// live tokens. With `reclaim` on, every class is then taken to the floor
/// ([`Elastic::reclaim_to_floor`]) and its resident segments sampled.
pub fn run_mixed_size<S: Elastic>(
    domain: &mut Domain<u64, S>,
    threads: usize,
    ops: u64,
    window: usize,
    reclaim: bool,
) -> (RunResult, Vec<ClassCurve>) {
    let sizes = class_sizes(domain);
    assert!(
        sizes.len() >= 2,
        "mixed-size run needs at least two byte classes"
    );
    assert!(window >= 1, "window must hold at least one token");
    let start = std::time::Instant::now();
    let d = &*domain;
    let parts = run_scoped(threads, |t| {
        let h = d.register().expect("register");
        let done = mixed_size_worker(&h, t, ops, &sizes, window);
        (done, h.counters().snapshot())
    });
    let (total_ops, mut counters) = merge_counters(parts);
    let curve = sizes
        .iter()
        .enumerate()
        .map(|(ci, &size)| {
            let peak_segments = domain.class_segments(ci);
            let tally = if reclaim {
                S::reclaim_to_floor(domain, ci)
            } else {
                ReclaimTally::default()
            };
            counters = counters.merged(&tally.counters);
            ClassCurve {
                size,
                peak_segments,
                resident_after: domain.class_segments(ci),
                retired: tally.retired,
                aborted: tally.aborted,
            }
        })
        .collect();
    let wall = start.elapsed();
    (
        RunResult {
            threads,
            total_ops,
            wall,
            counters,
        },
        curve,
    )
}

/// Renders a per-class resident-segment curve compactly, one
/// `size:peak→resident` entry per class.
pub fn fmt_class_curve(curve: &[ClassCurve]) -> String {
    if curve.is_empty() {
        return "-".into();
    }
    curve
        .iter()
        .map(|c| format!("{}B:{}→{}", c.size, c.peak_segments, c.resident_after))
        .collect::<Vec<_>>()
        .join(",")
}

/// What one E7 cell measured.
pub struct Fairness {
    /// Alloc/free pairs completed by each thread.
    pub per_thread: Vec<u64>,
    /// Allocations that returned `OutOfMemory`, summed over threads.
    pub failures: u64,
    /// Merged per-thread counters (`max_alloc_iters` is Lemma 9's figure).
    pub counters: CounterSnapshot,
}

/// E7: per-thread completion fairness under full allocation contention —
/// every thread alloc/frees for a fixed wall-clock window.
pub fn run_alloc_fairness<D, T>(domain: Arc<D>, threads: usize, window_ms: u64) -> Fairness
where
    T: wfrc_core::RcObject + Default,
    D: RcMmDomain<T> + Send + Sync + 'static,
{
    use std::time::Duration;
    let (parts, _) =
        wfrc_sim::exec::run_timed(threads, Duration::from_millis(window_ms), |_, stop| {
            let domain = Arc::clone(&domain);
            move || {
                let h = domain.register_mm().expect("register");
                let (mut done, mut failures) = (0u64, 0u64);
                while !stop.is_stopped() {
                    match h.alloc_node() {
                        Ok(n) => {
                            // SAFETY: we own the alloc reference.
                            unsafe { h.release_node(n) };
                            done += 1;
                        }
                        Err(_) => failures += 1,
                    }
                }
                (done, failures, h.counter_snapshot())
            }
        });
    let mut out = Fairness {
        per_thread: Vec::with_capacity(threads),
        failures: 0,
        counters: CounterSnapshot::default(),
    };
    for (done, failures, counters) in parts {
        out.per_thread.push(done);
        out.failures += failures;
        out.counters = out.counters.merged(&counters);
    }
    out
}

/// Configuration for the E12 server workload ([`run_server`]): `tasks`
/// sessions, drained by `workers` threads, multiplex over a
/// [`LeasePool`] of `slots` registration leases, each session performing
/// `ops_per_task` mixed put/get/remove operations against one shared
/// [`SessionCache`] with values drawn from the domain's byte classes.
#[derive(Debug, Clone)]
pub struct ServerCfg {
    /// Sessions to run (M, typically ≫ slots).
    pub tasks: usize,
    /// Lease-pool slots (N, the registration ceiling being virtualized).
    pub slots: usize,
    /// Worker threads draining the task set; those beyond `slots` block
    /// in [`LeasePool::acquire`] until a lease is handed to them.
    pub workers: usize,
    /// Cache operations per task.
    pub ops_per_task: u64,
    /// Key range shared by all tasks (small ⇒ real contention).
    pub keyspace: u64,
    /// Run [`Elastic::reclaim_beside_traffic`] during the measured section
    /// and [`Elastic::reclaim_to_floor`] after it.
    pub reclaim: bool,
    /// Tasks (of `tasks`) that die holding a lease: each panics mid-session
    /// with a `Killed` payload, so its guard unwinds and orphans the slot
    /// until the supervisor recovers it. Any kill starts a dedicated
    /// supervisor thread calling [`LeasePool::recover_orphaned`] for the
    /// whole measured section — the only recovery agent in the run.
    pub kill: usize,
}

/// Result of one E12 server cell.
pub struct ServerResult {
    /// Tasks drained.
    pub tasks: usize,
    /// Total completed cache operations across tasks.
    pub total_ops: u64,
    /// Wall time of the task drain.
    pub wall: std::time::Duration,
    /// Lease-checkout latency (acquire start → guard in hand), one sample
    /// per task — the queue wait under slot contention is the point.
    pub checkout: Histogram,
    /// Per-operation cache latency across all tasks.
    pub op: Histogram,
    /// Lease-pool statistics at the end of the run.
    pub lease: LeaseSnapshot,
    /// Segments retired, beside the traffic and in the teardown sweep.
    pub retired: u64,
    /// Aborted/contended reclaim attempts beside the traffic.
    pub aborted: u64,
    /// Tasks that died holding a lease (`cfg.kill` of them).
    pub killed: u64,
    /// Kill → slot-recovered latency samples (supervisor MTTR), one per
    /// recovered kill, matched FIFO against the pool's recovery counter.
    pub mttr: Histogram,
}

/// Panic payload of an E12 killer session: what it did before it died. A
/// worker catches this payload and counts the death; any other panic is a
/// failure that stops the run.
struct Killed {
    waited: u64,
    done: u64,
}

impl ServerResult {
    /// Cache operations per second over the drain wall time.
    pub fn ops_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            0.0
        } else {
            self.total_ops as f64 / self.wall.as_secs_f64()
        }
    }
}

/// The per-task op loop: a 50/30/20 put/get/remove
/// mix, value sizes rotating through the domain's byte classes (a few
/// bytes under each block size, so smallest-fit selection is exercised),
/// first payload byte verified on every hit.
///
/// Keys are striped by the leased slot: a session holding tid `stripe`
/// touches only keys `≡ stripe (mod stride)`. [`SessionCache`]'s session
/// convention requires at-most-one concurrent operator per key, and the
/// lease provides exactly that token — concurrent sessions hold distinct
/// tids (disjoint stripes), while successive holders of the same tid
/// inherit the stripe, so entries outlive the session that wrote them and
/// cross-session reclamation stays on the measured path.
/// Returns completed ops; per-op latencies land in `hist`.
#[allow(clippy::too_many_arguments)]
fn server_session_ops<M: SessionMm>(
    h: &M,
    cache: &SessionCache,
    rng: &mut SmallRng,
    sizes: &[usize],
    keyspace: u64,
    stripe: u64,
    stride: u64,
    ops: u64,
    hist: &mut Histogram,
) -> u64 {
    let max = *sizes.iter().max().expect("at least one byte class");
    let stripe_keys = (keyspace / stride).max(1);
    let mut scratch = vec![0u8; max];
    let mut done = 0u64;
    for i in 0..ops {
        let key = stripe + stride * rng.gen_range(stripe_keys);
        let t0 = std::time::Instant::now();
        let roll = rng.gen_range(100);
        if roll < 50 {
            let size = sizes[rng.gen_range(sizes.len() as u64) as usize];
            let len = size - (i as usize % 8).min(size - 1);
            scratch[0] = key as u8;
            if cache.put(h, key, &scratch[..len]).is_err() {
                // Byte classes exhausted mid-growth: shed load instead.
                cache.remove(h, key);
            }
        } else if roll < 80 {
            if let Some(v) = cache.get(h, key) {
                assert_eq!(v[0], key as u8, "session value corrupted");
            }
        } else {
            cache.remove(h, key);
        }
        hist.record(t0.elapsed().as_nanos() as u64);
        done += 1;
    }
    // One session in four "logs out": it purges its whole stripe on the
    // way to the slot release. The drain windows this opens are what give
    // a concurrent reclaimer fully-free blocks to harvest — a steady
    // 50/30/20 mix alone plateaus at an occupancy where no segment ever
    // empties.
    if rng.gen_range(4) == 0 {
        for k in 0..stripe_keys {
            cache.remove(h, stripe + stride * k);
        }
    }
    done
}

/// E12: the server workload. `cfg.workers` threads drain `cfg.tasks`
/// sessions; each session checks a handle out of a [`LeasePool`]
/// (`cfg.slots` leases, blocking while all are held), hammers one shared
/// [`SessionCache`], and checks back in — so registration churn, magazine
/// handoff, and checkout queueing are all on the measured path.
/// With `cfg.reclaim`, a dedicated thread runs the scheme's
/// [`Elastic::reclaim_beside_traffic`] for the whole run (the wait-free
/// scheme registers a handle for it — size the domain at `slots + 1`; the
/// baseline cannot and returns at once), and once the pool is gone every
/// class is swept with [`Elastic::reclaim_to_floor`]. The cache is disposed
/// through a final lease before return, so the caller's leak check must
/// come back clean.
pub fn run_server<S: Elastic>(
    domain: &mut Domain<ListCell<RawBytes>, S>,
    cfg: &ServerCfg,
) -> ServerResult {
    let mut result = serve(domain, cfg);
    // Teardown reclamation: with every session gone and every leased
    // handle dropped (which flushed its magazines — parked blocks pin their
    // segments), the grown arena should come back: the server-shaped
    // analogue of E11's drain phase. Mid-run retirement is rare by design:
    // a live cache holds every segment partially occupied, so the elastic
    // story is the logout/teardown drains.
    if cfg.reclaim {
        for ci in 0..domain.class_count() {
            result.retired += S::reclaim_to_floor(domain, ci).retired;
        }
    }
    result
}

/// [`run_server`] up to the point where the domain is quiescent again.
fn serve<S: Elastic>(domain: &Domain<ListCell<RawBytes>, S>, cfg: &ServerCfg) -> ServerResult {
    let sizes = class_sizes(domain);
    assert!(!sizes.is_empty(), "server bench needs byte classes");
    let pool =
        LeasePool::new(domain, LeaseConfig::new(cfg.slots)).expect("domain sized for the pool");
    let cache = SessionCache::new(1024);
    let next_task = std::sync::atomic::AtomicUsize::new(0);
    let kill_times = std::sync::Mutex::new(std::collections::VecDeque::new());
    let mttr = std::sync::Mutex::new(Histogram::new());
    // One session: check a lease out (blocking while every slot is held),
    // run the op loop on it, check it back in. A killer dies holding it:
    // it unwinds with a `Killed` payload, and the guard's drop orphans the
    // slot. Returns the checkout wait and the ops done.
    let session = |task: usize, op_hist: &mut Histogram| -> (u64, u64) {
        // Exactly `cfg.kill` killer tasks, spread evenly across the set.
        let killer =
            cfg.kill > 0 && (task * cfg.kill) / cfg.tasks != ((task + 1) * cfg.kill) / cfg.tasks;
        let mut rng = SmallRng::seed_from_u64(0xE12_0000 + task as u64);
        let t0 = std::time::Instant::now();
        let guard = pool.acquire();
        let waited = t0.elapsed().as_nanos() as u64;
        let ops = if killer {
            cfg.ops_per_task / 2
        } else {
            cfg.ops_per_task
        };
        let done = server_session_ops(
            &*guard,
            &cache,
            &mut rng,
            &sizes,
            cfg.keyspace,
            guard.tid() as u64,
            cfg.slots as u64,
            ops,
            op_hist,
        );
        if killer {
            // MTTR is measured from this instant. `resume_unwind` skips
            // the panic hook: a kill is not an error message.
            kill_times
                .lock()
                .unwrap()
                .push_back(std::time::Instant::now());
            std::panic::resume_unwind(Box::new(Killed { waited, done }));
        }
        (waited, done)
    };
    // Set by the first worker whose session panics with anything but
    // `Killed`: every worker stops pulling tasks.
    let failed = std::sync::Mutex::new(None::<String>);
    let stop = StopFlag::new();
    let (wall, drained, retired, aborted) = std::thread::scope(|s| {
        // Dropping the handle stops the thread, so a panic below ends the
        // scope instead of leaving it joining a supervisor.
        let supervisor = (cfg.kill > 0).then(|| {
            let (pool, kill_times, mttr) = (&pool, &kill_times, &mttr);
            let recovered_seen = std::sync::atomic::AtomicU64::new(0);
            Supervisor::spawn_scoped(s, std::time::Duration::from_millis(1), move || {
                pool.recover_orphaned();
                // FIFO-match pool recoveries against recorded kill
                // instants: kills are spread across the task set, so the
                // n-th recovery heals the n-th kill.
                let rec = pool.stats().recovered;
                let mut seen = recovered_seen.load(std::sync::atomic::Ordering::Relaxed);
                while seen < rec {
                    if let Some(t0) = kill_times.lock().unwrap().pop_front() {
                        mttr.lock().unwrap().record(t0.elapsed().as_nanos() as u64);
                    }
                    seen += 1;
                }
                recovered_seen.store(seen, std::sync::atomic::Ordering::Relaxed);
            })
        });
        let reclaimer = cfg.reclaim.then(|| {
            let stop = &stop;
            s.spawn(move || S::reclaim_beside_traffic(domain, stop))
        });
        // The drain: `cfg.workers` threads pull task ids off one counter
        // until the set is exhausted. With more workers than slots the
        // surplus blocks in `acquire`, so the waiter/handoff path runs.
        let start = std::time::Instant::now();
        let workers: Vec<_> = (0..cfg.workers.max(1))
            .map(|_| {
                let (session, next_task, failed, pool) = (&session, &next_task, &failed, &pool);
                s.spawn(move || {
                    let mut drained = Drained::default();
                    loop {
                        let task = next_task.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if task >= cfg.tasks || failed.lock().unwrap().is_some() {
                            return drained;
                        }
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            session(task, &mut drained.op)
                        }));
                        let (waited, done) = match run {
                            Ok(r) => r,
                            Err(payload) => match payload.downcast::<Killed>() {
                                Ok(k) => {
                                    drained.killed += 1;
                                    (k.waited, k.done)
                                }
                                Err(payload) => {
                                    // Fail fast. Recover the slot the
                                    // panic orphaned, so no blocked
                                    // acquirer waits on it.
                                    failed
                                        .lock()
                                        .unwrap()
                                        .get_or_insert(panic_message(&*payload));
                                    pool.recover_orphaned();
                                    return drained;
                                }
                            },
                        };
                        drained.checkout.record(waited);
                        drained.total_ops += done;
                    }
                })
            })
            .collect();
        // A thread that panicked outside a session fails the run the same
        // way, through the one failure message below.
        let fail = |payload: Box<dyn std::any::Any + Send>| {
            failed
                .lock()
                .unwrap()
                .get_or_insert(panic_message(&*payload));
        };
        let drained = workers
            .into_iter()
            .map(|w| {
                w.join().unwrap_or_else(|p| {
                    fail(p);
                    Drained::default()
                })
            })
            .fold(Drained::default(), Drained::merged);
        let wall = start.elapsed();
        stop.stop();
        let reclaimed = reclaimer.map_or_else(ReclaimTally::default, |j| {
            j.join().unwrap_or_else(|p| {
                fail(p);
                ReclaimTally::default()
            })
        });
        // Acceptance gate: every killed holder's slot must come back
        // through the supervisor alone, within a hard bound — it keeps
        // ticking until it has.
        let t0 = std::time::Instant::now();
        while failed.lock().unwrap().is_none()
            && pool.stats().recovered < drained.killed
            && t0.elapsed() < std::time::Duration::from_secs(10)
        {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(supervisor);
        if let Some(msg) = failed.lock().unwrap().take() {
            panic!("E12 session failed, run stopped: {msg}");
        }
        assert!(
            pool.stats().recovered >= drained.killed,
            "supervisor recovered only {} of {} killed leases within 10s",
            pool.stats().recovered,
            drained.killed
        );
        (wall, drained, reclaimed.retired, reclaimed.aborted)
    });
    let g = pool.acquire();
    cache.dispose(&*g);
    drop(g);
    let lease = pool.stats();
    drop(pool);
    ServerResult {
        tasks: cfg.tasks,
        total_ops: drained.total_ops,
        wall,
        checkout: drained.checkout,
        op: drained.op,
        lease,
        retired,
        aborted,
        killed: drained.killed,
        mttr: mttr.into_inner().unwrap(),
    }
}

/// A panic payload's message (`&str` or `String` payloads; else a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".into())
}

/// What one E12 worker thread drained: per-task checkout waits, per-op
/// latencies, completed ops, and sessions killed holding their lease.
#[derive(Default)]
struct Drained {
    checkout: Histogram,
    op: Histogram,
    total_ops: u64,
    killed: u64,
}

impl Drained {
    fn merged(mut self, other: Self) -> Self {
        self.checkout.merge(&other.checkout);
        self.op.merge(&other.op);
        self.total_ops += other.total_ops;
        self.killed += other.killed;
        self
    }
}

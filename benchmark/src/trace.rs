//! Outside-in tracing: a delegating [`RcMm`]/[`ByteMm`] wrapper that times
//! every call a structure makes into the memory manager.
//!
//! All structures in `wfrc-structures` are generic over `M: RcMm<T>`, so
//! handing them a [`Traced`] handle shows every layer boundary without
//! touching the program. The tracing policy is a type: with [`Off`] the
//! wrapper inlines to the bare call (the end-to-end runs), with a
//! [`Recorder`] each call becomes a span.

use std::cell::{Cell, RefCell};
use std::io::Write;

use wfrc_core::counters::CounterSnapshot;
use wfrc_core::{AtomicWeak, Link, Node, OutOfMemory, RawBytes, RcObject};
use wfrc_structures::{ByteMm, RcMm};

use crate::clock;
use crate::stats::Log2Hist;

/// The layers a span can belong to, named after the modules they enter.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Layer {
    /// `alloc_node` (AllocNode; magazine and arena growth inside it).
    FreelistAlloc,
    /// `deref_link` (DeRefLink + announcement).
    RcDeref,
    /// `release_node` (ReleaseRef, FreeNode on zero).
    RcRelease,
    /// `add_refs` (FixRef).
    RcFixref,
    /// `cas_link` + `store_link` (incl. HelpDeRef).
    LinkCas,
    /// `snapshot_enter` / `snapshot_exit` / `snapshot_load`.
    Pin,
    /// The five weak methods.
    Weak,
    /// `ByteMm::alloc_value` / `free_value` / `value_bytes`.
    Class,
    /// `LeasePool::acquire` and the guard drop.
    Lease,
}

impl Layer {
    pub const ALL: [Layer; 9] = [
        Layer::FreelistAlloc,
        Layer::RcDeref,
        Layer::RcRelease,
        Layer::RcFixref,
        Layer::LinkCas,
        Layer::Pin,
        Layer::Weak,
        Layer::Class,
        Layer::Lease,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::FreelistAlloc => "freelist.alloc",
            Layer::RcDeref => "rc.deref",
            Layer::RcRelease => "rc.release",
            Layer::RcFixref => "rc.fixref",
            Layer::LinkCas => "link.cas",
            Layer::Pin => "pin",
            Layer::Weak => "weak",
            Layer::Class => "class",
            Layer::Lease => "lease",
        }
    }
}

/// Tracing policy of a run.
pub trait Tracer {
    /// Whether spans are recorded (workers skip their own timers if so).
    const ON: bool;
    /// Runs `f` as one call into `layer`.
    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R;
}

/// Tracing off: every span is the bare call.
pub struct Off;

impl Tracer for Off {
    const ON: bool = false;
    #[inline(always)]
    fn span<R>(&self, _layer: Layer, f: impl FnOnce() -> R) -> R {
        f()
    }
}

/// Full spans are kept for every `FULL_EVERY`-th op of a thread...
pub const FULL_EVERY: u64 = 1024;
/// ...up to this many per thread, so a fast workload cannot exhaust memory.
const SPAN_CAP: usize = 100_000;
/// Every `PROBE_EVERY`-th span of a thread is also timed from outside, which
/// gives what a span costs the op around it where the spans really run. A
/// loop of empty spans reads a few nanoseconds off that (26 against 28-30
/// on the seed box), and `pq` multiplies the difference by 54 spans per op.
const PROBE_EVERY: u64 = 64;
/// A probe that reads more than this (2 µs at 2 GHz; a span's bookkeeping
/// is some tens of nanoseconds) caught a preemption, and is dropped: one
/// such millisecond would otherwise be spread over every span of the round.
const PROBE_MAX_TICKS: u64 = 4096;

/// One recorded span. `layer == None` is the workload-level op itself.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub op: u64,
    pub layer: Option<Layer>,
    pub start: u64,
    pub end: u64,
}

#[derive(Clone, Default)]
pub struct LayerAgg {
    pub calls: u64,
    pub ticks: u64,
    pub hist: Log2Hist,
}

/// Everything one thread (or, after [`Agg::merge`], one round) recorded.
#[derive(Clone, Default)]
pub struct Agg {
    pub layers: [LayerAgg; 9],
    pub ops: u64,
    pub op_ticks: u64,
    /// Spans also timed from outside (those kept, see [`PROBE_MAX_TICKS`]),
    /// and the sum over them of the outer interval minus the inner one.
    pub probes: u64,
    pub probe_ticks: u64,
    pub spans: Vec<Span>,
    /// Whether the op in progress keeps full spans, and its span id.
    full: bool,
    op_span: u64,
    next_span: u64,
}

impl Agg {
    pub fn merge(&mut self, other: &Agg) {
        for (a, b) in self.layers.iter_mut().zip(other.layers.iter()) {
            a.calls += b.calls;
            a.ticks += b.ticks;
            a.hist.merge(&b.hist);
        }
        self.ops += other.ops;
        self.op_ticks += other.op_ticks;
        self.probes += other.probes;
        self.probe_ticks += other.probe_ticks;
        self.spans.extend_from_slice(&other.spans);
    }

    pub fn calls(&self) -> u64 {
        self.layers.iter().map(|l| l.calls).sum()
    }
}

/// Per-thread span recorder. Handles are single-threaded, so is this.
pub struct Recorder {
    agg: RefCell<Agg>,
    /// Spans started, for [`PROBE_EVERY`].
    started: Cell<u64>,
}

impl Recorder {
    /// Span ids carry `tid` in their top bits, so they are unique in a file.
    pub fn new(tid: usize) -> Self {
        let agg = Agg {
            next_span: (tid as u64) << 40,
            ..Agg::default()
        };
        Self {
            agg: RefCell::new(agg),
            started: Cell::new(0),
        }
    }

    /// Runs `f` as one workload-level op: the parent of every span inside.
    pub fn op<R>(&self, f: impl FnOnce() -> R) -> R {
        {
            let mut a = self.agg.borrow_mut();
            a.full = a.ops % FULL_EVERY == 0 && a.spans.len() < SPAN_CAP;
            a.op_span = a.next_span;
            a.next_span += 1;
        }
        let t0 = clock::ticks();
        let r = f();
        let t1 = clock::ticks();
        let mut a = self.agg.borrow_mut();
        if a.full {
            let (id, op) = (a.op_span, a.ops);
            a.spans.push(Span {
                id,
                parent: None,
                op,
                layer: None,
                start: t0,
                end: t1,
            });
        }
        a.ops += 1;
        a.op_ticks += t1 - t0;
        r
    }

    pub fn into_agg(self) -> Agg {
        self.agg.into_inner()
    }
}

impl Tracer for Recorder {
    const ON: bool = true;
    #[inline]
    fn span<R>(&self, layer: Layer, f: impl FnOnce() -> R) -> R {
        let started = self.started.get();
        self.started.set(started + 1);
        let probe = started % PROBE_EVERY == 0;
        let outer = if probe { clock::ticks() } else { 0 };
        let t0 = clock::ticks();
        let r = f();
        let t1 = clock::ticks();
        // Memory-manager calls are leaves (no span opens inside `f`), so
        // this borrow never overlaps another.
        let mut a = self.agg.borrow_mut();
        let l = &mut a.layers[layer as usize];
        l.calls += 1;
        l.ticks += t1 - t0;
        l.hist.record(t1 - t0);
        if a.full {
            let (id, parent, op) = (a.next_span, a.op_span, a.ops);
            a.next_span += 1;
            a.spans.push(Span {
                id,
                parent: Some(parent),
                op,
                layer: Some(layer),
                start: t0,
                end: t1,
            });
        }
        if probe {
            let cost = (clock::ticks() - outer) - (t1 - t0);
            if cost <= PROBE_MAX_TICKS {
                a.probes += 1;
                a.probe_ticks += cost;
            }
        }
        r
    }
}

/// Ticks between the two clock reads of an empty span: what the timer adds
/// to every layer span. The minimum of twenty batches, so that a preemption
/// in one batch does not inflate the cost subtracted from every call.
pub fn calibrate_timer() -> f64 {
    const N: u64 = 20_000;
    (0..20)
        .map(|_| {
            let rec = Recorder::new(0);
            for _ in 0..N {
                rec.span(Layer::Pin, || std::hint::black_box(()));
            }
            rec.into_agg().layers[Layer::Pin as usize].ticks as f64 / N as f64
        })
        .fold(f64::MAX, f64::min)
}

/// Per-op numbers of a traced round, timer and span costs subtracted.
pub struct TraceReport {
    pub calls_per_op: [f64; 9],
    pub ns_per_op: [f64; 9],
    /// Traced op time: the op spans, minus what their child spans and their
    /// own clock reads cost. Measured apart from the layer times above.
    pub op_ns: f64,
    /// Op self time: `op_ns` minus the layers. Negative if the costs taken
    /// off the op were overestimated — that is an error to see, not to hide.
    pub structures_ns_per_op: f64,
    /// What one span cost the op around it, from the probed spans, in ticks.
    pub span_ticks: f64,
}

/// `timer_ticks` is [`calibrate_timer`]'s result.
pub fn report(agg: &Agg, timer_ticks: f64) -> TraceReport {
    let ops = agg.ops.max(1) as f64;
    let ns_per_op = |ticks: f64| ticks * clock::ns_per_tick() / ops;
    let mut calls_per_op = [0.0; 9];
    let mut layer_ns = [0.0; 9];
    for (i, l) in agg.layers.iter().enumerate() {
        calls_per_op[i] = l.calls as f64 / ops;
        layer_ns[i] = ns_per_op(l.ticks as f64 - l.calls as f64 * timer_ticks);
    }
    let span_ticks = agg.probe_ticks as f64 / agg.probes.max(1) as f64;
    // An op pays each child span in full, one more clock pair for each
    // probed span, and its own clock pair.
    let probed = (agg.calls() / PROBE_EVERY) as f64;
    let op_ns = ns_per_op(
        agg.op_ticks as f64 - agg.calls() as f64 * span_ticks - (probed + ops) * timer_ticks,
    );
    TraceReport {
        calls_per_op,
        ns_per_op: layer_ns,
        op_ns,
        structures_ns_per_op: op_ns - layer_ns.iter().sum::<f64>(),
        span_ticks,
    }
}

/// Writes the round as JSON lines: one `meta` line, one `summary` line per
/// layer (totals and the log2 histogram of span ticks), then every kept
/// span. See README.md, "Reading trace-*.jsonl".
pub fn write_jsonl(path: &std::path::Path, workload: &str, agg: &Agg) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"meta\":true,\"workload\":\"{workload}\",\"ns_per_tick\":{},\"ops\":{},\"op_ticks\":{},\"probes\":{},\"probe_ticks\":{},\"full_every\":{FULL_EVERY}}}",
        clock::ns_per_tick(),
        agg.ops,
        agg.op_ticks,
        agg.probes,
        agg.probe_ticks
    )?;
    for layer in Layer::ALL {
        let l = &agg.layers[layer as usize];
        let hist: Vec<String> = l.hist.0.iter().map(u64::to_string).collect();
        writeln!(
            w,
            "{{\"summary\":true,\"layer\":\"{}\",\"calls\":{},\"ticks\":{},\"log2_hist\":[{}]}}",
            layer.name(),
            l.calls,
            l.ticks,
            hist.join(",")
        )?;
    }
    let t0 = agg.spans.iter().map(|s| s.start).min().unwrap_or(0);
    for s in &agg.spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"span\":{},\"parent\":{parent},\"tid\":{},\"op\":{},\"layer\":\"{}\",\"start_ns\":{:.0},\"end_ns\":{:.0}}}",
            s.id,
            s.id >> 40,
            s.op,
            s.layer.map_or("op", Layer::name),
            clock::to_ns(s.start - t0),
            clock::to_ns(s.end - t0)
        )?;
    }
    w.flush()
}

/// A handle `mm` seen through tracer `tr`.
pub struct Traced<'a, M, Tr> {
    mm: &'a M,
    tr: &'a Tr,
}

impl<'a, M, Tr> Traced<'a, M, Tr> {
    #[inline(always)]
    pub fn new(mm: &'a M, tr: &'a Tr) -> Self {
        Self { mm, tr }
    }
}

// SAFETY: pure delegation — every guarantee is the inner handle's, and every
// caller obligation is forwarded unchanged.
unsafe impl<T: RcObject, M: RcMm<T>, Tr: Tracer> RcMm<T> for Traced<'_, M, Tr> {
    #[inline(always)]
    fn alloc_node(&self) -> Result<*mut Node<T>, OutOfMemory> {
        self.tr.span(Layer::FreelistAlloc, || self.mm.alloc_node())
    }
    #[inline(always)]
    unsafe fn deref_link(&self, link: &Link<T>) -> *mut Node<T> {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::RcDeref, || unsafe { self.mm.deref_link(link) })
    }
    #[inline(always)]
    unsafe fn release_node(&self, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::RcRelease, || unsafe { self.mm.release_node(node) })
    }
    #[inline(always)]
    unsafe fn add_refs(&self, node: *mut Node<T>, refs: usize) {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::RcFixref, || unsafe { self.mm.add_refs(node, refs) })
    }
    #[inline(always)]
    unsafe fn cas_link(&self, link: &Link<T>, old: *mut Node<T>, new: *mut Node<T>) -> bool {
        // SAFETY: forwarded contract.
        self.tr.span(Layer::LinkCas, || unsafe {
            self.mm.cas_link(link, old, new)
        })
    }
    #[inline(always)]
    unsafe fn store_link(&self, link: &Link<T>, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::LinkCas, || unsafe { self.mm.store_link(link, node) })
    }
    #[inline(always)]
    unsafe fn payload(&self, node: *mut Node<T>) -> &T {
        // SAFETY: forwarded contract.
        unsafe { self.mm.payload(node) }
    }
    #[inline(always)]
    unsafe fn payload_mut(&self, node: *mut Node<T>) -> &mut T {
        // SAFETY: forwarded contract.
        unsafe { self.mm.payload_mut(node) }
    }
    fn counter_snapshot(&self) -> CounterSnapshot {
        self.mm.counter_snapshot()
    }
    const SNAPSHOT_PROTECTED: bool = M::SNAPSHOT_PROTECTED;
    #[inline(always)]
    fn snapshot_enter(&self) {
        self.tr.span(Layer::Pin, || self.mm.snapshot_enter())
    }
    #[inline(always)]
    unsafe fn snapshot_exit(&self) {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::Pin, || unsafe { self.mm.snapshot_exit() })
    }
    #[inline(always)]
    unsafe fn snapshot_load(&self, link: &Link<T>) -> *mut Node<T> {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::Pin, || unsafe { self.mm.snapshot_load(link) })
    }
    #[inline(always)]
    unsafe fn downgrade_node(&self, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::Weak, || unsafe { self.mm.downgrade_node(node) })
    }
    #[inline(always)]
    unsafe fn upgrade_node(&self, node: *mut Node<T>) -> bool {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::Weak, || unsafe { self.mm.upgrade_node(node) })
    }
    #[inline(always)]
    unsafe fn release_weak(&self, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::Weak, || unsafe { self.mm.release_weak(node) })
    }
    #[inline(always)]
    unsafe fn store_weak_link(&self, w: &AtomicWeak<T>, node: *mut Node<T>) {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::Weak, || unsafe { self.mm.store_weak_link(w, node) })
    }
    #[inline(always)]
    unsafe fn load_weak_link(&self, w: &AtomicWeak<T>) -> *mut Node<T> {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::Weak, || unsafe { self.mm.load_weak_link(w) })
    }
}

impl<M: ByteMm, Tr: Tracer> ByteMm for Traced<'_, M, Tr> {
    #[inline(always)]
    fn alloc_value(&self, bytes: &[u8]) -> Result<RawBytes, OutOfMemory> {
        self.tr.span(Layer::Class, || self.mm.alloc_value(bytes))
    }
    #[inline(always)]
    unsafe fn value_bytes(&self, token: &RawBytes) -> &[u8] {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::Class, || unsafe { self.mm.value_bytes(token) })
    }
    #[inline(always)]
    unsafe fn free_value(&self, token: RawBytes) {
        // SAFETY: forwarded contract.
        self.tr
            .span(Layer::Class, || unsafe { self.mm.free_value(token) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfrc_core::{DomainConfig, WfrcDomain};

    /// One pass over the §3.2 user model: 1 alloc, 1 store, 1 deref, 1 CAS,
    /// 1 FixRef and 3 releases, leaving `link` null again.
    fn script<M: RcMm<u64>>(mm: &M, link: &Link<u64>) {
        let n = mm.alloc_node().unwrap();
        // SAFETY: the standard count discipline — the alloc count moves
        // into the link, deref and FixRef each add one, all are released.
        unsafe {
            mm.store_link(link, n);
            let p = mm.deref_link(link);
            assert_eq!(p, n);
            mm.add_refs(p, 1);
            mm.release_node(p);
            mm.release_node(p);
            assert!(mm.cas_link(link, n, core::ptr::null_mut()));
            mm.release_node(n);
        }
    }

    #[test]
    fn span_counts_equal_counter_deltas() {
        const OPS: u64 = 2 * FULL_EVERY + 5;
        let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
        let h = domain.register().unwrap();
        let link = Link::null();
        script(&h, &link); // untraced ops must not show up in the spans
        let before = RcMm::<u64>::counter_snapshot(&h);
        let rec = Recorder::new(3);
        for _ in 0..OPS {
            rec.op(|| script(&Traced::new(&h, &rec), &link));
        }
        let after = RcMm::<u64>::counter_snapshot(&h);
        let agg = rec.into_agg();
        let calls = |l: Layer| agg.layers[l as usize].calls;
        assert_eq!(agg.ops, OPS);
        assert_eq!(
            calls(Layer::FreelistAlloc),
            after.alloc_calls - before.alloc_calls
        );
        assert_eq!(
            calls(Layer::RcDeref),
            after.deref_calls - before.deref_calls
        );
        assert_eq!(calls(Layer::RcRelease), after.releases - before.releases);
        assert_eq!(calls(Layer::RcFixref), OPS);
        assert_eq!(calls(Layer::LinkCas), 2 * OPS);
        for l in [Layer::Pin, Layer::Weak, Layer::Class, Layer::Lease] {
            assert_eq!(calls(l), 0, "{l:?} is bypassed");
        }
        for l in &agg.layers {
            assert_eq!(l.hist.count(), l.calls);
        }
        // Ops 0, 1024 and 2048 keep full spans: an op span and its 8 children.
        assert_eq!(agg.spans.len(), 3 * 9);
        let roots: Vec<&Span> = agg.spans.iter().filter(|s| s.layer.is_none()).collect();
        assert_eq!(roots.len(), 3);
        for root in roots {
            assert_eq!(root.id >> 40, 3, "ids carry the tid");
            let kids: Vec<&Span> = agg
                .spans
                .iter()
                .filter(|s| s.parent == Some(root.id))
                .collect();
            assert_eq!(kids.len(), 8);
            assert!(kids
                .iter()
                .all(|k| k.op == root.op && root.start <= k.start && k.end <= root.end));
        }
        drop(h);
        assert!(domain.leak_check().is_clean());
    }

    #[test]
    fn op_time_and_layer_times_are_measured_apart() {
        let mut agg = Agg {
            ops: 10,
            op_ticks: 10_000,
            probes: 3,
            probe_ticks: 75,
            ..Agg::default()
        };
        agg.layers[Layer::RcDeref as usize].calls = 20;
        agg.layers[Layer::RcDeref as usize].ticks = 4_000;
        agg.layers[Layer::RcRelease as usize].calls = 10;
        agg.layers[Layer::RcRelease as usize].ticks = 1_000;
        let ticks = |ns: f64| ns / clock::ns_per_tick();
        let close = |a: f64, b: f64| (a - b).abs() < 1e-6 * b.abs().max(1.0);
        // Per op: deref (4000 - 20*10)/10, release (1000 - 10*10)/10; a span
        // costs 75/3, so the op is (10000 - 30*25 - (30/64 + 10)*10)/10 = 915.
        let r = report(&agg, 10.0);
        assert!(close(ticks(r.ns_per_op[Layer::RcDeref as usize]), 380.0));
        assert!(close(ticks(r.ns_per_op[Layer::RcRelease as usize]), 90.0));
        assert!(close(r.span_ticks, 25.0));
        assert!(close(ticks(r.op_ns), 915.0));
        assert!(close(ticks(r.structures_ns_per_op), 445.0));
        assert_eq!(r.calls_per_op[Layer::RcDeref as usize], 2.0);
        // Spans that cost more than the op had: the self time goes negative
        // and says so.
        agg.probe_ticks = 3 * 200;
        let r = report(&agg, 10.0);
        assert!(close(ticks(r.op_ns), 390.0));
        assert!(close(ticks(r.structures_ns_per_op), -80.0));
    }

    /// The script has no self time to speak of and runs on one thread, so a
    /// right span cost leaves the layers adding up to the traced op time,
    /// and that to what the same ops take untraced. Both sides are the best
    /// of several batches: the test shares its CPUs with the other tests.
    #[test]
    fn recorded_layers_account_for_the_op_and_the_op_for_the_untraced_one() {
        const OPS: u64 = 4_000;
        let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
        let h = domain.register().unwrap();
        let link = Link::null();
        let timer = calibrate_timer();
        let (mut traced, mut layers, mut untraced) = (f64::MAX, f64::MAX, f64::MAX);
        for _ in 0..9 {
            let t0 = clock::ticks();
            for _ in 0..OPS {
                script(&h, &link);
            }
            untraced = untraced.min(clock::to_ns(clock::ticks() - t0) / OPS as f64);
            let rec = Recorder::new(0);
            for _ in 0..OPS {
                rec.op(|| script(&Traced::new(&h, &rec), &link));
            }
            let agg = rec.into_agg();
            assert!((1..=OPS * 8 / PROBE_EVERY).contains(&agg.probes));
            let r = report(&agg, timer);
            assert!(r.op_ns < clock::to_ns(agg.op_ticks) / OPS as f64);
            if r.op_ns < traced {
                (traced, layers) = (r.op_ns, r.ns_per_op.iter().sum());
            }
        }
        assert!(
            (0.7..1.3).contains(&(layers / traced)),
            "layers {layers} ns of a traced op of {traced} ns"
        );
        assert!(
            (0.6..1.6).contains(&(traced / untraced)),
            "traced op {traced} ns, untraced {untraced} ns"
        );
    }

    #[test]
    fn off_is_the_bare_call() {
        let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
        let h = domain.register().unwrap();
        let link = Link::null();
        let before = RcMm::<u64>::counter_snapshot(&h);
        script(&Traced::new(&h, &Off), &link);
        let after = RcMm::<u64>::counter_snapshot(&h);
        assert_eq!(after.alloc_calls - before.alloc_calls, 1);
        assert_eq!(after.releases - before.releases, 3);
    }

    #[test]
    fn jsonl_has_meta_summaries_and_spans() {
        let domain = WfrcDomain::<u64>::new(DomainConfig::new(2, 64));
        let h = domain.register().unwrap();
        let (rec, link) = (Recorder::new(1), Link::null());
        rec.op(|| script(&Traced::new(&h, &rec), &link));
        let dir = std::env::temp_dir().join(format!("wfrc-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace-test.jsonl");
        write_jsonl(&path, "test", &rec.into_agg()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1 + Layer::ALL.len() + 9);
        assert!(lines[0].starts_with("{\"meta\":true,\"workload\":\"test\""));
        assert!(lines[1].contains("\"layer\":\"freelist.alloc\",\"calls\":1,"));
        assert!(lines[10].contains("\"parent\":null") || lines[18].contains("\"parent\":null"));
        assert!(text.contains("\"layer\":\"op\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }
}

//! The closed-loop round driver shared by all workloads: pinned worker
//! threads kept alive across rounds, a seeded op-stream generator, and the
//! sampled per-op timer.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use wfrc_core::counters::{CounterSnapshot, LeaseSnapshot};

use crate::clock;
use crate::stats::percentile;
use crate::trace::{Agg, Off, Recorder, Tracer};

/// SplitMix64: the op streams are a pure function of `(seed, stream)`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next(); // decorrelate neighbouring streams
        r
    }

    #[inline]
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-32 here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() >> 32) * n) >> 32
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    // glibc's prototypes; std already links libc, and the `libc` crate is
    // not available offline.
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16; // 1024 CPUs, the size of glibc's cpu_set_t

    /// CPUs this process may run on, ascending.
    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, WORDS * 8, mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }

    /// Pins the calling thread to `cpu`; false if the kernel refused.
    pub fn pin_to(cpu: usize) -> bool {
        let mut mask = [0u64; WORDS];
        if cpu >= WORDS * 64 {
            return false;
        }
        mask[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, WORDS * 8, mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }
    pub fn pin_to(_cpu: usize) -> bool {
        false
    }
}

pub use affinity::allowed_cpus;

/// Worker threads of every workload: `min(nproc, 4)`, where `nproc` is the
/// size of the allowed CPU set.
pub fn worker_threads() -> usize {
    let cpus = allowed_cpus().len();
    let n = if cpus > 0 {
        cpus
    } else {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    };
    n.min(4)
}

/// Peak resident set (`VmHWM`) of this process in MiB; 0 if unreadable.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// How one workload-level operation ended. An integrity violation is not
/// an outcome: it goes to the workload's [`crate::oracle::Integrity`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    Done,
    /// `OutOfMemory` or a refused lease.
    Failed,
    /// Done, but no latency sample: the op carried work of another kind
    /// (`server`'s stripe purge). It still counts for `ops_per_s` and is
    /// traced like any other.
    DoneUntimed,
}

impl Op {
    #[inline]
    pub fn done_if(ok: bool) -> Self {
        if ok {
            Op::Done
        } else {
            Op::Failed
        }
    }
}

/// One worker thread's side of a workload.
pub trait Worker {
    /// One workload-level operation.
    fn op<Tr: Tracer>(&mut self, tr: &Tr) -> Op;

    /// Called on the worker's thread after every round of `kind`, outside
    /// the timed region: flush tallies, end a session in progress, and
    /// return the cumulative counters of the handle this worker owns
    /// (default for a worker that owns none).
    fn round_end(&mut self, kind: Kind) -> CounterSnapshot;
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Not reported.
    Warmup,
    /// Tracing off; every 16th op timed.
    Plain,
    /// Every op and every memory-manager call timed.
    Traced,
}

#[derive(Clone, Copy, Debug)]
pub struct Round {
    pub kind: Kind,
    pub secs: f64,
}

/// What all threads together did in one round.
pub struct RoundOut {
    pub kind: Kind,
    pub wall_s: f64,
    pub ops: u64,
    pub failed: u64,
    /// Sampled op latencies of all threads (plain rounds).
    pub lat: LatSummary,
    /// Cumulative counters at round end: worker-owned handles merged with
    /// what the `shared_stats` hook returned.
    pub counters: CounterSnapshot,
    /// The lease pool's statistics at round end (`server`; else zero).
    pub lease: LeaseSnapshot,
    /// Merged recorder state (traced rounds).
    pub trace: Option<Agg>,
}

/// Order statistics of one round's latency samples, in ticks.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct LatSummary {
    pub samples: usize,
    pub p50: u32,
    pub p99: u32,
    pub p999: u32,
    pub max: u32,
}

impl LatSummary {
    /// Summarises `samples` (sorted in place).
    pub fn of(samples: &mut [u32]) -> Self {
        samples.sort_unstable();
        Self {
            samples: samples.len(),
            p50: percentile(samples, 0.50),
            p99: percentile(samples, 0.99),
            p999: percentile(samples, 0.999),
            max: samples.last().copied().unwrap_or(0),
        }
    }
}

/// A thread keeps at most this many latency samples per round (256 KiB,
/// touched up front): the harness's memory must not move `peak_rss_mb`.
const LAT_CAP: usize = 1 << 16;

/// Fixed-size sample buffer. When it fills, every second sample is dropped
/// and from then on only every second one is kept, and so on: the kept
/// samples are always an even decimation of the whole round.
struct Samples {
    buf: Vec<u32>,
    offered: u64,
    shift: u32,
}

impl Samples {
    fn new(cap: usize) -> Self {
        // Written, not just reserved, so the pages are resident from the
        // start whatever the workload's speed.
        let mut buf = vec![u32::MAX; cap];
        buf.clear();
        Self {
            buf,
            offered: 0,
            shift: 0,
        }
    }

    #[inline]
    fn offer(&mut self, v: u32) {
        if self.offered & ((1 << self.shift) - 1) == 0 {
            if self.buf.len() == self.buf.capacity() {
                let mut i = 0u32;
                self.buf.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.shift += 1;
            }
            if self.offered & ((1 << self.shift) - 1) == 0 {
                self.buf.push(v);
            }
        }
        self.offered += 1;
    }
}

struct ThreadOut {
    ops: u64,
    failed: u64,
    lat: Vec<u32>,
    counters: CounterSnapshot,
    trace: Option<Agg>,
}

/// Ops are timed when a multiplicative hash of their index has four zero
/// top bits: one op in 16, but never in step with a workload's own period
/// (a `server` session is 32 ops).
#[inline(always)]
fn sampled(i: u64) -> bool {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60 == 0
}

fn plain_round<W: Worker>(w: &mut W, stop: &AtomicBool, first_op: u64) -> ThreadOut {
    let mut lat = Samples::new(LAT_CAP);
    let (mut ops, mut failed) = (0u64, 0u64);
    while !stop.load(Ordering::Relaxed) {
        let op = if sampled(first_op + ops) {
            let t0 = clock::ticks();
            let op = w.op(&Off);
            if op != Op::DoneUntimed {
                lat.offer(u32::try_from(clock::ticks() - t0).unwrap_or(u32::MAX));
            }
            op
        } else {
            w.op(&Off)
        };
        ops += 1;
        failed += u64::from(op == Op::Failed);
    }
    ThreadOut {
        ops,
        failed,
        lat: lat.buf,
        counters: CounterSnapshot::default(),
        trace: None,
    }
}

fn traced_round<W: Worker>(w: &mut W, stop: &AtomicBool, tid: usize) -> ThreadOut {
    let rec = Recorder::new(tid);
    let (mut ops, mut failed) = (0u64, 0u64);
    while !stop.load(Ordering::Relaxed) {
        let op = rec.op(|| w.op(&rec));
        ops += 1;
        failed += u64::from(op == Op::Failed);
    }
    ThreadOut {
        ops,
        failed,
        lat: Vec::new(),
        counters: CounterSnapshot::default(),
        trace: Some(rec.into_agg()),
    }
}

/// What [`drive`] returns.
pub struct Driven {
    pub rounds: Vec<RoundOut>,
    /// Whether every worker thread could be pinned to its CPU.
    pub pinned: bool,
}

/// Runs `rounds` over `threads` workers. `make(tid)` builds a worker on its
/// own (pinned) thread; `shared_stats()` runs on the calling thread after
/// each round, while all workers are parked, and returns the cumulative
/// counters of handles no single worker owns (the lease pool's slots) and
/// the pool's statistics.
pub fn drive<W: Worker>(
    threads: usize,
    rounds: &[Round],
    make: impl Fn(usize) -> W + Sync,
    mut shared_stats: impl FnMut() -> (CounterSnapshot, LeaseSnapshot),
) -> Driven {
    let cpus = allowed_cpus();
    let gate = Barrier::new(threads + 1);
    let stop = AtomicBool::new(false);
    let outs: Mutex<Vec<ThreadOut>> = Mutex::new(Vec::new());
    let all_pinned = AtomicBool::new(true);
    let mut result = Vec::with_capacity(rounds.len());
    std::thread::scope(|s| {
        for tid in 0..threads {
            let (gate, stop, outs, make, cpus, all_pinned) =
                (&gate, &stop, &outs, &make, &cpus, &all_pinned);
            s.spawn(move || {
                if !cpus.get(tid).is_some_and(|&c| affinity::pin_to(c)) {
                    all_pinned.store(false, Ordering::Relaxed);
                }
                let mut w = make(tid);
                let mut done = 0u64;
                for round in rounds {
                    gate.wait();
                    let mut out = match round.kind {
                        Kind::Warmup | Kind::Plain => plain_round(&mut w, stop, done),
                        Kind::Traced => traced_round(&mut w, stop, tid),
                    };
                    done += out.ops;
                    out.counters = w.round_end(round.kind);
                    outs.lock().expect("round results poisoned").push(out);
                    gate.wait();
                }
            });
        }
        for round in rounds {
            stop.store(false, Ordering::Relaxed);
            gate.wait();
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_secs_f64(round.secs));
            stop.store(true, Ordering::Relaxed);
            gate.wait();
            let wall_s = t0.elapsed().as_secs_f64();
            let parts = std::mem::take(&mut *outs.lock().expect("round results poisoned"));
            let (counters, lease) = shared_stats();
            let mut out = RoundOut {
                kind: round.kind,
                wall_s,
                ops: 0,
                failed: 0,
                lat: LatSummary::default(),
                counters,
                lease,
                trace: None,
            };
            let mut lat = Vec::new();
            for p in parts {
                out.ops += p.ops;
                out.failed += p.failed;
                lat.extend_from_slice(&p.lat);
                out.counters = out.counters.merged(&p.counters);
                if let Some(agg) = p.trace {
                    out.trace.get_or_insert_with(Agg::default).merge(&agg);
                }
            }
            out.lat = LatSummary::of(&mut lat);
            result.push(out);
        }
    });
    Driven {
        rounds: result,
        pinned: all_pinned.load(Ordering::Relaxed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next(), Rng::new(7, 2).next());
        assert_ne!(Rng::new(7, 1).next(), Rng::new(8, 1).next());
        let mut r = Rng::new(1, 0);
        assert!((0..10_000).all(|_| r.below(10) < 10));
    }

    #[test]
    fn samples_decimate_evenly_when_full() {
        let mut s = Samples::new(8);
        (0..8).for_each(|v| s.offer(v));
        assert_eq!(s.buf, [0, 1, 2, 3, 4, 5, 6, 7]);
        (8..16).for_each(|v| s.offer(v));
        assert_eq!(s.buf, [0, 2, 4, 6, 8, 10, 12, 14]);
        (16..32).for_each(|v| s.offer(v));
        assert_eq!(s.buf, [0, 4, 8, 12, 16, 20, 24, 28]);
        s.offer(32);
        assert_eq!(s.buf, [0, 8, 16, 24, 32]);
    }

    #[test]
    fn latency_summary_of_known_samples() {
        let mut v: Vec<u32> = (1..=1000).rev().collect();
        let l = LatSummary::of(&mut v);
        assert_eq!(
            (l.samples, l.p50, l.p99, l.p999, l.max),
            (1000, 500, 990, 999, 1000)
        );
        assert_eq!(LatSummary::of(&mut []), LatSummary::default());
    }

    #[test]
    fn one_op_in_sixteen_is_sampled() {
        let hits = (0..1_600_000u64).filter(|&i| sampled(i)).count();
        assert!((95_000..105_000).contains(&hits), "{hits}");
        // Not in step with a 32-op session: every position gets sampled.
        let mut seen = [false; 32];
        (0..100_000u64)
            .filter(|&i| sampled(i))
            .for_each(|i| seen[(i % 32) as usize] = true);
        assert!(seen.iter().all(|&s| s));
    }
}

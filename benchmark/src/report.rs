//! Turns rounds into the named metrics of BENCHMARK.json (glossary in
//! README.md). Every end-to-end value is the median of the plain rounds.

use wfrc_core::counters::{CounterSnapshot, LeaseSnapshot};

use crate::clock;
#[cfg(test)]
use crate::harness::LatSummary;
use crate::harness::{Kind, RoundOut};
use crate::stats::{median, percentile, ratio};
use crate::trace::{self, Layer};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// The end-to-end names, in BENCHMARK.json order.
#[cfg(test)]
pub const END_TO_END: [&str; 4] = ["ops_per_s", "op_p50_ns", "peak_rss_mb", "setup_s"];

/// The per-layer names that do not come from a [`Layer`], in output order.
#[cfg(test)]
pub const PER_LAYER_FIXED: [&str; 32] = [
    "structures.ns_per_op",
    "trace.op_ns",
    "trace.overhead_share",
    "trace.timer_ns",
    "trace.span_ns",
    "rc.deref.helped_share",
    "rc.deref.max_slot_scan",
    "rc.release.reclaims_per_op",
    "link.help_answers_per_op",
    "link.help_full_scan_share",
    "freelist.iters_per_alloc",
    "freelist.max_alloc_iters",
    "freelist.cas_fail_share",
    "freelist.gift_share",
    "freelist.max_free_push_retries",
    "magazine.hit_share",
    "arena.segments_grown",
    "pin.deferred_decs_per_op",
    "weak.upgrade_fail_share",
    "lease.checkout_p50_ns",
    "lease.checkout_p99_ns",
    "lease.handoff_share",
    "baseline.lfrc.ops_per_s",
    "baseline.lfrc.ratio",
    "tail.op_p99_ns",
    "tail.op_p999_ns",
    "tail.op_max_ns",
    "rounds.spread",
    "fail_share",
    "harness.threads",
    "harness.pinned",
    "harness.rounds",
];

fn plain(rounds: &[RoundOut]) -> impl Iterator<Item = &RoundOut> {
    rounds.iter().filter(|r| r.kind == Kind::Plain)
}

fn ops_per_s(r: &RoundOut) -> f64 {
    r.ops as f64 / r.wall_s
}

fn ns(ticks: u32) -> f64 {
    clock::to_ns(u64::from(ticks))
}

fn median_of(rounds: &[RoundOut], f: impl Fn(&RoundOut) -> f64) -> f64 {
    median(&plain(rounds).map(f).collect::<Vec<_>>())
}

/// Ops attempted and failed in every measured (non-warm-up) round.
pub fn attempts(rounds: &[RoundOut]) -> (u64, u64) {
    rounds
        .iter()
        .filter(|r| r.kind != Kind::Warmup)
        .fold((0, 0), |(a, f), r| (a + r.ops, f + r.failed))
}

pub fn end_to_end(rounds: &[RoundOut], peak_rss_mib: f64, setup_s: f64) -> Vec<Metric> {
    vec![
        metric("ops_per_s", median_of(rounds, ops_per_s), "ops/s"),
        metric("op_p50_ns", median_of(rounds, |r| ns(r.lat.p50)), "ns"),
        metric("peak_rss_mb", peak_rss_mib, "MiB"),
        metric("setup_s", setup_s, "s"),
    ]
}

/// Counters and lease statistics over the plain rounds: sums are the value
/// at the end of the last plain round minus the value just before the
/// first, the `max_*` gauges are the value at the end.
fn window(rounds: &[RoundOut]) -> (CounterSnapshot, LeaseSnapshot) {
    let first = rounds.iter().position(|r| r.kind == Kind::Plain);
    let last = rounds.iter().rposition(|r| r.kind == Kind::Plain);
    let (Some(first), Some(last)) = (first, last) else {
        return Default::default();
    };
    let zero = (CounterSnapshot::default(), LeaseSnapshot::default());
    let (b, lb) = match first.checked_sub(1) {
        Some(i) => (rounds[i].counters, rounds[i].lease),
        None => zero,
    };
    let (a, la) = (&rounds[last].counters, &rounds[last].lease);
    let counters = CounterSnapshot {
        deref_calls: a.deref_calls - b.deref_calls,
        deref_helped: a.deref_helped - b.deref_helped,
        max_deref_slot_scan: a.max_deref_slot_scan,
        deferred_decs: a.deferred_decs - b.deferred_decs,
        weak_upgrades: a.weak_upgrades - b.weak_upgrades,
        upgrade_failed: a.upgrade_failed - b.upgrade_failed,
        reclaims: a.reclaims - b.reclaims,
        help_calls: a.help_calls - b.help_calls,
        help_answers: a.help_answers - b.help_answers,
        help_scan_full: a.help_scan_full - b.help_scan_full,
        alloc_calls: a.alloc_calls - b.alloc_calls,
        alloc_iters: a.alloc_iters - b.alloc_iters,
        max_alloc_iters: a.max_alloc_iters,
        alloc_cas_failures: a.alloc_cas_failures - b.alloc_cas_failures,
        alloc_from_gift: a.alloc_from_gift - b.alloc_from_gift,
        max_free_push_retries: a.max_free_push_retries,
        magazine_hits: a.magazine_hits - b.magazine_hits,
        segments_grown: a.segments_grown - b.segments_grown,
        ..zero.0
    };
    let lease = LeaseSnapshot {
        issued: la.issued - lb.issued,
        handoffs: la.handoffs - lb.handoffs,
        ..zero.1
    };
    (counters, lease)
}

/// Everything the traced rounds recorded, merged.
pub fn traced_agg(rounds: &[RoundOut]) -> trace::Agg {
    let mut agg = trace::Agg::default();
    rounds
        .iter()
        .filter_map(|r| r.trace.as_ref())
        .for_each(|t| agg.merge(t));
    agg
}

pub struct PerLayerInput<'a> {
    pub wfrc_rounds: &'a [RoundOut],
    /// [`traced_agg`] of `wfrc_rounds`.
    pub traced: &'a trace::Agg,
    /// Sampled lease checkouts of the untraced wfrc rounds (ticks, sorted).
    pub checkout_ticks: &'a [u32],
    pub lfrc_rounds: &'a [RoundOut],
    /// [`trace::calibrate_timer`]'s result.
    pub timer_ticks: f64,
    pub threads: usize,
    pub pinned: bool,
}

pub fn per_layer(input: &PerLayerInput) -> Vec<Metric> {
    let rounds = input.wfrc_rounds;
    let mut out = Vec::new();

    let tr = trace::report(input.traced, input.timer_ticks);
    for layer in Layer::ALL {
        let (i, name) = (layer as usize, layer.name());
        out.push(metric(
            format!("{name}.calls_per_op"),
            tr.calls_per_op[i],
            "calls/op",
        ));
        out.push(metric(
            format!("{name}.ns_per_op"),
            tr.ns_per_op[i],
            "ns/op",
        ));
    }
    let untraced = median_of(rounds, ops_per_s);
    let traced: Vec<f64> = rounds
        .iter()
        .filter(|r| r.kind == Kind::Traced)
        .map(ops_per_s)
        .collect();
    let overhead = if traced.is_empty() {
        0.0
    } else {
        1.0 - median(&traced) / untraced
    };
    out.push(metric(
        "structures.ns_per_op",
        tr.structures_ns_per_op,
        "ns/op",
    ));
    out.push(metric("trace.op_ns", tr.op_ns, "ns/op"));
    out.push(metric("trace.overhead_share", overhead, "ratio"));
    out.push(metric(
        "trace.timer_ns",
        clock::ns_per_tick() * input.timer_ticks,
        "ns",
    ));
    out.push(metric(
        "trace.span_ns",
        clock::ns_per_tick() * tr.span_ticks,
        "ns",
    ));

    let (c, lease) = window(rounds);
    let ops: u64 = plain(rounds).map(|r| r.ops).sum();
    let failed: u64 = plain(rounds).map(|r| r.failed).sum();
    let checkout_ns = |q| ns(percentile(input.checkout_ticks, q));
    let counters = [
        (
            "rc.deref.helped_share",
            ratio(c.deref_helped, c.deref_calls),
            "ratio",
        ),
        (
            "rc.deref.max_slot_scan",
            c.max_deref_slot_scan as f64,
            "count",
        ),
        ("rc.release.reclaims_per_op", ratio(c.reclaims, ops), "1/op"),
        (
            "link.help_answers_per_op",
            ratio(c.help_answers, ops),
            "1/op",
        ),
        (
            "link.help_full_scan_share",
            ratio(c.help_scan_full, c.help_calls),
            "ratio",
        ),
        (
            "freelist.iters_per_alloc",
            ratio(c.alloc_iters, c.alloc_calls),
            "1/alloc",
        ),
        (
            "freelist.max_alloc_iters",
            c.max_alloc_iters as f64,
            "count",
        ),
        (
            "freelist.cas_fail_share",
            ratio(c.alloc_cas_failures, c.alloc_iters),
            "ratio",
        ),
        (
            "freelist.gift_share",
            ratio(c.alloc_from_gift, c.alloc_calls),
            "ratio",
        ),
        (
            "freelist.max_free_push_retries",
            c.max_free_push_retries as f64,
            "count",
        ),
        (
            "magazine.hit_share",
            ratio(c.magazine_hits, c.alloc_calls),
            "ratio",
        ),
        ("arena.segments_grown", c.segments_grown as f64, "count"),
        (
            "pin.deferred_decs_per_op",
            ratio(c.deferred_decs, ops),
            "1/op",
        ),
        (
            "weak.upgrade_fail_share",
            ratio(c.upgrade_failed, c.weak_upgrades),
            "ratio",
        ),
        ("lease.checkout_p50_ns", checkout_ns(0.50), "ns"),
        ("lease.checkout_p99_ns", checkout_ns(0.99), "ns"),
        (
            "lease.handoff_share",
            ratio(lease.handoffs, lease.issued),
            "ratio",
        ),
    ];
    out.extend(counters.map(|(n, v, u)| metric(n, v, u)));

    let lfrc = median_of(input.lfrc_rounds, ops_per_s);
    let speeds: Vec<f64> = plain(rounds).map(ops_per_s).collect();
    let spread = speeds
        .iter()
        .fold((f64::MAX, 0f64), |(lo, hi), &s| (lo.min(s), hi.max(s)));
    let max_ticks = plain(rounds).map(|r| r.lat.max).max().unwrap_or(0);
    out.push(metric("baseline.lfrc.ops_per_s", lfrc, "ops/s"));
    out.push(metric("baseline.lfrc.ratio", untraced / lfrc, "ratio"));
    out.push(metric(
        "tail.op_p99_ns",
        median_of(rounds, |r| ns(r.lat.p99)),
        "ns",
    ));
    out.push(metric(
        "tail.op_p999_ns",
        median_of(rounds, |r| ns(r.lat.p999)),
        "ns",
    ));
    out.push(metric("tail.op_max_ns", ns(max_ticks), "ns"));
    out.push(metric(
        "rounds.spread",
        (spread.1 - spread.0) / untraced,
        "ratio",
    ));
    out.push(metric("fail_share", ratio(failed, ops), "ratio"));
    out.push(metric("harness.threads", input.threads as f64, "count"));
    out.push(metric(
        "harness.pinned",
        f64::from(u8::from(input.pinned)),
        "count",
    ));
    out.push(metric("harness.rounds", speeds.len() as f64, "count"));
    out
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            // JSON has no NaN or infinity; a metric that is one is a bug
            // upstream, reported as 0 rather than as an unparsable line.
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(kind: Kind, ops: u64) -> RoundOut {
        RoundOut {
            kind,
            wall_s: 2.0,
            ops,
            failed: 0,
            lat: LatSummary::of(&mut (1..=100).collect::<Vec<u32>>()),
            counters: CounterSnapshot::default(),
            lease: LeaseSnapshot::default(),
            trace: (kind == Kind::Traced).then(trace::Agg::default),
        }
    }

    fn per_layer_names() -> Vec<String> {
        let mut names = Vec::new();
        for layer in Layer::ALL {
            names.push(format!("{}.calls_per_op", layer.name()));
            names.push(format!("{}.ns_per_op", layer.name()));
        }
        names.extend(PER_LAYER_FIXED.iter().map(|s| s.to_string()));
        names
    }

    #[test]
    fn end_to_end_is_the_median_of_the_plain_rounds() {
        let rounds = [
            round(Kind::Warmup, 1_000_000),
            round(Kind::Plain, 100),
            round(Kind::Plain, 300),
            round(Kind::Plain, 200),
        ];
        let m = end_to_end(&rounds, 12.5, 0.25);
        let names: Vec<&str> = m.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, END_TO_END);
        assert_eq!(m[0].value, 100.0); // 200 ops / 2 s
        assert_eq!(m[1].value, clock::to_ns(50));
        assert_eq!((m[2].value, m[3].value), (12.5, 0.25));
        assert_eq!(attempts(&rounds), (600, 0));
    }

    #[test]
    fn per_layer_reports_every_name_and_only_finite_values() {
        let mut before = round(Kind::Warmup, 50);
        before.counters.alloc_calls = 10;
        let mut after = round(Kind::Plain, 100);
        after.counters.alloc_calls = 60;
        after.counters.alloc_iters = 75;
        after.counters.max_alloc_iters = 4;
        let wfrc_rounds = [before, after, round(Kind::Traced, 80)];
        let lfrc_rounds = [round(Kind::Warmup, 50), round(Kind::Plain, 200)];
        let m = per_layer(&PerLayerInput {
            wfrc_rounds: &wfrc_rounds,
            traced: &traced_agg(&wfrc_rounds),
            checkout_ticks: &[],
            lfrc_rounds: &lfrc_rounds,
            timer_ticks: 10.0,
            threads: 2,
            pinned: true,
        });
        let names: Vec<String> = m.iter().map(|m| m.name.clone()).collect();
        assert_eq!(names, per_layer_names());
        assert!(
            m.iter().all(|m| m.value.is_finite()),
            "bypassed layers read 0"
        );
        let get = |n: &str| m.iter().find(|m| m.name == n).unwrap().value;
        // The warm-up's 10 allocations are outside the window.
        assert_eq!(get("freelist.iters_per_alloc"), 1.5);
        assert_eq!(get("freelist.max_alloc_iters"), 4.0);
        assert_eq!(get("baseline.lfrc.ratio"), 0.5);
        assert_eq!(get("tail.op_p99_ns"), clock::to_ns(99));
        assert!((get("trace.overhead_share") - 0.2).abs() < 1e-12);
        assert_eq!(get("rc.deref.helped_share"), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            true,
            7,
            0,
            &[metric("a.b", 1.5, "ns"), metric("c", f64::NAN, "s")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"a.b\": {\"value\": 1.5, \"unit\": \"ns\"}, \"c\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    /// BENCHMARK.json names the workloads and every metric the binary
    /// prints, in the same order; the driver checks one against the other.
    #[test]
    fn benchmark_json_names_what_is_reported() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed: Vec<&str> = text
            .split("\"name\": \"")
            .skip(1)
            .map(|rest| &rest[..rest.find('"').expect("closing quote")])
            .collect();
        let mut expected: Vec<String> = crate::workloads::ALL
            .iter()
            .map(|(name, _)| name.to_string())
            .collect();
        expected.extend(END_TO_END.iter().map(|s| s.to_string()));
        expected.extend(per_layer_names());
        assert_eq!(listed, expected);
    }
}

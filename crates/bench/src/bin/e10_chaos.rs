//! E10 — chaos: a rotating victim is killed, parked, or stalled
//! mid-operation, round after round, against one long-lived domain —
//! and every recovery is performed by a supervisor thread, never by the
//! round's own code.
//!
//! Every round arms all eight `FaultSite`s for one victim thread with a
//! per-hit probability and runs the victim's churn against survivor
//! threads while a dedicated [`wfrc_sim::Supervisor`] thread calls
//! `WfrcDomain::adopt_orphans` every `TICK_PERIOD`. A killed victim's
//! unwind orphans its slot and the next tick adopts it; the harness only
//! *waits* for `WfrcDomain::orphans_adopted` to advance and records the
//! MTTR (victim join observed → adoption complete). A parked victim is
//! released and exits cleanly — adoption touches only ORPHANED slots, so
//! its live registration is never seized. After every round the shared links
//! are cleared and `WfrcDomain::leak_check` must be spotless — one
//! corrupt or leaked node anywhere ends the run with a panic.
//!
//! Victims and survivors also attempt segment reclamation mid-churn (so
//! the `SegmentRetire` fault site gets real kills, mid-`DRAINING`), and
//! every round ends by shrinking the arena back to its capacity floor —
//! the next round regrows it, cycling retire/revive under chaos.
//!
//! The loop runs until it has seen at least `--rounds` kill/adopt cycles
//! AND `--secs` seconds have elapsed (both bounds must be met), so the
//! default invocation is a 30-second soak with ≥ 20 adoptions.
//!
//! ```text
//! cargo run --release --features fault-injection --bin e10_chaos \
//!     [-- --seed 42 --secs 30 --rounds 20 --json]
//! ```
//!
//! Without `--features fault-injection` the binary only explains itself:
//! the default build contains none of the injection hooks.

#[cfg(not(feature = "fault-injection"))]
fn main() {
    eprintln!("e10_chaos needs the fault-injection feature:");
    eprintln!("  cargo run --release --features fault-injection --bin e10_chaos");
    std::process::exit(2);
}

#[cfg(feature = "fault-injection")]
fn main() {
    chaos::run();
}

#[cfg(feature = "fault-injection")]
mod chaos {
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use wfrc_core::fault::silence_injected_deaths;
    use wfrc_core::{
        DomainConfig, FaultAction, FaultPlan, FaultSite, FireRule, Growth, InjectedDeath, Link,
        ReclaimOutcome, WfrcDomain,
    };
    use wfrc_sim::stats::Table;
    use wfrc_sim::{Histogram, Supervisor};

    const THREADS: usize = 4;
    // Deliberately below the churn's working set (the victim alone holds
    // up to 48 nodes): every round grows the arena past the floor, and
    // the end-of-round shrink has real segments to retire.
    const CAPACITY: usize = 16;
    const LINKS: usize = 8;
    const VICTIM_OPS: usize = 50_000;
    const SURVIVOR_OPS: usize = 5_000;
    const CHANCE: f64 = 0.02;
    /// Supervisor tick cadence: an orphan waits at most one period.
    const TICK_PERIOD: Duration = Duration::from_micros(200);
    /// A kill the supervisor has not healed within this bound is a bug.
    const MTTR_DEADLINE: Duration = Duration::from_secs(5);

    struct Cfg {
        seed: u64,
        secs: u64,
        rounds: u64,
        json: bool,
    }

    fn parse() -> Cfg {
        let mut cfg = Cfg {
            seed: 0xC5A0_5EED,
            secs: 30,
            rounds: 20,
            json: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            let mut num = |name: &str| -> u64 {
                it.next()
                    .unwrap_or_else(|| panic!("{name} needs a value"))
                    .parse()
                    .unwrap_or_else(|_| panic!("{name} needs an integer"))
            };
            match a.as_str() {
                "--seed" => cfg.seed = num("--seed"),
                "--secs" => cfg.secs = num("--secs"),
                "--rounds" => cfg.rounds = num("--rounds"),
                "--json" => cfg.json = true,
                other => panic!(
                    "unknown arg {other}; usage: e10_chaos [--seed N] [--secs N] [--rounds N] [--json]"
                ),
            }
        }
        cfg
    }

    /// The victim's churn: alloc/store/deref/release across the shared
    /// links with a bounded held pile, so every fault site gets hit. Exits
    /// early once a fault fired this round (a parked victim resumes here
    /// after release and leaves promptly).
    fn victim_churn(h: wfrc_core::ThreadHandle<'_, u64>, links: &[Link<u64>], plan: &FaultPlan) {
        let baseline = plan.injected();
        let mut held = Vec::new();
        for i in 0..VICTIM_OPS {
            if plan.injected() > baseline {
                break;
            }
            if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
                h.store(&links[i % links.len()], Some(&g));
                if held.len() < 48 {
                    held.push(g);
                }
            }
            if let Some(g) = h.deref(&links[(i + 1) % links.len()]) {
                std::hint::black_box(*g);
            }
            if i % 5 == 4 {
                held.pop();
            }
            // Periodic reclaim attempts put the victim on the retire path,
            // so the SegmentRetire fault site fires mid-DRAINING and the
            // round's adoption has a half-claimed segment to reopen.
            // Dropping the held pile and the shared links first gives the
            // trailing segment a real chance of being fully free (the
            // retire claim — and the fault site behind it — is
            // unreachable otherwise; fresh allocations come from the tail,
            // so a populated link almost always pins it). The beat must be
            // tight: armed rounds end at the first injected fault, which
            // the hot sites deliver within a few dozen iterations.
            if i % 48 == 47 {
                held.clear();
                for l in links {
                    h.store(l, None);
                }
                let _ = h.reclaim();
            }
        }
    }

    fn survivor_churn(h: wfrc_core::ThreadHandle<'_, u64>, links: &[Link<u64>]) {
        for i in 0..SURVIVOR_OPS {
            if let Ok(g) = h.alloc_with(|v| *v = i as u64) {
                h.store(&links[i % links.len()], Some(&g));
            }
            if let Some(g) = h.deref(&links[(i + 3) % links.len()]) {
                std::hint::black_box(*g);
            }
            // Survivors also try to shrink under full traffic; any outcome
            // is legal and the end-of-round audit settles the books.
            if i % 1024 == 1023 {
                let _ = h.reclaim();
            }
        }
    }

    pub fn run() {
        silence_injected_deaths();
        let cfg = parse();
        let mut domain = WfrcDomain::<u64>::new(
            DomainConfig::new(THREADS, CAPACITY)
                .with_magazine(8)
                .with_growth(Growth::doubling_to(1 << 14)),
        );
        let links: Vec<Link<u64>> = (0..LINKS).map(|_| Link::null()).collect();

        let start = Instant::now();
        let deadline = Duration::from_secs(cfg.secs);
        let mut rounds = 0u64;
        let mut kills = 0u64;
        let mut park_rounds = 0u64;
        let mut stall_rounds = 0u64;
        let mut clean_exits = 0u64;
        let mut kills_by_site = [0u64; FaultSite::ALL.len()];
        let mut faults_total = 0u64;
        let mut mttr = Histogram::new();
        let mut supervisor_ticks = 0u64;

        while kills < cfg.rounds || start.elapsed() < deadline {
            let round = rounds;
            rounds += 1;
            let victim_tid = (round as usize) % THREADS;
            // Kill twice as often as park/stall so the kill quota and the
            // wall-clock bound finish in the same ballpark.
            let action = match round % 4 {
                0 | 1 => FaultAction::Die,
                2 => FaultAction::Park,
                _ => FaultAction::Stall(2_000),
            };
            // A fresh per-round seed: `Chance` decisions are a pure function
            // of (seed, site, hit ordinal), so reusing one seed would replay
            // the same schedule every round and the busiest site would soak
            // up every kill.
            let plan = Arc::new(FaultPlan::new(
                cfg.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ));
            domain.set_fault_plan(Arc::clone(&plan));
            // Die rounds rotate a boosted "focus" site so kill coverage
            // reaches the rare sites (a one-time growth seeding, a helper's
            // answer CAS), not just the hot paths; the rest stay armed as
            // background noise.
            let focus = FaultSite::ALL[((round / 4) as usize) % FaultSite::ALL.len()];
            for site in FaultSite::ALL {
                let p = match action {
                    FaultAction::Die if site == focus => 10.0 * CHANCE,
                    FaultAction::Die => CHANCE / 4.0,
                    _ => CHANCE,
                };
                plan.arm_victim(victim_tid, site, action, FireRule::Chance(p));
            }

            let mut handles: Vec<_> = (0..THREADS)
                .map(|_| register_with_retry(&domain, round))
                .collect();
            // Handles come out in slot order; pull the victim's out.
            let victim = handles.remove(victim_tid);
            assert_eq!(victim.tid(), victim_tid);

            // The round's recovery plane: a supervisor thread calls
            // `adopt_orphans` on a timer while the churn runs. No other
            // code below calls it — a kill heals only through the timer.
            // The handle stops the thread when dropped, so a failed
            // assertion below ends the scope instead of hanging it.
            let adopted_before = domain.orphans_adopted();

            let (died, ticks) = std::thread::scope(|s| {
                let sup = Supervisor::spawn_scoped(s, TICK_PERIOD, || {
                    domain.adopt_orphans();
                });
                let links_ref = &links;
                let plan_ref: &FaultPlan = &plan;
                let vt = s.spawn(move || victim_churn(victim, links_ref, plan_ref));
                let survivors: Vec<_> = handles
                    .into_iter()
                    .map(|h| s.spawn(move || survivor_churn(h, links_ref)))
                    .collect();
                for t in survivors {
                    t.join().expect("survivors never die");
                }
                if matches!(action, FaultAction::Park) {
                    // Keep releasing: a Chance rule can re-park the victim.
                    while !vt.is_finished() {
                        plan.release();
                        std::thread::yield_now();
                    }
                }
                let died = match vt.join() {
                    Ok(()) => None,
                    Err(err) => {
                        let death = err
                            .downcast::<InjectedDeath>()
                            .expect("victims only die by injection");
                        Some(death.site)
                    }
                };
                if died.is_some() {
                    // Time-to-recovery: the join above is the moment an
                    // operator could first *observe* the death; the
                    // supervisor may already have adopted mid-churn (MTTR
                    // ~ 0) or may still be sleeping out its period.
                    let t0 = Instant::now();
                    while domain.orphans_adopted() <= adopted_before {
                        assert!(
                            t0.elapsed() < MTTR_DEADLINE,
                            "round {round}: supervisor failed to adopt a kill within {MTTR_DEADLINE:?} (seed {:#x})",
                            plan.seed()
                        );
                        std::thread::yield_now();
                    }
                    mttr.record(t0.elapsed().as_nanos() as u64);
                }
                sup.stop();
                (died, sup.ticks())
            });
            supervisor_ticks += ticks;

            match died {
                Some(site) => {
                    kills += 1;
                    kills_by_site[site as usize] += 1;
                }
                None => {
                    clean_exits += 1;
                    match action {
                        FaultAction::Park => park_rounds += 1,
                        FaultAction::Stall(_) => stall_rounds += 1,
                        FaultAction::Die | FaultAction::Swing => {}
                    }
                }
            }

            // End-of-round audit: clear the shared links, shrink the arena
            // back to its floor (the round is quiescent, so every grown
            // segment must retire — next round regrows from scratch, which
            // cycles retire/revive under chaos every round), and the domain
            // must account for every node.
            faults_total += plan.injected();
            plan.disarm();
            {
                let sweeper = register_with_retry(&domain, round);
                for l in &links {
                    sweeper.store(l, None);
                }
                let mut stalls = 0;
                loop {
                    match sweeper.reclaim() {
                        ReclaimOutcome::Retired { .. } => stalls = 0,
                        ReclaimOutcome::NoCandidate => break,
                        outcome => {
                            stalls += 1;
                            assert!(
                                stalls < 1_000,
                                "round {round}: quiescent reclaim stuck on {outcome:?}"
                            );
                            std::thread::yield_now();
                        }
                    }
                }
            }
            let leaks = domain.leak_check();
            assert!(leaks.is_clean(), "round {round} leaked: {leaks:?}");
        }

        let elapsed = start.elapsed();
        let mut table = Table::new(
            "E10: chaos soak — supervisor-driven recovery, rotating victim killed/parked/stalled",
            &["metric", "value"],
        );
        table.row(&["seed".into(), format!("{:#x}", cfg.seed)]);
        table.row(&["rounds".into(), rounds.to_string()]);
        table.row(&["kills (supervisor-adopted)".into(), kills.to_string()]);
        table.row(&["park rounds survived".into(), park_rounds.to_string()]);
        table.row(&["stall rounds survived".into(), stall_rounds.to_string()]);
        table.row(&["clean victim exits".into(), clean_exits.to_string()]);
        table.row(&["faults injected".into(), faults_total.to_string()]);
        table.row(&[
            "orphan nodes recovered".into(),
            domain.orphan_nodes_recovered().to_string(),
        ]);
        table.row(&[
            "mttr p50 µs".into(),
            (mttr.quantile(0.50) / 1_000).to_string(),
        ]);
        table.row(&[
            "mttr p99 µs".into(),
            (mttr.quantile(0.99) / 1_000).to_string(),
        ]);
        table.row(&["mttr max µs".into(), (mttr.max() / 1_000).to_string()]);
        table.row(&["supervisor ticks".into(), supervisor_ticks.to_string()]);
        for site in FaultSite::ALL {
            table.row(&[
                format!("kills at {}", site.name()),
                kills_by_site[site as usize].to_string(),
            ]);
        }
        table.row(&[
            "segments retired (elastic)".into(),
            domain.segments_retired().to_string(),
        ]);
        table.row(&[
            "segments revived".into(),
            domain.segments_revived().to_string(),
        ]);
        table.row(&["capacity (grown)".into(), domain.capacity().to_string()]);
        table.row(&["elapsed s".into(), format!("{:.1}", elapsed.as_secs_f64())]);
        table.row(&["manual recovery calls".into(), "0".into()]);
        table.row(&["leak check".into(), "clean every round".into()]);
        println!("{}", table.render());
        if cfg.json {
            println!("{}", table.to_json());
        }
    }

    /// Registers a handle, retrying briefly: the supervisor frees a dead
    /// victim's slot asynchronously, so the next round's registration can
    /// race the tail of an adoption.
    fn register_with_retry<'d>(
        domain: &'d WfrcDomain<u64>,
        round: u64,
    ) -> wfrc_core::ThreadHandle<'d, u64> {
        let t0 = Instant::now();
        loop {
            match domain.register() {
                Ok(h) => return h,
                Err(_) => {
                    assert!(
                        t0.elapsed() < MTTR_DEADLINE,
                        "round {round}: registry still full — adoption stalled"
                    );
                    std::thread::yield_now();
                }
            }
        }
    }
}

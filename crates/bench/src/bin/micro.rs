//! Hot-path microbenchmarks.
//!
//! `cargo run --release -p mntp-bench --bin micro [FILTER] [--quick]`
//! writes `results/bench/BENCH_micro.json`.

use devtools::bench::Suite;
use std::hint::black_box;

use clocksim::fit::{fit_line, fit_poly};
use clocksim::rng::SimRng;
use clocksim::time::{SimDuration, SimTime};
use mntp::TrendFilter;
use netsim::lanes::ChannelBank;
use netsim::wifi::WifiConfig;
use ntp_wire::{sntp_profile, Exchange, NtpPacket, NtpTimestamp};
use sntp::select::{select_survivors, PeerCandidate};

fn bench_packet_codec(s: &mut Suite) {
    let packet = sntp_profile::client_request(NtpTimestamp::from_parts(1000, 42));
    let bytes = packet.serialize();
    s.bench("packet_serialize", |b| b.iter(|| black_box(&packet).serialize()));
    s.bench("packet_parse", |b| b.iter(|| NtpPacket::parse(black_box(&bytes)).unwrap()));
}

fn bench_clock_algebra(s: &mut Suite) {
    let e = Exchange {
        t1: NtpTimestamp::from_parts(100, 0),
        t2: NtpTimestamp::from_parts(100, 1 << 30),
        t3: NtpTimestamp::from_parts(100, 1 << 31),
        t4: NtpTimestamp::from_parts(101, 0),
    };
    s.bench("exchange_offset_delay", |b| {
        b.iter(|| (black_box(&e).offset(), black_box(&e).delay()))
    });
}

fn bench_rng(s: &mut Suite) {
    s.bench("rng_next_u64", |b| {
        let mut rng = SimRng::new(1);
        b.iter(|| rng.next_u64())
    });
    s.bench("rng_gauss", |b| {
        let mut rng = SimRng::new(2);
        b.iter(|| rng.gauss())
    });
    s.bench("rng_pareto", |b| {
        let mut rng = SimRng::new(3);
        b.iter(|| rng.pareto(40.0, 1.5))
    });
}

fn bench_fits(s: &mut Suite) {
    let points: Vec<(f64, f64)> =
        (0..512).map(|i| (i as f64, 0.03 * i as f64 + ((i * 7 % 13) as f64 - 6.0))).collect();
    s.bench("fit_line_512", |b| b.iter(|| fit_line(black_box(&points)).unwrap()));
    s.bench("fit_poly2_512", |b| b.iter(|| fit_poly(black_box(&points), 2).unwrap()));
}

fn bench_trend_filter(s: &mut Suite) {
    s.bench("trend_filter_offer_stream", |b| {
        b.iter(|| {
            let mut f = TrendFilter::new(1.0, true);
            for i in 0..256 {
                let t = i as f64 * 5.0;
                let spike = if i % 17 == 16 { 200.0 } else { 0.0 };
                f.offer(t, -0.03 * t + spike);
            }
            f.counts()
        })
    });
}

fn bench_select(s: &mut Suite) {
    let cands: Vec<PeerCandidate> = (0..16)
        .map(|i| PeerCandidate {
            peer_id: i,
            offset: if i == 7 { 0.5 } else { 0.001 * i as f64 },
            root_distance: 0.02,
            jitter: 0.001,
        })
        .collect();
    s.bench("marzullo_select_16", |b| b.iter(|| select_survivors(black_box(&cands))));
}

fn bench_par_pool(s: &mut Suite) {
    use devtools::par::Pool;
    // Dispatch overhead: near-trivial tasks, so the measurement is the
    // pool machinery (thread spawn, queue locking, the sort by index) and
    // not the work. jobs=1 is the inline serial path (the floor). The
    // fan-out benches ask for 2 workers, no more than a 2-vCPU host runs
    // at once, so they time the pool rather than thread oversubscription.
    let items: Vec<u64> = (0..256).collect();
    s.bench("par_map_256_trivial_jobs1", |b| {
        let pool = Pool::with_jobs(1);
        b.iter(|| pool.map(items.clone(), |x| x.wrapping_mul(2654435761)))
    });
    s.bench("par_map_256_trivial_jobs2", |b| {
        let pool = Pool::with_jobs(2);
        b.iter(|| pool.map(items.clone(), |x| x.wrapping_mul(2654435761)))
    });
    // Per-dispatch cost amortized over real work: each task spins long
    // enough that the pool overhead should disappear into the noise.
    s.bench("par_map_8_busy_jobs2", |b| {
        let pool = Pool::with_jobs(2);
        let work: Vec<u64> = (0..8).collect();
        b.iter(|| {
            pool.map(work.clone(), |seed| {
                let mut x = seed.wrapping_add(1);
                for _ in 0..20_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                }
                x
            })
        })
    });
}

fn bench_wifi_channel(s: &mut Suite) {
    // One station on a one-lane bank: the testbed's wireless hop.
    s.bench("wifi_transmit_down", |b| {
        let mut ch = ChannelBank::new(WifiConfig::default(), vec![SimRng::new(4)]);
        ch.set_utilization_now(0.6);
        let mut t = 0i64;
        b.iter(|| {
            t += 100;
            ch.lane(0).and_then(|mut lane| lane.transmit_down(SimTime::from_millis(t)))
        })
    });
    s.bench("wifi_hints", |b| {
        let mut ch = ChannelBank::new(WifiConfig::default(), vec![SimRng::new(5)]);
        let mut t = 0i64;
        b.iter(|| {
            t += 100;
            ch.lane(0).map(|mut lane| lane.hints(SimTime::from_millis(t)))
        })
    });
}

fn bench_exchange(s: &mut Suite) {
    use sntp::{perform_exchange, PoolConfig, ServerPool};
    s.bench("full_exchange_wired", |b| {
        let mut tb = netsim::Testbed::wired(6);
        let mut pool = ServerPool::new(PoolConfig::default(), 7);
        let osc = clocksim::OscillatorConfig::laptop().build(SimRng::new(8));
        let mut clock = clocksim::SimClock::new(osc, SimTime::ZERO);
        let mut t = 0i64;
        b.iter(|| {
            t += 5;
            let id = pool.pick();
            perform_exchange(&mut tb, pool.server_mut(id), &mut clock, SimTime::from_secs(t))
        })
    });
}

fn bench_fleet_kernel(s: &mut Suite) {
    use devtools::par::Pool;
    use mntp::{run_fleet_on, Discipline, FleetClient, FleetRunConfig, SntpDiscipline};
    use netsim::fleet::{FleetConfig, FleetNet};
    use sntp::fleet::RequestShape;
    use sntp::{PickLane, PoolConfig, ServerPool};

    fn naive_clients(n: usize) -> Vec<FleetClient> {
        (0..n)
            .map(|i| FleetClient {
                discipline: Box::new(SntpDiscipline::naive().self_paced(5.0))
                    as Box<dyn Discipline>,
                clock: {
                    let osc =
                        clocksim::OscillatorConfig::laptop().build(SimRng::new(100 + i as u64));
                    clocksim::SimClock::new(osc, SimTime::ZERO)
                },
                select: PickLane::new(4, 200 + i as u64),
                shape: RequestShape::Sntp,
            })
            .collect()
    }

    // Fleet hot path at N=1k: one iteration builds 1000 naive SNTP
    // clients and steps them through 5 s of shared-world time against a
    // persistent world (≈2000 exchanges + 6000 client-ticks per iter).
    s.bench("fleet_kernel_1k_clients_5s", |b| {
        let fcfg = FleetConfig { clients: 1000, servers: 4, ..FleetConfig::default() };
        let mut net = FleetNet::new(&fcfg, 30);
        let mut pool = ServerPool::new(PoolConfig { size: 4, ..PoolConfig::default() }, 31);
        let cfg = FleetRunConfig {
            start_secs: 0.0,
            duration_secs: 5,
            tick_secs: 1.0,
            sample_period_secs: 5.0,
            collect_arrivals: false,
            steady_cutoff_secs: None,
        };
        let serial = Pool::with_jobs(1);
        b.iter(|| {
            let mut clients = naive_clients(1000);
            run_fleet_on(&serial, &mut clients, &mut net, &mut pool, &cfg).polls_sent
        })
    });
    // Same shape at N=100k with 8 shards: the cache-linear
    // ChannelBank tick and the epoch-barrier runner under the load the
    // scale experiments use (steady-state sampling, serial worker).
    s.bench("fleet_kernel_100k_clients", |b| {
        let fcfg =
            FleetConfig { clients: 100_000, servers: 4, shards: 8, ..FleetConfig::default() };
        let mut net = FleetNet::new(&fcfg, 32);
        let mut pool = ServerPool::new(PoolConfig { size: 4, ..PoolConfig::default() }, 33);
        let cfg = FleetRunConfig {
            start_secs: 0.0,
            duration_secs: 2,
            tick_secs: 1.0,
            sample_period_secs: 2.0,
            collect_arrivals: false,
            steady_cutoff_secs: Some(1.0),
        };
        let serial = Pool::with_jobs(1);
        b.iter(|| {
            let mut clients = naive_clients(100_000);
            run_fleet_on(&serial, &mut clients, &mut net, &mut pool, &cfg).polls_sent
        })
    });
}

fn bench_chaos_fleet(s: &mut Suite) {
    use devtools::par::Pool;
    use mntp::{
        run_fleet_chaos_on, ChaosSession, Discipline, FleetClient, FleetRunConfig, SntpDiscipline,
    };
    use netsim::chaos::{ChaosEvent, ClientRange, FleetFaultPlan};
    use netsim::fleet::{FleetConfig, FleetNet};
    use netsim::ServerSet;
    use sntp::fleet::RequestShape;
    use sntp::{PickLane, PoolConfig, ServerPool};

    const N: usize = 10_000;
    fn clients() -> Vec<FleetClient> {
        (0..N)
            .map(|i| FleetClient {
                discipline: Box::new(SntpDiscipline::naive().self_paced(5.0))
                    as Box<dyn Discipline>,
                clock: {
                    let osc =
                        clocksim::OscillatorConfig::laptop().build(SimRng::new(400 + i as u64));
                    clocksim::SimClock::new(osc, SimTime::ZERO)
                },
                select: PickLane::new(4, 500 + i as u64),
                shape: RequestShape::Sntp,
            })
            .collect()
    }
    // The chaos runner's per-tick overhead: the same 10k-client step
    // with an empty plan vs one whose windows fire mid-run (a storm,
    // an outage, and a step wave all active). The pair bounds what the
    // fault-injection layer costs the un-faulted hot path (<5% is the
    // acceptance bar; the latch scan is O(windows) per client-tick).
    let plans: [(&str, fn() -> FleetFaultPlan); 2] = [
        ("chaosfleet_10k_step_noplan", FleetFaultPlan::none as fn() -> FleetFaultPlan),
        ("chaosfleet_10k_step", || {
            FleetFaultPlan::new(9)
                .window(
                    1.0,
                    4.0,
                    ChaosEvent::RegionalLossStorm {
                        region: ClientRange::new(0, (N / 4) as u32),
                        loss_prob: 0.5,
                    },
                )
                .window(1.0, 4.0, ChaosEvent::ServerOutage { servers: ServerSet::One(0) })
                .window(
                    2.0,
                    3.0,
                    ChaosEvent::ClockStepWave {
                        region: ClientRange::new(0, (N / 4) as u32),
                        offset_ms: -80.0,
                    },
                )
        }),
    ];
    for (name, mk_plan) in plans {
        s.bench(name, move |b| {
            let fcfg = FleetConfig { clients: N, servers: 4, shards: 8, ..FleetConfig::default() };
            let mut net = FleetNet::new(&fcfg, 40);
            let mut pool = ServerPool::new(PoolConfig { size: 4, ..PoolConfig::default() }, 41);
            let par = Pool::with_jobs(1);
            let cfg = FleetRunConfig {
                start_secs: 0.0,
                duration_secs: 5,
                tick_secs: 1.0,
                sample_period_secs: 5.0,
                collect_arrivals: false,
                steady_cutoff_secs: Some(1.0),
            };
            b.iter(|| {
                let mut cl = clients();
                let mut session = ChaosSession::new(mk_plan(), &mut net, Vec::new(), 0);
                run_fleet_chaos_on(&par, &mut cl, &mut net, &mut pool, &cfg, &mut session)
                    .polls_sent
            })
        });
    }
}

fn bench_server_core(s: &mut Suite) {
    use devtools::par::Pool;
    use sntp::server_core::{CoreConfig, ReplyRing, RequestRing, ServerCore};

    const BATCH: usize = 4096;
    fn fill_batch_n(n: usize) -> RequestRing {
        let mut reqs = RequestRing::with_capacity(n);
        for i in 0..n as u64 {
            let at = SimTime::from_millis(10_000 + i as i64);
            let wire = sntp_profile::client_request(at.to_ntp()).serialize();
            reqs.push(i, at, &wire);
        }
        reqs
    }
    fn fill_batch() -> RequestRing {
        fill_batch_n(BATCH)
    }
    let cfg = CoreConfig {
        min_poll_interval: Some(SimDuration::from_secs(16)),
        table_capacity: BATCH,
        ..CoreConfig::default()
    };
    // Stage 1 in isolation: zero-copy parse + wire-shape classification
    // over a full ring, no table or reply work.
    s.bench("server_core_classify_4k", |b| {
        let reqs = fill_batch();
        let mut core = ServerCore::new(cfg);
        b.iter(|| core.classify_batch(&reqs))
    });
    // The headline single-core number: full classify → rate-limit →
    // emit over a 4096-request batch (pkt/s = 4096 / mean). Arrivals
    // advance 32 s per iteration so the limiter keeps taking the served
    // path instead of collapsing into the cheaper KoD write.
    s.bench("server_core_parse_reply_4k", |b| {
        let mut reqs = fill_batch();
        let mut core = ServerCore::new(cfg);
        let mut out = ReplyRing::new();
        b.iter(|| {
            reqs.advance_arrivals(SimDuration::from_secs(32));
            core.process_batch(&reqs, &mut out);
            out.len()
        })
    });
    // Stage 2 ablated: rate limiting off, so the delta against the
    // bench above is the table bookkeeping cost.
    s.bench("server_core_parse_reply_4k_nolimit", |b| {
        let mut reqs = fill_batch();
        let mut core = ServerCore::new(CoreConfig { min_poll_interval: None, ..cfg });
        let mut out = ReplyRing::new();
        b.iter(|| {
            reqs.advance_arrivals(SimDuration::from_secs(32));
            core.process_batch(&reqs, &mut out);
            out.len()
        })
    });
    // Sharded scale-out at a batch size where shard work dwarfs the
    // pool's per-dispatch cost (see par_map_256_trivial_jobs2): a
    // 64k-request batch serially vs 8 shards over 2 workers. Output is
    // byte-identical either way (the property tests pin that; this pair
    // measures what the parallelism buys).
    const BIG: usize = 65_536;
    s.bench("server_core_parse_reply_64k", |b| {
        let mut reqs = fill_batch_n(BIG);
        let mut core = ServerCore::new(CoreConfig { table_capacity: BIG, ..cfg });
        let mut out = ReplyRing::new();
        b.iter(|| {
            reqs.advance_arrivals(SimDuration::from_secs(32));
            core.process_batch(&reqs, &mut out);
            out.len()
        })
    });
    s.bench("server_core_parse_reply_64k_sharded8", |b| {
        let mut reqs = fill_batch_n(BIG);
        let mut core =
            ServerCore::new(CoreConfig { shards: 8, table_capacity: BIG, ..cfg });
        let pool = Pool::with_jobs(2);
        let mut out = ReplyRing::new();
        b.iter(|| {
            reqs.advance_arrivals(SimDuration::from_secs(32));
            core.process_batch_on(&reqs, &mut out, &pool);
            out.len()
        })
    });
}

fn bench_lint(s: &mut Suite) {
    use devtools::lint;
    use std::path::Path;

    // The workspace sources are loaded once up front so both benches
    // measure pure analysis over in-memory text, not disk I/O. The
    // token-only pass (tokenize + per-line rules, what lint v1 did) is
    // the reference; the interprocedural pass runs the whole pipeline —
    // tokenize, item extraction, call-graph assembly, reachability and
    // taint — and is budgeted at < 2x the token pass in review.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("bench crate lives at crates/bench");
    let cfg = lint::load_config(root).expect("lint.toml parses");
    let files = lint::walk::rust_files(root, &cfg).expect("workspace walk");
    let sources: Vec<(String, String)> = files
        .into_iter()
        .map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).expect("read workspace source");
            (rel, src)
        })
        .collect();
    let crates = lint::crate_name_map(root);

    s.bench("lint_workspace_tokens", |b| {
        b.iter(|| {
            let mut findings = 0usize;
            for (rel, src) in &sources {
                let toks = lint::tokens::tokenize(src);
                let scan = lint::rules::scan_tokens(&toks, |l| {
                    cfg.lint_enabled(l.name, l.class == lint::Class::Panic, rel)
                });
                findings += scan.findings.len();
            }
            findings
        })
    });
    s.bench("lint_workspace_interproc", |b| {
        b.iter(|| {
            let a = lint::analyze_sources(black_box(&sources), &cfg, &crates);
            (a.outcome.findings.len(), a.graph.nodes.len())
        })
    });
}

fn bench_streaming_analytics(s: &mut Suite) {
    use loganalysis::model::SERVERS;
    use loganalysis::owd::{extract_owds, OwdFilter};
    use loganalysis::stream::ChunkSummary;
    use loganalysis::synth::{
        chunk_plan, generate_server_log, stream_chunk, StreamSynthConfig, SynthConfig,
    };

    // Equal-N throughput pair: one iteration generates AND analyzes the
    // same Table 1 slice (AG1 at 1/610 scale ≈ 16.4k records) through
    // each path. The streaming path never materializes a log; the batch
    // path builds the ServerLog and runs the legacy whole-log analyzers.
    // mean_ns / N is the ns-per-record figure EXPERIMENTS.md quotes.
    let ag1 = SERVERS.iter().find(|sv| sv.id == "AG1").expect("AG1 in Table 1");
    let scale = 610;
    let scfg = StreamSynthConfig { scale, duration_secs: 86_400, chunk_records: 1 << 14 };
    let n = chunk_plan(ag1, &scfg).total_records;
    s.bench("fullscale_records_per_sec", |b| {
        let filter = OwdFilter::default();
        b.iter(|| {
            let plan = chunk_plan(ag1, &scfg);
            let mut sum = ChunkSummary::default();
            for c in 0..plan.chunks {
                let mut s = ChunkSummary::default();
                stream_chunk(ag1, 0, &scfg, 2016, c, &mut |r| s.push(r, &filter));
                sum.merge_adjacent(&s);
            }
            assert_eq!(sum.records, n);
            sum.records
        })
    });
    // Analysis seam alone (generation factored out): the same records
    // pushed through the composite sink from a pre-built log.
    s.bench("stream_sink_push_records_per_sec", |b| {
        let filter = OwdFilter::default();
        let log = generate_server_log(ag1, &SynthConfig { scale, duration_secs: 86_400 }, 2016);
        b.iter(|| {
            let mut sum = ChunkSummary::default();
            for r in &log.records {
                sum.push(r, &filter);
            }
            sum.records
        })
    });
    s.bench("fullscale_batch_records_per_sec", |b| {
        let filter = OwdFilter::default();
        let cfg = SynthConfig { scale, duration_secs: 86_400 };
        b.iter(|| {
            let log = generate_server_log(ag1, &cfg, 2016);
            let owds = extract_owds(&log, &filter);
            let kept: usize = owds.values().map(|c| c.samples_ms.len()).sum();
            let inter = loganalysis::global_interarrival(&log);
            let share = loganalysis::protocol::sntp_share(&log);
            black_box((kept, inter, share));
            log.records.len()
        })
    });
}

fn main() {
    let mut s = Suite::from_args("micro");
    bench_packet_codec(&mut s);
    bench_clock_algebra(&mut s);
    bench_rng(&mut s);
    bench_fits(&mut s);
    bench_trend_filter(&mut s);
    bench_select(&mut s);
    bench_par_pool(&mut s);
    bench_wifi_channel(&mut s);
    bench_exchange(&mut s);
    bench_fleet_kernel(&mut s);
    bench_chaos_fleet(&mut s);
    bench_server_core(&mut s);
    bench_streaming_analytics(&mut s);
    bench_lint(&mut s);
    s.finish().expect("write bench report");
}

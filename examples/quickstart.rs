//! Quickstart: synchronize a drifting clock over a hostile wireless
//! channel with MNTP, and see what plain SNTP would have reported.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mntp_repro::clocksim::time::SimTime;
use mntp_repro::clocksim::{stats, OscillatorConfig, SimClock, SimRng};
use mntp_repro::mntp::{drive, DriverConfig, MntpConfig, SntpDiscipline};
use mntp_repro::netsim::testbed::TestbedConfig;
use mntp_repro::netsim::Testbed;
use mntp_repro::sntp::{perform_exchange, PoolConfig, ServerPool};

fn main() {
    let seed = 7u64;

    // A laboratory wireless testbed: WAP + monitor node stirring the
    // channel (paper §3.2), and a pool of simulated NTP servers.
    let mut testbed = Testbed::wireless(TestbedConfig::default(), seed);
    let mut pool = ServerPool::new(PoolConfig::default(), seed + 1);

    // The device clock: a laptop crystal running 30 ppm fast.
    let osc = OscillatorConfig::laptop().with_skew_ppm(30.0).build(SimRng::new(seed + 2));
    let mut clock = SimClock::new(osc, SimTime::ZERO);

    // --- Plain SNTP: poll every 5 s for 15 minutes, trust every reply ---
    let mut sntp_offsets = Vec::new();
    for i in 0..180 {
        let t = SimTime::from_secs(i * 5);
        let server = pool.pick();
        if let Ok(done) = perform_exchange(&mut testbed, pool.server_mut(server), &mut clock, t) {
            sntp_offsets.push(done.sample.offset.as_millis_f64());
        }
    }
    let sntp = stats::Summary::of(&sntp_offsets);
    println!("SNTP  : {} samples, mean offset {:+.1} ms, worst {:+.1} ms", sntp.n, sntp.mean, sntp.max_abs());

    // --- MNTP: same channel, same pool, gate + trend filter ---
    let mut testbed = Testbed::wireless(TestbedConfig::default(), seed);
    let mut pool = ServerPool::new(PoolConfig::default(), seed + 1);
    let osc = OscillatorConfig::laptop().with_skew_ppm(30.0).build(SimRng::new(seed + 2));
    let mut clock = SimClock::new(osc, SimTime::ZERO);
    let mut mntp = SntpDiscipline::baseline(&MntpConfig::baseline(5.0));
    let every_poll = DriverConfig { sample_every_tick: true, ..DriverConfig::span(900, 5.0) };
    let run = drive(&mut mntp, &mut testbed, &mut pool, &mut clock, None, &every_poll);
    let accepted = run.accepted_offsets();
    let acc = stats::Summary::of(&accepted);
    println!(
        "MNTP  : {} accepted / {} rejected / {} deferred, mean offset {:+.1} ms, worst {:+.1} ms",
        acc.n,
        run.rejected_offsets().len(),
        run.deferrals(),
        acc.mean,
        acc.max_abs()
    );
    println!(
        "\nMNTP's worst accepted offset is {:.1}x smaller than SNTP's worst sample.",
        sntp.max_abs() / acc.max_abs().max(0.1)
    );
}

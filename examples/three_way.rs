//! SNTP vs MNTP vs full NTP (`ntpd-sim`), each disciplining its own
//! clock over identical wireless conditions — the benchmarking the paper
//! lists as future work.
//!
//! ```text
//! cargo run --release --example three_way
//! ```

use devtools::par::Pool;
use mntp_repro::experiments::extended;

fn main() {
    println!("running SNTP / MNTP / NTP head-to-head (2 simulated hours each)…\n");
    let r = extended::three_way_on(&Pool::from_env(), 42, 2 * 3600);
    print!("{}", extended::render_three_way(&r));
    println!(
        "\nTakeaways: naive SNTP stepping wrecks the clock on every wireless spike;\n\
         MNTP holds NTP-grade accuracy at a fraction of NTP's network traffic."
    );
}

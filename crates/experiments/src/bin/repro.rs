//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p experiments --bin repro              # everything
//! cargo run --release -p experiments --bin repro -- fig6 fig8 # a subset
//! cargo run --release -p experiments --bin repro -- --quick   # short horizons
//! cargo run --release -p experiments --bin repro -- --jobs 4  # worker count
//! ```
//!
//! Figures run concurrently on the in-tree `devtools::par` pool
//! (`--jobs N` or `MNTP_JOBS=N`; default = core count), but output is
//! buffered and emitted in the fixed figure order, so stdout and
//! `results/<id>.txt` are byte-identical at any worker count.
//!
//! Exits 1 if any artifact failed to write, 2 on bad arguments.

use experiments::repro;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match repro::Options::from_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let report = repro::run(&opts);
    println!(
        "\n{} artifact(s) written to {}/",
        report.written.len(),
        opts.out_dir.display()
    );
    if !report.write_failures.is_empty() {
        for (id, err) in &report.write_failures {
            eprintln!("error: artifact {id} was not written: {err}");
        }
        std::process::exit(1);
    }
}

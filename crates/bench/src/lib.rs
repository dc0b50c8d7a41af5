//! Bench-only crate: see `src/bin/` for the benchmark suite binaries,
//! built on the in-tree `devtools::bench` harness (JSON reports land in
//! `results/bench/`).
//!
//! * `figures` — one benchmark per paper table/figure pipeline (at
//!   reduced horizons; the `repro` binary produces the full-horizon
//!   numbers).
//! * `micro` — hot-path microbenchmarks: packet codec, clock algebra,
//!   RNG, least-squares fits, the trend filter, NTP mitigation stages,
//!   and the channel models.
//! * `ablations` — runtime cost of each MNTP mechanism combination
//!   (the corresponding *quality* numbers come from
//!   `experiments::ablations` via the `repro` binary).

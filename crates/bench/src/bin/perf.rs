//! Simulator-throughput harness: times every core family on Spec and RISC-V
//! workloads and writes `target/BENCH_sim_throughput.json`, or the file
//! `out=` names (see `dkip_bench::throughput`).
//!
//! Usage (all arguments optional, any order):
//!
//! ```text
//! perf [budget=N] [samples=N] [out=PATH] [check=PATH] [tolerance=F] [floor=F]
//! ```
//!
//! * `check=PATH` compares the fresh per-family geomean MIPS against a
//!   committed baseline report and exits 1 on a regression larger than
//!   `tolerance` (default 0.30).
//! * `floor=F` additionally requires the `dkip` family to reach `F` MIPS.

use dkip_bench::throughput::{run, PerfArgs};

fn main() {
    std::process::exit(run(&PerfArgs::from_env()));
}

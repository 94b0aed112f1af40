//! Regenerates Figure 3: the decode→issue distance distribution on an
//! unbounded processor with 400-cycle memory (SpecFP).
use dkip_bench::FigureArgs;
use dkip_sim::experiments::figure3_issue_histogram;
use dkip_trace::Suite;
fn main() {
    let args = FigureArgs::from_env_exact(dkip_bench::ISSUE_HISTOGRAM_READS);
    let runner = args.runner();
    let hist = figure3_issue_histogram(
        &args.benchmarks(Suite::Fp),
        args.instr_budget(dkip_bench::DEFAULT_BUDGET),
        &runner,
    );
    println!("# Figure 3: decode->issue distance distribution (SpecFP, MEM-400, unbounded core)");
    println!("{:>12} {:>10} {:>8}", "distance", "count", "percent");
    for (lower, count) in hist.iter() {
        if count > 0 {
            println!(
                "{lower:>12} {count:>10} {:>7.2}%",
                100.0 * count as f64 / hist.total_samples() as f64
            );
        }
    }
    println!("overflow(>2000): {}", hist.overflow_count());
    println!(
        "fraction issuing within 300 cycles: {:.1}%",
        100.0 * hist.fraction_at_most(300)
    );
    args.finish_cache(&runner);
}

//! Regenerates Figure 14: maximum LLIB instructions and registers, SpecFP.
use dkip_bench::FigureArgs;
use dkip_sim::experiments::figure_llib_occupancy;
use dkip_trace::Suite;
fn main() {
    let args = FigureArgs::from_env_exact(dkip_bench::LLIB_OCCUPANCY_READS);
    let runner = args.runner();
    let fig = figure_llib_occupancy(
        Suite::Fp,
        &args.benchmarks(Suite::Fp),
        args.instr_budget(dkip_bench::DEFAULT_BUDGET),
        &runner,
    );
    println!("{}", fig.render());
    args.finish_cache(&runner);
}

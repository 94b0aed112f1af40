//! The dynamic trace generator.
//!
//! [`TraceGenerator`] walks a [`ProgramTemplate`] iteration after iteration
//! and produces the dynamic [`MicroOp`] stream: static loads get concrete
//! effective addresses according to their [`AddressPattern`], static
//! branches get resolved directions according to their [`BranchBehavior`],
//! and every emitted micro-op receives a dense dynamic sequence number.

use crate::spec::{Benchmark, WorkloadSpec};
use crate::template::{AddressPattern, BranchBehavior, ProgramTemplate, Region};
use dkip_model::{BranchInfo, MicroOp, WarmSink};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Base virtual address of the synthetic data segment.
const DATA_BASE: u64 = 0x1000_0000;
/// Each streaming stream owns a region this far from its neighbours.
const STREAM_REGION_GAP: u64 = 1 << 30;
/// Base virtual address of the hot, cache-resident region.
const HOT_BASE: u64 = 0x7fff_0000;
/// Size of the hot region in bytes; small enough to fit in the 32 KB L1.
const HOT_REGION_BYTES: u64 = 16 * 1024;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// An infinite iterator of dynamic micro-ops for one benchmark.
///
/// The stream is fully deterministic for a given `(benchmark, seed)` pair.
///
/// # Example
///
/// ```
/// use dkip_trace::{Benchmark, TraceGenerator};
///
/// let a: Vec<_> = TraceGenerator::new(Benchmark::Swim, 1).take(100).collect();
/// let b: Vec<_> = TraceGenerator::new(Benchmark::Swim, 1).take(100).collect();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    template: ProgramTemplate,
    rng: StdRng,
    seq: u64,
    index: usize,
    iteration: u64,
    stream_cursors: Vec<u64>,
    stream_bases: Vec<u64>,
    chain_states: Vec<u64>,
    working_set: u64,
}

impl TraceGenerator {
    /// Creates a generator for `benchmark` with the given seed.
    #[must_use]
    pub fn new(benchmark: Benchmark, seed: u64) -> Self {
        Self::from_spec(benchmark.spec(), seed)
    }

    /// Creates a generator from an explicit workload specification.
    ///
    /// # Panics
    ///
    /// Panics if the spec is not valid.
    #[must_use]
    pub fn from_spec(spec: WorkloadSpec, seed: u64) -> Self {
        let template = ProgramTemplate::generate(spec, seed);
        Self::from_template(template, seed)
    }

    /// Creates a generator that walks an already-built template.
    #[must_use]
    pub fn from_template(template: ProgramTemplate, seed: u64) -> Self {
        let spec = *template.spec();
        let num_streams = template.num_streams();
        let num_chains = template.num_chains().max(1);
        let working_set = spec.working_set_bytes();
        let stream_bases = (0..num_streams)
            .map(|s| DATA_BASE + s as u64 * STREAM_REGION_GAP)
            .collect();
        let chain_states = (0..num_chains)
            .map(|c| {
                seed.wrapping_mul(0x5851_f42d_4c95_7f2d)
                    .wrapping_add(c as u64 + 1)
            })
            .collect();
        TraceGenerator {
            template,
            rng: StdRng::seed_from_u64(seed ^ 0xD1B5_4A32_D192_ED03),
            seq: 0,
            index: 0,
            iteration: 0,
            stream_cursors: vec![0; num_streams],
            stream_bases,
            chain_states,
            working_set,
        }
    }

    /// The workload specification driving this generator.
    #[must_use]
    pub fn spec(&self) -> &WorkloadSpec {
        self.template.spec()
    }

    /// The static template being walked.
    #[must_use]
    pub fn template(&self) -> &ProgramTemplate {
        &self.template
    }

    /// How many loop iterations have been completed so far.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iteration
    }

    /// Functionally fast-forwards `n` micro-ops, returning `n` (the
    /// synthetic stream never ends): [`TraceGenerator::warm_forward`] with
    /// no sink.
    ///
    /// (Named `fast_forward` rather than `skip` so it cannot collide with
    /// the by-value [`Iterator::skip`] adapter during method resolution.)
    pub fn fast_forward(&mut self, n: u64) -> u64 {
        self.warm_forward(n, &mut ())
    }

    /// Functionally fast-forwards `n` micro-ops without building them,
    /// reporting each one's memory access and conditional-branch outcome
    /// to `sink` in program order, and returns `n`.
    ///
    /// This is the generator's cheap mode for sampled simulation: the
    /// template walk, RNG draws, stream cursors and chain states advance
    /// exactly as [`Iterator::next`] advances them, so the ops emitted
    /// after a skip — sequence numbers included — are bit-identical to the
    /// ops an uninterrupted generator would produce at the same positions,
    /// and `sink` sees exactly what [`WarmSink::warm_op`] on the skipped
    /// ops would have reported.
    pub fn warm_forward<W: WarmSink>(&mut self, n: u64, sink: &mut W) -> u64 {
        for _ in 0..n {
            let instr = &self.template.instrs()[self.index];
            let (pc, is_store) = (instr.pc, instr.class.is_store());
            let (address, branch) = (instr.address, instr.branch);
            if let Some(pattern) = address {
                let addr = self.next_address(pattern);
                sink.warm_mem(addr, is_store);
            }
            if let Some(behavior) = branch {
                let taken = self.next_taken(behavior);
                sink.warm_branch(pc, taken);
            }
            self.advance();
        }
        n
    }

    /// Moves past the current static instruction.
    #[inline(always)]
    fn advance(&mut self) {
        self.seq += 1;
        self.index += 1;
        if self.index >= self.template.instrs().len() {
            self.index = 0;
            self.iteration += 1;
        }
    }

    fn region_span(&self, region: Region) -> (u64, u64) {
        match region {
            Region::Hot => (HOT_BASE, HOT_REGION_BYTES),
            Region::Full => (DATA_BASE, self.working_set.max(64)),
        }
    }

    // `next` and every `warm_forward` instance call this; forced inline so
    // the inliner does not outline it from `next`, the detailed stream.
    #[inline(always)]
    fn next_address(&mut self, pattern: AddressPattern) -> u64 {
        match pattern {
            AddressPattern::Streaming {
                stream,
                stride,
                region,
            } => {
                let cursor = &mut self.stream_cursors[stream];
                let offset = *cursor * stride;
                *cursor += 1;
                match region {
                    Region::Hot => HOT_BASE + offset % HOT_REGION_BYTES,
                    Region::Full => {
                        self.stream_bases[stream] + offset % self.working_set.max(stride)
                    }
                }
            }
            AddressPattern::PointerChase { chain } => {
                let idx = chain % self.chain_states.len();
                let raw = splitmix64(&mut self.chain_states[idx]);
                // Pointer-sized aligned slot somewhere in the working set.
                DATA_BASE + (raw % self.working_set.max(64)) / 8 * 8
            }
            AddressPattern::Random { region } => {
                let (base, span) = self.region_span(region);
                let raw: u64 = self.rng.gen();
                base + (raw % span) / 8 * 8
            }
        }
    }

    /// Resolves the direction of one dynamic instance of a static
    /// (always conditional) branch.
    #[inline(always)]
    fn next_taken(&mut self, behavior: BranchBehavior) -> bool {
        match behavior {
            BranchBehavior::LoopBack => true,
            BranchBehavior::Biased {
                bias,
                dominant_taken,
            } => {
                let follow = self.rng.gen::<f64>() < bias;
                follow == dominant_taken
            }
            BranchBehavior::DataDependent => self.rng.gen::<bool>(),
        }
    }

    fn next_branch(&mut self, behavior: BranchBehavior, pc: u64) -> BranchInfo {
        let target = match behavior {
            BranchBehavior::LoopBack => self.template.loop_target(),
            BranchBehavior::Biased { .. } | BranchBehavior::DataDependent => pc + 16,
        };
        BranchInfo::conditional(self.next_taken(behavior), target)
    }
}

impl Iterator for TraceGenerator {
    type Item = MicroOp;

    fn next(&mut self) -> Option<MicroOp> {
        let static_instr = self.template.instrs()[self.index].clone();
        let pc = static_instr.pc;
        let class = static_instr.class;
        let mut op = MicroOp::new(self.seq, pc, class);
        op.dst = static_instr.dst;
        op.srcs = static_instr.srcs;

        if let Some(pattern) = static_instr.address {
            op.mem_addr = Some(self.next_address(pattern));
        }
        if let Some(behavior) = static_instr.branch {
            op.branch = Some(self.next_branch(behavior, pc));
        }

        self.advance();
        debug_assert!(op.is_well_formed(), "generated malformed micro-op: {op}");
        Some(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dkip_model::{RegClass, WarmLog};
    use std::collections::HashSet;

    #[test]
    fn sequence_numbers_are_dense() {
        let ops: Vec<_> = TraceGenerator::new(Benchmark::Gzip, 3).take(500).collect();
        for (i, op) in ops.iter().enumerate() {
            assert_eq!(op.seq, i as u64);
        }
    }

    #[test]
    fn all_generated_ops_are_well_formed() {
        for bench in Benchmark::all() {
            let gen = TraceGenerator::new(bench, 1);
            for op in gen.take(2000) {
                assert!(op.is_well_formed(), "{}: {op}", bench.name());
            }
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 99).take(3000).collect();
        let b: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 99).take(3000).collect();
        assert_eq!(a, b);
        let c: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 100)
            .take(3000)
            .collect();
        assert_ne!(a, c);
    }

    #[test]
    fn instruction_mix_roughly_matches_spec() {
        // A single template is only ~200 static instructions, so average the
        // dynamic mix over several template seeds before comparing against
        // the target mix.
        let bench = Benchmark::Swim;
        let spec = bench.spec();
        let n = 20_000;
        let seeds = [1u64, 2, 3, 4, 5, 6];
        let mut loads = 0usize;
        let mut branches = 0usize;
        for &seed in &seeds {
            let ops: Vec<_> = TraceGenerator::new(bench, seed).take(n).collect();
            loads += ops.iter().filter(|o| o.is_load()).count();
            branches += ops.iter().filter(|o| o.class.is_branch()).count();
        }
        let total = (n * seeds.len()) as f64;
        let load_frac = loads as f64 / total;
        let branch_frac = branches as f64 / total;
        let expected_loads = spec.mix.load / spec.mix.total();
        assert!(
            (load_frac - expected_loads).abs() < 0.06,
            "load fraction {load_frac} vs expected {expected_loads}"
        );
        assert!(
            branch_frac > 0.01,
            "loop-back branches guarantee a branch per iteration"
        );
    }

    #[test]
    fn streaming_loads_have_spatial_locality() {
        // Consecutive executions of the same static streaming load touch
        // nearby addresses, so the number of distinct cache lines is far
        // smaller than the number of loads for a streaming benchmark.
        let ops: Vec<_> = TraceGenerator::new(Benchmark::Swim, 5)
            .take(20_000)
            .collect();
        let load_addrs: Vec<u64> = ops.iter().filter_map(|o| o.mem_addr).collect();
        let lines: HashSet<u64> = load_addrs.iter().map(|a| a / 64).collect();
        assert!(
            lines.len() * 2 < load_addrs.len(),
            "streaming should reuse cache lines: {} lines for {} accesses",
            lines.len(),
            load_addrs.len()
        );
    }

    #[test]
    fn pointer_chase_addresses_are_spread_over_the_working_set() {
        let spec = Benchmark::Mcf.spec();
        let ops: Vec<_> = TraceGenerator::new(Benchmark::Mcf, 5)
            .take(50_000)
            .collect();
        let chase_addrs: Vec<u64> = ops
            .iter()
            .filter(|o| {
                o.is_load() && o.dst == o.srcs[0] && o.dst.map(|d| d.class()) == Some(RegClass::Int)
            })
            .filter_map(|o| o.mem_addr)
            .collect();
        assert!(!chase_addrs.is_empty());
        let min = *chase_addrs.iter().min().unwrap();
        let max = *chase_addrs.iter().max().unwrap();
        assert!(
            max - min > spec.working_set_bytes() / 2,
            "chase addresses should span the working set"
        );
    }

    #[test]
    fn loop_back_branches_are_always_taken_to_the_loop_start() {
        let gen = TraceGenerator::new(Benchmark::Mesa, 2);
        let loop_target = gen.template().loop_target();
        let body = gen.template().instrs().len();
        let ops: Vec<_> = gen.take(body * 10).collect();
        let backs: Vec<_> = ops
            .iter()
            .filter(|o| o.branch.map(|b| b.target) == Some(loop_target))
            .collect();
        assert_eq!(backs.len(), 10, "one loop-back per iteration");
        assert!(backs.iter().all(|o| o.branch.unwrap().taken));
    }

    #[test]
    fn fp_branches_are_mostly_predictable_and_int_branches_less_so() {
        let count_taken_variation = |bench: Benchmark| {
            let ops: Vec<_> = TraceGenerator::new(bench, 3).take(40_000).collect();
            // Fraction of conditional branches (excluding the loop-back) that
            // deviate from their per-PC majority direction.
            use std::collections::HashMap;
            let mut per_pc: HashMap<u64, (u64, u64)> = HashMap::new();
            for op in ops.iter().filter(|o| o.is_conditional_branch()) {
                let entry = per_pc.entry(op.pc).or_default();
                if op.branch.unwrap().taken {
                    entry.0 += 1;
                } else {
                    entry.1 += 1;
                }
            }
            let mut minority = 0u64;
            let mut total = 0u64;
            for (taken, not_taken) in per_pc.values() {
                minority += taken.min(not_taken);
                total += taken + not_taken;
            }
            minority as f64 / total as f64
        };
        let fp_dev = count_taken_variation(Benchmark::Swim);
        let int_dev = count_taken_variation(Benchmark::Mcf);
        assert!(
            fp_dev < 0.02,
            "SpecFP branches nearly perfectly biased, got {fp_dev}"
        );
        assert!(
            int_dev > fp_dev,
            "SpecINT branches must be harder: {int_dev} vs {fp_dev}"
        );
    }

    #[test]
    fn skip_positions_the_stream_bit_identically() {
        for bench in [Benchmark::Swim, Benchmark::Mcf] {
            let mut skipped = TraceGenerator::new(bench, 7);
            let mut consumed = TraceGenerator::new(bench, 7);
            assert_eq!(skipped.fast_forward(4_321), 4_321);
            for _ in 0..4_321 {
                consumed.next();
            }
            let a: Vec<_> = skipped.by_ref().take(500).collect();
            let b: Vec<_> = consumed.by_ref().take(500).collect();
            assert_eq!(a, b, "{}: post-skip ops must match", bench.name());
            assert_eq!(a[0].seq, 4_321, "sequence numbers stay dense");
        }
    }

    #[test]
    fn warm_forward_reports_what_the_skipped_ops_carry() {
        for bench in Benchmark::all() {
            let mut warmed = TraceGenerator::new(bench, 11);
            let mut consumed = TraceGenerator::new(bench, 11);
            let mut got = WarmLog::default();
            let mut want = WarmLog::default();
            assert_eq!(warmed.warm_forward(3_000, &mut got), 3_000);
            for op in consumed.by_ref().take(3_000) {
                want.warm_op(&op);
            }
            assert_eq!(got, want, "{}: warming events differ", bench.name());
            assert!(!got.mem.is_empty() && !got.branches.is_empty());
            assert_eq!(warmed.iterations(), consumed.iterations());
            let a: Vec<_> = warmed.take(300).collect();
            let b: Vec<_> = consumed.take(300).collect();
            assert_eq!(a, b, "{}: post-warm ops must match", bench.name());
        }
    }

    #[test]
    fn iterations_counter_advances() {
        let mut gen = TraceGenerator::new(Benchmark::Crafty, 1);
        let body = gen.template().instrs().len();
        for _ in 0..body * 3 {
            gen.next();
        }
        assert_eq!(gen.iterations(), 3);
    }
}

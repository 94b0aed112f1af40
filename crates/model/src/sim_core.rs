//! The one run loop every core family goes through.
//!
//! The baseline, KILO and D-KIP cores differ in what one cycle does, but
//! not in how a run is driven: tick until the commit budget is met, stop
//! early when a finite trace has drained out of the machine, fast-forward
//! the clock over quiesced stretches, and sample interval metrics on the
//! way. A core implements [`SimCore`] (its cycle, its events, its
//! drained condition) and [`drive`] owns the loop, once, monomorphised
//! per core.

use crate::instr::MicroOp;
use crate::stats::SimStats;
use crate::telemetry::{MetricsFrame, Telemetry};
use crate::warm::WarmSink;

/// A cycle-level core that [`drive`] can run. A core is also a
/// [`WarmSink`], so the sampled mode can functionally warm it between
/// detailed windows.
pub trait SimCore: WarmSink {
    /// Advances the core by one cycle and reports whether any work
    /// happened: an instruction fetched, moved between pipeline
    /// structures, issued, completed or committed. A `false` return means
    /// the state is unchanged apart from time-gated conditions, so every
    /// cycle until [`SimCore::next_event`] would be identical.
    ///
    /// Fetching from an exhausted `trace` latches the end of the trace for
    /// [`SimCore::is_drained`]. The telemetry sink observes exactly the
    /// work the progress flag reports.
    fn tick(
        &mut self,
        trace: &mut dyn Iterator<Item = MicroOp>,
        probe: Option<&mut Telemetry>,
    ) -> bool;

    /// The earliest future cycle (strictly after the current one) at which
    /// the core's state can change without new work arriving. `None`
    /// means no event is pending and the core can never wake on its own.
    fn next_event(&mut self) -> Option<u64>;

    /// Whether the trace has ended and nothing is left in flight.
    fn is_drained(&self) -> bool;

    /// Forgets that the previous trace ended: each run may bring a fresh
    /// trace, so exhaustion must not latch across runs.
    fn rearm_trace(&mut self);

    /// The interval-metrics snapshot of the current core state.
    fn metrics_frame(&self) -> MetricsFrame;

    /// Copies the end-of-run figures kept outside [`SimStats`] (the clock,
    /// cache counters, structure peaks) into the statistics.
    fn finalize_stats(&mut self);

    /// Whether every cycle must be ticked (`DKIP_NO_SKIP=1`) rather than
    /// skipped over when the core is quiesced.
    fn single_step(&self) -> bool;

    /// The current cycle.
    fn cycle(&self) -> u64;

    /// The clock, which [`drive`] moves forward over quiesced stretches.
    fn cycle_mut(&mut self) -> &mut u64;

    /// The accumulated statistics.
    fn stats(&self) -> &SimStats;

    /// The statistics, whose per-cycle stall counters [`drive`] bumps for
    /// every skipped cycle.
    fn stats_mut(&mut self) -> &mut SimStats;
}

/// Runs `core` until `max_instrs` instructions have committed in total,
/// the trace ends and the core drains (finite streams run to completion),
/// or a safety cycle bound is reached. Returns the accumulated statistics.
///
/// Unless the core single-steps, a tick that made no progress is followed
/// by a jump to just before the core's next event, with the per-cycle
/// stall counters bumped by the skipped delta, so every statistic stays
/// bit-identical to ticking each cycle.
///
/// With a telemetry sink attached, an interval-metrics row is recorded
/// whenever the committed counter crosses a row boundary. The sink is a
/// run parameter, not core state; `None` costs one predictable branch per
/// probe site and the statistics are identical either way.
pub fn drive<C: SimCore>(
    core: &mut C,
    trace: &mut dyn Iterator<Item = MicroOp>,
    max_instrs: u64,
    mut probe: Option<&mut Telemetry>,
) -> SimStats {
    let cycle_cap = core
        .cycle()
        .saturating_add(max_instrs.saturating_mul(2000).max(1_000_000));
    core.rearm_trace();
    while core.stats().committed < max_instrs && core.cycle() < cycle_cap {
        let stalls_before = core.stats().stall_counter_snapshot();
        let progress = core.tick(trace, probe.as_deref_mut());
        if let Some(t) = probe.as_deref_mut() {
            if t.metrics_due(core.stats().committed) {
                t.record_metrics(&core.metrics_frame());
            }
        }
        if core.is_drained() {
            break;
        }
        if progress || core.single_step() {
            continue;
        }
        // Quiesced: jump to just before the next event, or past the cap
        // when none is pending (what a single-stepped spin would reach).
        let past_cap = cycle_cap.saturating_add(1);
        let target = core.next_event().unwrap_or(past_cap).min(past_cap) - 1;
        let now = core.cycle();
        if target > now {
            *core.cycle_mut() = target;
            let stats = core.stats_mut();
            stats.cycles_skipped += target - now;
            stats.replay_stall_cycles(stalls_before, target - now);
        }
    }
    core.finalize_stats();
    core.stats().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A core whose every tick commits `per_tick` instructions while the
    /// trace lasts, and that can wake itself every `event_every` cycles.
    #[derive(Default)]
    struct FakeCore {
        cycle: u64,
        stats: SimStats,
        per_tick: u64,
        event_every: Option<u64>,
        trace_done: bool,
        single_step: bool,
    }

    impl WarmSink for FakeCore {
        fn warm_mem(&mut self, _addr: u64, _is_write: bool) {}

        fn warm_branch(&mut self, _pc: u64, _taken: bool) {}
    }

    impl SimCore for FakeCore {
        fn tick(
            &mut self,
            trace: &mut dyn Iterator<Item = MicroOp>,
            _probe: Option<&mut Telemetry>,
        ) -> bool {
            self.cycle += 1;
            self.stats.ticks_executed += 1;
            // Every quiesced tick stalls, so skipping must replay the bump.
            self.stats.rob_full_stall_cycles += 1;
            let mut progress = false;
            for _ in 0..self.per_tick {
                if trace.next().is_none() {
                    self.trace_done = true;
                    break;
                }
                self.stats.committed += 1;
                progress = true;
            }
            progress
        }

        fn next_event(&mut self) -> Option<u64> {
            self.event_every
                .map(|every| (self.cycle / every + 1) * every)
        }

        fn is_drained(&self) -> bool {
            self.trace_done
        }

        fn rearm_trace(&mut self) {
            self.trace_done = false;
        }

        fn metrics_frame(&self) -> MetricsFrame {
            MetricsFrame::default()
        }

        fn finalize_stats(&mut self) {
            self.stats.cycles = self.cycle;
        }

        fn single_step(&self) -> bool {
            self.single_step
        }

        fn cycle(&self) -> u64 {
            self.cycle
        }

        fn cycle_mut(&mut self) -> &mut u64 {
            &mut self.cycle
        }

        fn stats(&self) -> &SimStats {
            &self.stats
        }

        fn stats_mut(&mut self) -> &mut SimStats {
            &mut self.stats
        }
    }

    fn endless() -> impl Iterator<Item = MicroOp> {
        (0..).map(|seq| MicroOp::new(seq, 0, crate::op::OpClass::IntAlu))
    }

    #[test]
    fn a_core_that_never_commits_stops_at_the_cycle_cap() {
        let mut core = FakeCore::default();
        let stats = drive(&mut core, &mut endless(), 10, None);
        assert!(stats.committed < 10);
        assert_eq!(stats.cycles, 1_000_000, "the cap is 1M cycles at minimum");
        assert_eq!(stats.rob_full_stall_cycles, stats.cycles);
    }

    #[test]
    fn the_cycle_cap_is_reached_by_skipping() {
        let mut core = FakeCore::default();
        let stats = drive(&mut core, &mut endless(), 10, None);
        assert_eq!(stats.ticks_executed, 1, "one tick, then one jump");
        assert_eq!(stats.ticks_executed + stats.cycles_skipped, stats.cycles);

        let mut stepped = FakeCore {
            single_step: true,
            ..FakeCore::default()
        };
        let reference = drive(&mut stepped, &mut endless(), 10, None);
        assert_eq!(stats.to_kv(), reference.to_kv());
        assert_eq!(reference.ticks_executed, reference.cycles);
    }

    #[test]
    fn skipping_stops_just_before_each_event() {
        let mut core = FakeCore {
            event_every: Some(1_000),
            ..FakeCore::default()
        };
        let stats = drive(&mut core, &mut endless(), 10, None);
        // A tick at cycle 1, then a skip and a tick at every multiple of
        // 1000 up to the cap.
        assert_eq!(stats.cycles, 1_000_000);
        assert_eq!(stats.ticks_executed, 1_001);
        assert_eq!(stats.ticks_executed + stats.cycles_skipped, stats.cycles);
    }

    #[test]
    fn a_finite_trace_stops_as_soon_as_the_core_drains() {
        let mut core = FakeCore {
            per_tick: 4,
            ..FakeCore::default()
        };
        let mut trace = endless().take(10);
        let stats = drive(&mut core, &mut trace, u64::MAX, None);
        assert_eq!(stats.committed, 10);
        assert_eq!(stats.cycles, 3, "4 + 4 + 2 ops, drained on the third tick");

        // The next run brings a fresh trace: the latch must not carry over
        // and stop it after one tick.
        let mut more = endless().take(10);
        let stats = drive(&mut core, &mut more, u64::MAX, None);
        assert_eq!(stats.committed, 20);
    }

    #[test]
    fn the_budget_ends_the_run() {
        let mut core = FakeCore {
            per_tick: 4,
            ..FakeCore::default()
        };
        let stats = drive(&mut core, &mut endless(), 10, None);
        assert_eq!(stats.committed, 12, "commit overshoots by the tick width");
        assert_eq!(stats.cycles, 3);
    }
}

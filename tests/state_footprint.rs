//! A built core's heap footprint does not scale with its configured window.
//!
//! Only the instructions actually in flight should occupy a core's
//! bookkeeping, so building a machine with a kilo-instruction (or
//! 65,536-entry) window must cost about what building the 64-entry R10000
//! costs: the caches and predictor, which every family shares, plus a small
//! constant. A constructor that pre-sizes a ROB, issue queue, completion
//! heap, wakeup table, LSQ index or D-KIP side table from its configured
//! capacity fails this.
//!
//! The test counts live heap bytes with its own global allocator, so it is
//! the only test in this binary: a second test running on another thread
//! would allocate into the same counter.

use dkip::model::config::{BaselineConfig, MemoryHierarchyConfig};
use dkip::sim::service::machine_preset;
use dkip::sim::Machine;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Headroom a large machine may allocate beyond the R10-64 build.
const SLACK_BYTES: usize = 64 * 1024;

/// Forwards to `System` and keeps a count of the bytes currently live.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by this allocator (so by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap bytes the built core of `machine` holds right after
/// `Machine::build`.
fn build_bytes(machine: &Machine, mem: &MemoryHierarchyConfig) -> usize {
    let before = LIVE.load(Ordering::Relaxed);
    let core = machine.build(mem);
    let held = LIVE.load(Ordering::Relaxed) - before;
    drop(core);
    held
}

#[test]
fn built_core_allocation_does_not_scale_with_the_window() {
    let mem = MemoryHierarchyConfig::mem_400();
    let reference = build_bytes(&machine_preset("R10-64").unwrap(), &mem);
    let large = [
        machine_preset("UNBOUNDED").unwrap(),
        Machine::Baseline(BaselineConfig::idealized(4096)),
        machine_preset("KILO-1024").unwrap(),
        machine_preset("D-KIP-2048").unwrap(),
    ];
    eprintln!("R10-64: {reference} bytes");
    for machine in &large {
        let bytes = build_bytes(machine, &mem);
        eprintln!("{}: {bytes} bytes", machine.name());
        assert!(
            bytes <= reference + SLACK_BYTES,
            "{} holds {bytes} bytes after Machine::build, more than the \
             {reference} bytes of R10-64 plus {SLACK_BYTES}: some in-flight \
             structure is sized by its configured capacity",
            machine.name()
        );
    }
}

//! Stable cache-key derivation for simulation configurations.
//!
//! The sweep service's result store (`dkip_sim::store`) is content-addressed:
//! a simulation point is identified by a digest of *everything that
//! determines its statistics* — the machine configuration, the memory
//! hierarchy, the workload, the seed, the budget and the sample/clock knobs —
//! plus a code-version salt. This module provides the serialisation half of
//! that contract: [`StableKey`] renders a configuration into a canonical,
//! line-oriented text form (the *key text*), and [`key_digest`] hashes key
//! text into the fixed-width hex digest used as the store's file name.
//!
//! The key text follows the same discipline as [`crate::SimStats::to_kv`]:
//! every implementation destructures its type exhaustively (no `..`), so
//! adding a configuration field without extending its key is a compile
//! error. A field that silently escaped the key would let two *different*
//! configurations share a cache entry — the one bug a content-addressed
//! store must never have. The reverse direction (a formatting change that
//! alters every key) is caught by the committed key fixture in
//! `tests/golden/cache_keys.golden`.
//!
//! The digest is 128-bit FNV-1a. It is not cryptographic — the store is a
//! local cache, not a trust boundary — but at 128 bits accidental collisions
//! across even the largest design-space sweeps are negligible, and the
//! implementation is dependency-free and byte-stable across platforms.

use std::fmt::{Display, Write as _};

use crate::config::{
    AddressProcessorConfig, BaselineConfig, CacheProcessorConfig, CheckpointConfig, DkipConfig,
    FuConfig, KiloConfig, LlibConfig, MemoryHierarchyConfig, MemoryProcessorConfig, SampleConfig,
    SchedPolicy, WidthConfig,
};

/// Accumulates `name=value` lines (with hierarchical `scope.` prefixes) into
/// a canonical key text.
#[derive(Debug, Default)]
pub struct KeyWriter {
    prefix: String,
    out: String,
}

impl KeyWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one `name=value` line under the current scope.
    pub fn field(&mut self, name: &str, value: impl Display) {
        let _ = writeln!(self.out, "{}{name}={value}", self.prefix);
    }

    /// Appends an optional field as `name=none` or `name=<value>`.
    pub fn opt_field(&mut self, name: &str, value: Option<impl Display>) {
        match value {
            None => self.field(name, "none"),
            Some(v) => self.field(name, v),
        }
    }

    /// Runs `f` with `scope.` prepended to every field name it writes.
    pub fn scoped(&mut self, scope: &str, f: impl FnOnce(&mut KeyWriter)) {
        let saved = self.prefix.len();
        self.prefix.push_str(scope);
        self.prefix.push('.');
        f(self);
        self.prefix.truncate(saved);
    }

    /// The accumulated key text.
    #[must_use]
    pub fn finish(self) -> String {
        self.out
    }
}

/// A configuration that can render itself into canonical key text.
///
/// Implementations must be *exhaustive* (destructure every field) and
/// *stable* (never reorder or reformat existing fields without an
/// accompanying store-version bump — see `dkip_sim::store::STORE_VERSION`).
pub trait StableKey {
    /// Writes every behaviour-determining field of `self` to `w`.
    fn write_key(&self, w: &mut KeyWriter);

    /// Renders the full key text of `self`.
    fn key_text(&self) -> String {
        let mut w = KeyWriter::new();
        self.write_key(&mut w);
        w.finish()
    }
}

/// 128-bit FNV-1a over `bytes`. A `const fn`, so it also digests
/// `include_bytes!` data at compile time.
#[must_use]
pub const fn fnv1a_128(bytes: &[u8]) -> u128 {
    const OFFSET_BASIS: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    fnv1a_128_continue(OFFSET_BASIS, bytes)
}

/// Continues the 128-bit FNV-1a digest `hash` over `bytes`:
/// `fnv1a_128_continue(fnv1a_128(a), b)` is `fnv1a_128` of `a` followed by
/// `b`.
#[must_use]
pub const fn fnv1a_128_continue(mut hash: u128, bytes: &[u8]) -> u128 {
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let mut i = 0;
    while i < bytes.len() {
        hash ^= bytes[i] as u128;
        hash = hash.wrapping_mul(PRIME);
        i += 1;
    }
    hash
}

/// Digests key text into the 32-hex-character content address used by the
/// result store.
#[must_use]
pub fn key_digest(key_text: &str) -> String {
    format!("{:032x}", fnv1a_128(key_text.as_bytes()))
}

impl StableKey for FuConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let FuConfig {
            int_alu,
            int_mul,
            fp_add,
            fp_mul_div,
        } = self;
        w.field("int_alu", int_alu);
        w.field("int_mul", int_mul);
        w.field("fp_add", fp_add);
        w.field("fp_mul_div", fp_mul_div);
    }
}

impl StableKey for WidthConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let WidthConfig {
            fetch,
            decode,
            issue,
            commit,
        } = self;
        w.field("fetch", fetch);
        w.field("decode", decode);
        w.field("issue", issue);
        w.field("commit", commit);
    }
}

impl StableKey for MemoryHierarchyConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let MemoryHierarchyConfig {
            name,
            l1_size,
            l1_latency,
            l1_assoc,
            l2_size,
            l2_latency,
            l2_assoc,
            memory_latency,
            line_size,
            l2_perfect,
        } = self;
        w.field("name", name);
        w.opt_field("l1_size", l1_size.as_ref());
        w.field("l1_latency", l1_latency);
        w.field("l1_assoc", l1_assoc);
        w.opt_field("l2_size", l2_size.as_ref());
        w.field("l2_latency", l2_latency);
        w.field("l2_assoc", l2_assoc);
        w.field("memory_latency", memory_latency);
        w.field("line_size", line_size);
        w.field("l2_perfect", l2_perfect);
    }
}

impl StableKey for BaselineConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let BaselineConfig {
            name,
            rob_capacity,
            int_iq_capacity,
            fp_iq_capacity,
            sched,
            lsq_capacity,
            memory_ports,
            widths,
            fu,
            mispredict_penalty,
            collect_issue_histogram,
        } = self;
        w.field("name", name);
        w.field("rob_capacity", rob_capacity);
        w.field("int_iq_capacity", int_iq_capacity);
        w.field("fp_iq_capacity", fp_iq_capacity);
        w.field("sched", sched.label());
        w.field("lsq_capacity", lsq_capacity);
        w.field("memory_ports", memory_ports);
        w.scoped("widths", |w| widths.write_key(w));
        w.scoped("fu", |w| fu.write_key(w));
        w.field("mispredict_penalty", mispredict_penalty);
        w.field("collect_issue_histogram", collect_issue_histogram);
    }
}

impl StableKey for CacheProcessorConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let CacheProcessorConfig {
            rob_capacity,
            rob_timer,
            int_iq_capacity,
            fp_iq_capacity,
            sched,
            widths,
            fu,
            mispredict_penalty,
        } = self;
        w.field("rob_capacity", rob_capacity);
        w.field("rob_timer", rob_timer);
        w.field("int_iq_capacity", int_iq_capacity);
        w.field("fp_iq_capacity", fp_iq_capacity);
        w.field("sched", sched.label());
        w.scoped("widths", |w| widths.write_key(w));
        w.scoped("fu", |w| fu.write_key(w));
        w.field("mispredict_penalty", mispredict_penalty);
    }
}

impl StableKey for MemoryProcessorConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let MemoryProcessorConfig {
            queue_capacity,
            sched,
            decode_width,
            fu,
        } = self;
        w.field("queue_capacity", queue_capacity);
        w.field("sched", sched.label());
        w.field("decode_width", decode_width);
        w.scoped("fu", |w| fu.write_key(w));
    }
}

impl StableKey for LlibConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let LlibConfig {
            capacity,
            insertion_rate,
            extraction_rate,
            llrf_banks,
            llrf_regs_per_bank,
        } = self;
        w.field("capacity", capacity);
        w.field("insertion_rate", insertion_rate);
        w.field("extraction_rate", extraction_rate);
        w.field("llrf_banks", llrf_banks);
        w.field("llrf_regs_per_bank", llrf_regs_per_bank);
    }
}

impl StableKey for AddressProcessorConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let AddressProcessorConfig {
            lsq_capacity,
            memory_ports,
        } = self;
        w.field("lsq_capacity", lsq_capacity);
        w.field("memory_ports", memory_ports);
    }
}

impl StableKey for CheckpointConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let CheckpointConfig {
            stack_entries,
            interval_instrs,
            recovery_penalty,
        } = self;
        w.field("stack_entries", stack_entries);
        w.field("interval_instrs", interval_instrs);
        w.field("recovery_penalty", recovery_penalty);
    }
}

impl StableKey for DkipConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let DkipConfig {
            name,
            cache_processor,
            memory_processor,
            llib,
            address_processor,
            checkpoint,
        } = self;
        w.field("name", name);
        w.scoped("cp", |w| cache_processor.write_key(w));
        w.scoped("mp", |w| memory_processor.write_key(w));
        w.scoped("llib", |w| llib.write_key(w));
        w.scoped("ap", |w| address_processor.write_key(w));
        w.scoped("ckpt", |w| checkpoint.write_key(w));
    }
}

impl StableKey for KiloConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let KiloConfig {
            name,
            pseudo_rob_capacity,
            sliq_capacity,
            iq_capacity,
            lsq_capacity,
            memory_ports,
            widths,
            fu,
            mispredict_penalty,
        } = self;
        w.field("name", name);
        w.field("pseudo_rob_capacity", pseudo_rob_capacity);
        w.field("sliq_capacity", sliq_capacity);
        w.field("iq_capacity", iq_capacity);
        w.field("lsq_capacity", lsq_capacity);
        w.field("memory_ports", memory_ports);
        w.scoped("widths", |w| widths.write_key(w));
        w.scoped("fu", |w| fu.write_key(w));
        w.field("mispredict_penalty", mispredict_penalty);
    }
}

impl StableKey for SampleConfig {
    fn write_key(&self, w: &mut KeyWriter) {
        let SampleConfig {
            period,
            warmup,
            window,
        } = self;
        w.field("period", period);
        w.field("warmup", warmup);
        w.field("window", window);
    }
}

impl StableKey for SchedPolicy {
    fn write_key(&self, w: &mut KeyWriter) {
        w.field("sched", self.label());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_writer_scopes_and_options() {
        let mut w = KeyWriter::new();
        w.field("a", 1);
        w.scoped("inner", |w| {
            w.field("b", "x");
            w.scoped("deep", |w| w.field("c", 2));
        });
        w.opt_field("d", None::<u64>);
        w.opt_field("e", Some(5));
        assert_eq!(w.finish(), "a=1\ninner.b=x\ninner.deep.c=2\nd=none\ne=5\n");
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a 128-bit test vectors.
        assert_eq!(fnv1a_128(b""), 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d);
        assert_eq!(key_digest("a"), "d228cb696f1a8caf78912b704e4a8964");
        assert_eq!(fnv1a_128_continue(fnv1a_128(b""), b"a"), fnv1a_128(b"a"));
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        let base = DkipConfig::paper_default().key_text();
        assert_eq!(key_digest(&base), key_digest(&base));
        let small = DkipConfig::paper_default()
            .with_llib_capacity(512)
            .key_text();
        assert_ne!(key_digest(&base), key_digest(&small));
    }

    #[test]
    fn key_texts_distinguish_every_preset() {
        let texts = [
            BaselineConfig::r10_64().key_text(),
            BaselineConfig::r10_256().key_text(),
            BaselineConfig::unbounded().key_text(),
            KiloConfig::kilo_1024().key_text(),
            DkipConfig::paper_default().key_text(),
            DkipConfig::paper_default()
                .with_llib_capacity(512)
                .key_text(),
        ];
        for (i, a) in texts.iter().enumerate() {
            for b in texts.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn mem_key_covers_perfect_caches() {
        let text = MemoryHierarchyConfig::l1_2().key_text();
        assert!(text.contains("l1_size=none"));
        assert!(text.contains("l2_perfect=true"));
        let sized = MemoryHierarchyConfig::mem_400().with_l2_kb(64).key_text();
        assert!(sized.contains("l2_size=65536"));
    }

    #[test]
    fn sample_key_matches_display_fields() {
        let rate = SampleConfig::default_rate();
        let text = rate.key_text();
        assert_eq!(text, "period=10000\nwarmup=1000\nwindow=1000\n");
    }
}

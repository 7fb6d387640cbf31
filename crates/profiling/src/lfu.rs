//! The two-buffer Least-Frequently-Used value profiler of Calder, Feller
//! and Eustace ("Value Profiling", MICRO-30), which the paper uses to
//! collect stride profiles (§3.1).
//!
//! The profiler keeps a small *temp* buffer updated on every insertion and
//! a *final* (steady) buffer. When a value is inserted:
//!
//! * if present in the temp buffer, its count is incremented;
//! * otherwise it replaces the least-frequently-used temp entry.
//!
//! Periodically the temp buffer is merged into the final buffer by keeping
//! the highest-count entries of both, and temp counts are cleared.
//!
//! The paper's *enhanced* routine (Fig. 7) treats strides that differ only
//! in their low bits as the same value (`is_same_value`), shrinking the
//! number of distinct tracked values and therefore the search cost;
//! [`LfuConfig::same_value_shift`] implements that masking.

/// Configuration of an [`Lfu`] profiler.
#[derive(Clone, Copy, Debug)]
pub struct LfuConfig {
    /// Temp buffer entries.
    pub temp_entries: usize,
    /// Final buffer entries (the "top N" reported).
    pub final_entries: usize,
    /// Insertions between merges of temp into final.
    pub merge_period: u64,
    /// Low bits ignored when comparing values (Fig. 7's `is_same_value`
    /// compares `a >> 4 == b >> 4`); 0 compares exactly.
    pub same_value_shift: u32,
    /// Cycle cost charged per entry examined during the search (drives the
    /// profiling-overhead experiments).
    pub cost_per_probe: u64,
    /// Fixed cycle cost per insertion.
    pub cost_base: u64,
}

impl LfuConfig {
    /// The configuration used by the paper-style stride profiles: top-8
    /// final buffer, exact comparison.
    pub const fn standard() -> Self {
        LfuConfig {
            temp_entries: 16,
            final_entries: 8,
            merge_period: 4096,
            same_value_shift: 0,
            cost_per_probe: 4,
            cost_base: 56,
        }
    }

    /// Fig. 7's enhanced comparison: values equal when their top bits
    /// (above bit 4) agree.
    pub const fn enhanced() -> Self {
        LfuConfig {
            same_value_shift: 4,
            ..Self::standard()
        }
    }
}

impl Default for LfuConfig {
    fn default() -> Self {
        Self::standard()
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    /// Canonical key (`value >> same_value_shift`).
    key: i64,
    /// First concrete value seen for this key (what gets reported).
    repr: i64,
    count: u64,
}

/// Observability counters of one [`Lfu`] instance (never affect the
/// profile itself).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LfuStats {
    /// Insertions that found their key already in the temp buffer.
    pub hits: u64,
    /// Insertions that displaced the least-frequently-used temp entry.
    pub evictions: u64,
    /// Temp-into-steady merges performed.
    pub merges: u64,
}

impl LfuStats {
    /// Saturating field-wise accumulation.
    pub fn absorb(&mut self, other: LfuStats) {
        self.hits = self.hits.saturating_add(other.hits);
        self.evictions = self.evictions.saturating_add(other.evictions);
        self.merges = self.merges.saturating_add(other.merges);
    }
}

/// One LFU value profiler instance (one per profiled load).
#[derive(Clone, Debug)]
pub struct Lfu {
    config: LfuConfig,
    temp: Vec<Entry>,
    steady: Vec<Entry>,
    since_merge: u64,
    total: u64,
    stats: LfuStats,
}

impl Lfu {
    /// Creates an empty profiler.
    pub fn new(config: LfuConfig) -> Self {
        Lfu {
            config,
            temp: Vec::with_capacity(config.temp_entries),
            steady: Vec::with_capacity(config.final_entries),
            since_merge: 0,
            total: 0,
            stats: LfuStats::default(),
        }
    }

    fn key_of(&self, value: i64) -> i64 {
        value >> self.config.same_value_shift
    }

    /// Inserts one value; returns the cycle cost of the operation.
    pub fn insert(&mut self, value: i64) -> u64 {
        let key = self.key_of(value);
        self.total = self.total.saturating_add(1);
        self.since_merge += 1;
        let mut cost = self.config.cost_base;

        let mut found = false;
        for (probes, e) in self.temp.iter_mut().enumerate() {
            if e.key == key {
                e.count = e.count.saturating_add(1);
                cost += (probes as u64 + 1) * self.config.cost_per_probe;
                self.stats.hits = self.stats.hits.saturating_add(1);
                found = true;
                break;
            }
        }
        if !found {
            cost += self.temp.len() as u64 * self.config.cost_per_probe;
            if self.temp.len() < self.config.temp_entries {
                self.temp.push(Entry {
                    key,
                    repr: value,
                    count: 1,
                });
            } else if let Some(victim) = self.temp.iter_mut().min_by_key(|e| e.count) {
                // replace the least frequently used temp entry (a
                // zero-entry temp buffer keeps nothing)
                *victim = Entry {
                    key,
                    repr: value,
                    count: 1,
                };
                self.stats.evictions = self.stats.evictions.saturating_add(1);
            }
        }

        if self.since_merge >= self.config.merge_period {
            self.merge();
            cost += 2
                * (self.config.temp_entries + self.config.final_entries) as u64
                * self.config.cost_per_probe;
        }
        cost
    }

    /// Merges temp counts into the steady buffer and clears temp.
    fn merge(&mut self) {
        self.since_merge = 0;
        self.stats.merges = self.stats.merges.saturating_add(1);
        for t in self.temp.drain(..) {
            if let Some(s) = self.steady.iter_mut().find(|s| s.key == t.key) {
                s.count = s.count.saturating_add(t.count);
            } else {
                self.steady.push(t);
            }
        }
        self.steady.sort_by_key(|e| std::cmp::Reverse(e.count));
        self.steady.truncate(self.config.final_entries);
    }

    /// Top values and their frequencies, highest first. Forces a merge of
    /// pending temp counts.
    pub fn top_values(&mut self) -> Vec<(i64, u64)> {
        self.merge();
        self.steady.iter().map(|e| (e.repr, e.count)).collect()
    }

    /// Total values inserted.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Observability counters accumulated so far.
    pub fn stats(&self) -> LfuStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lfu() -> Lfu {
        Lfu::new(LfuConfig::standard())
    }

    #[test]
    fn single_value_dominates() {
        let mut l = lfu();
        for _ in 0..100 {
            l.insert(64);
        }
        let top = l.top_values();
        assert_eq!(top[0], (64, 100));
        assert_eq!(l.total(), 100);
    }

    #[test]
    fn figure_4a_example() {
        // Stride sequence 2,2,2,2,2,100,100,100,100,1 -> top: 2 (5), 100 (4).
        let mut l = lfu();
        for s in [2, 2, 2, 2, 2, 100, 100, 100, 100, 1] {
            l.insert(s);
        }
        let top = l.top_values();
        assert_eq!(top[0], (2, 5));
        assert_eq!(top[1], (100, 4));
        assert_eq!(l.total(), 10);
    }

    #[test]
    fn eviction_keeps_frequent_values() {
        let mut l = Lfu::new(LfuConfig {
            temp_entries: 4,
            final_entries: 2,
            merge_period: 1000,
            ..LfuConfig::standard()
        });
        // Hot values interleaved with a stream of cold singletons.
        for i in 0..200 {
            l.insert(7);
            l.insert(13);
            l.insert(1000 + i); // never repeats
        }
        let top = l.top_values();
        assert_eq!(top.len(), 2);
        let values: Vec<i64> = top.iter().map(|&(v, _)| v).collect();
        assert!(values.contains(&7) && values.contains(&13));
        assert_eq!(top[0].1, 200);
    }

    #[test]
    fn merge_preserves_counts_across_periods() {
        let mut l = Lfu::new(LfuConfig {
            merge_period: 10,
            ..LfuConfig::standard()
        });
        for _ in 0..35 {
            l.insert(42);
        }
        assert_eq!(l.top_values()[0], (42, 35));
    }

    #[test]
    fn same_value_shift_coalesces_nearby_strides() {
        let mut l = Lfu::new(LfuConfig::enhanced());
        // 64 and 72 share key 4 (>>4); 128 does not.
        for _ in 0..10 {
            l.insert(64);
        }
        for _ in 0..5 {
            l.insert(72);
        }
        for _ in 0..3 {
            l.insert(128);
        }
        let top = l.top_values();
        assert_eq!(top[0], (64, 15)); // repr is the first value seen
        assert_eq!(top[1], (128, 3));
    }

    #[test]
    fn exact_comparison_keeps_nearby_strides_distinct() {
        let mut l = lfu();
        for _ in 0..10 {
            l.insert(64);
        }
        for _ in 0..5 {
            l.insert(72);
        }
        let top = l.top_values();
        assert_eq!(top.len(), 2);
    }

    #[test]
    fn insertion_cost_grows_with_distinct_values() {
        let mut l = lfu();
        let c_first = l.insert(1);
        for v in 2..=16 {
            l.insert(v);
        }
        // Re-inserting value 16 probes deep into the temp buffer.
        let c_deep = l.insert(16);
        assert!(c_deep > c_first);
    }

    #[test]
    fn negative_strides_are_tracked() {
        let mut l = lfu();
        for _ in 0..8 {
            l.insert(-64);
        }
        assert_eq!(l.top_values()[0], (-64, 8));
    }

    #[test]
    fn top_values_empty_for_fresh_profiler() {
        let mut l = lfu();
        assert!(l.top_values().is_empty());
        assert_eq!(l.total(), 0);
    }
}

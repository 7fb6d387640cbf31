//! Set-associative cache with LRU replacement.

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheGeometry {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_size: u64,
}

impl CacheGeometry {
    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly or sizes are not
    /// powers of two.
    pub fn num_sets(&self) -> u64 {
        assert!(self.line_size.is_power_of_two(), "line size must be 2^k");
        let lines = self.size_bytes / self.line_size;
        assert_eq!(
            lines % self.ways as u64,
            0,
            "capacity must divide evenly into ways"
        );
        let sets = lines / self.ways as u64;
        assert!(sets.is_power_of_two(), "set count must be 2^k");
        sets
    }
}

#[derive(Clone, Copy, Debug)]
struct Way {
    tag: u64,
    valid: bool,
    /// LRU stamp: larger = more recently used.
    stamp: u64,
}

/// One set-associative, LRU cache level.
///
/// The cache is a timing structure only — it tracks presence of line
/// addresses, not data (the VM's [`stride_vm::Memory`] holds the data).
#[derive(Clone, Debug)]
pub struct Cache {
    geometry: CacheGeometry,
    set_mask: u64,
    line_shift: u32,
    ways: Vec<Way>,
    /// Per-set most-recently-used way offset. A lookup hint only: the
    /// stamps stay authoritative for LRU eviction, so hit/miss results and
    /// eviction order are identical to a plain linear scan.
    mru: Vec<u32>,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Hits served by the MRU fast path without scanning the set
    /// (observability only — never affects hit/miss results).
    way_hint_hits: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is invalid (see
    /// [`CacheGeometry::num_sets`]).
    pub fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.num_sets();
        Cache {
            geometry,
            set_mask: sets - 1,
            line_shift: geometry.line_size.trailing_zeros(),
            ways: vec![
                Way {
                    tag: 0,
                    valid: false,
                    stamp: 0
                };
                (sets * geometry.ways as u64) as usize
            ],
            mru: vec![0; sets as usize],
            tick: 0,
            hits: 0,
            misses: 0,
            way_hint_hits: 0,
        }
    }

    /// The geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    fn set_range(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let ways = self.geometry.ways as usize;
        (set * ways..(set + 1) * ways, line)
    }

    /// Looks `addr` up, updating LRU and hit/miss statistics. Returns true
    /// on hit. Does not allocate on miss (use [`Cache::install`]).
    pub fn access(&mut self, addr: u64) -> bool {
        self.tick += 1;
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let ways = self.geometry.ways as usize;
        let base = set * ways;
        // Fast path: most accesses re-touch the way touched last.
        let m = self.mru[set] as usize;
        let w = &mut self.ways[base + m];
        if w.valid && w.tag == line {
            w.stamp = self.tick;
            self.hits += 1;
            self.way_hint_hits += 1;
            return true;
        }
        for i in 0..ways {
            let w = &mut self.ways[base + i];
            if w.valid && w.tag == line {
                w.stamp = self.tick;
                self.mru[set] = i as u32;
                self.hits += 1;
                return true;
            }
        }
        self.misses += 1;
        false
    }

    /// Applies `n` guaranteed hits of `addr`'s line in one batch. Exactly
    /// equivalent to calling [`Cache::access`] `n` times *when the line is
    /// resident in the MRU way of its set* (each such access would take the
    /// MRU fast path: tick +1, stamp refresh, hit +1, way-hint hit +1). If
    /// the precondition does not hold — the caller's tracking was wrong —
    /// the accesses are replayed individually so statistics stay exact.
    pub fn note_repeat_hits(&mut self, addr: u64, n: u64) {
        if n == 0 {
            return;
        }
        let line = addr >> self.line_shift;
        let set = (line & self.set_mask) as usize;
        let ways = self.geometry.ways as usize;
        let m = self.mru[set] as usize;
        let w = &mut self.ways[set * ways + m];
        if w.valid && w.tag == line {
            self.tick += n;
            w.stamp = self.tick;
            self.hits += n;
            self.way_hint_hits += n;
        } else {
            debug_assert!(false, "note_repeat_hits: line not in the MRU way");
            for _ in 0..n {
                self.access(addr);
            }
        }
    }

    /// Checks for presence without touching LRU or statistics.
    pub fn contains(&self, addr: u64) -> bool {
        let (range, line) = self.set_range(addr);
        self.ways[range].iter().any(|w| w.valid && w.tag == line)
    }

    /// Installs the line of `addr`, evicting the LRU way if needed.
    /// Returns the evicted line's base address, if any.
    pub fn install(&mut self, addr: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let line_shift = self.line_shift;
        let line = addr >> line_shift;
        let set_idx = (line & self.set_mask) as usize;
        let ways = self.geometry.ways as usize;
        let base = set_idx * ways;
        // Fast path: re-install of the way touched last (refresh).
        let m = self.mru[set_idx] as usize;
        let w = &mut self.ways[base + m];
        if w.valid && w.tag == line {
            w.stamp = tick;
            return None;
        }
        let set = &mut self.ways[base..base + ways];
        // already present: refresh
        if let Some((i, w)) = set
            .iter_mut()
            .enumerate()
            .find(|(_, w)| w.valid && w.tag == line)
        {
            w.stamp = tick;
            self.mru[set_idx] = i as u32;
            return None;
        }
        // empty way
        if let Some((i, w)) = set.iter_mut().enumerate().find(|(_, w)| !w.valid) {
            *w = Way {
                tag: line,
                valid: true,
                stamp: tick,
            };
            self.mru[set_idx] = i as u32;
            return None;
        }
        // evict LRU (a set with no ways holds nothing to evict)
        let (i, victim) = set.iter_mut().enumerate().min_by_key(|(_, w)| w.stamp)?;
        let evicted = victim.tag << line_shift;
        *victim = Way {
            tag: line,
            valid: true,
            stamp: tick,
        };
        self.mru[set_idx] = i as u32;
        Some(evicted)
    }

    /// Invalidates the line of `addr` if present.
    pub fn invalidate(&mut self, addr: u64) {
        let (range, line) = self.set_range(addr);
        for w in &mut self.ways[range] {
            if w.valid && w.tag == line {
                w.valid = false;
            }
        }
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Hits the MRU way hint served without a set scan (a subset of the
    /// hit count; Fig.-20-style overhead accounting for the simulator
    /// itself).
    pub fn way_hint_hits(&self) -> u64 {
        self.way_hint_hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512B
        Cache::new(CacheGeometry {
            size_bytes: 512,
            ways: 2,
            line_size: 64,
        })
    }

    #[test]
    fn geometry_set_count() {
        let g = CacheGeometry {
            size_bytes: 16 * 1024,
            ways: 4,
            line_size: 64,
        };
        assert_eq!(g.num_sets(), 64);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn geometry_rejects_non_power_of_two_sets() {
        CacheGeometry {
            size_bytes: 192,
            ways: 1,
            line_size: 64,
        }
        .num_sets();
    }

    #[test]
    fn miss_then_hit_after_install() {
        let mut c = small();
        assert!(!c.access(0x1000));
        c.install(0x1000);
        assert!(c.access(0x1000));
        assert!(c.access(0x1038)); // same 64B line
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // set index = (addr/64) & 3; choose three lines mapping to set 0
        let a = 0;
        let b = 64 * 4;
        let d = 2 * 64 * 4;
        c.install(a);
        c.install(b);
        c.access(a); // a most recent
        let evicted = c.install(d); // evicts b
        assert_eq!(evicted, Some(b));
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn install_existing_line_refreshes_without_evicting() {
        let mut c = small();
        let a = 0;
        let b = 64 * 4;
        c.install(a);
        c.install(b);
        assert_eq!(c.install(a), None); // refresh, nothing evicted
        let d = 2 * 64 * 4;
        assert_eq!(c.install(d), Some(b)); // b was LRU
    }

    #[test]
    fn batched_repeat_hits_match_individual_accesses() {
        let mut a = small();
        let mut b = small();
        for c in [&mut a, &mut b] {
            c.install(0x1000);
            c.access(0x1000);
        }
        for _ in 0..7 {
            a.access(0x1000);
        }
        b.note_repeat_hits(0x1000, 7);
        assert_eq!(a.stats(), b.stats());
        assert_eq!(a.way_hint_hits(), b.way_hint_hits());
        // Full state (ticks, stamps, MRU hints) must be identical too.
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small();
        c.install(0x40);
        assert!(c.contains(0x40));
        c.invalidate(0x40);
        assert!(!c.contains(0x40));
    }

    #[test]
    fn contains_does_not_affect_stats() {
        let mut c = small();
        c.install(0);
        let before = c.stats();
        let _ = c.contains(0);
        assert_eq!(c.stats(), before);
    }

    /// Regression for the MRU fast path: the exact sequence of evictions
    /// must match a plain linear-scan LRU model over a mixed access /
    /// install / invalidate workload.
    #[test]
    fn eviction_order_matches_reference_lru() {
        // Reference model: per-set list of (tag, last-use tick).
        struct RefLru {
            sets: Vec<Vec<(u64, u64)>>,
            ways: usize,
            tick: u64,
        }
        impl RefLru {
            fn access(&mut self, set: usize, tag: u64) -> bool {
                self.tick += 1;
                if let Some(e) = self.sets[set].iter_mut().find(|e| e.0 == tag) {
                    e.1 = self.tick;
                    return true;
                }
                false
            }
            fn install(&mut self, set: usize, tag: u64) -> Option<u64> {
                self.tick += 1;
                if let Some(e) = self.sets[set].iter_mut().find(|e| e.0 == tag) {
                    e.1 = self.tick;
                    return None;
                }
                if self.sets[set].len() < self.ways {
                    self.sets[set].push((tag, self.tick));
                    return None;
                }
                let i = (0..self.sets[set].len())
                    .min_by_key(|&i| self.sets[set][i].1)
                    .unwrap();
                let evicted = self.sets[set][i].0;
                self.sets[set][i] = (tag, self.tick);
                Some(evicted)
            }
        }

        let mut c = Cache::new(CacheGeometry {
            size_bytes: 1024,
            ways: 4,
            line_size: 64,
        }); // 4 sets x 4 ways
        let mut r = RefLru {
            sets: vec![Vec::new(); 4],
            ways: 4,
            tick: 0,
        };
        // Deterministic pseudo-random mixed workload with heavy re-touch
        // (exercising the MRU hint) and enough distinct lines to evict.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut last = 0u64;
        for step in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let addr = if step % 3 == 0 { last } else { (x % 48) * 64 };
            last = addr;
            let line = addr / 64;
            let set = (line % 4) as usize;
            match step % 5 {
                0..=2 => {
                    assert_eq!(c.access(addr), r.access(set, line), "step {step}");
                }
                3 => {
                    let ev = c.install(addr);
                    let rv = r.install(set, line);
                    assert_eq!(ev, rv.map(|t| t * 64), "step {step}: eviction order");
                }
                _ => {
                    c.invalidate(addr);
                    r.sets[set].retain(|e| e.0 != line);
                    // keep model ticks aligned (invalidate does not tick)
                }
            }
        }
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = small();
        // fill all 8 ways with distinct sets and ways
        for i in 0..8u64 {
            c.install(i * 64);
        }
        for i in 0..8u64 {
            assert!(c.contains(i * 64), "line {i} evicted unexpectedly");
        }
    }
}

//! The stride profile fed back to the compiler: per profiled load, the top
//! strides and the counters the Fig. 5 classification reads.

use crate::stride_prof::{StrideProfConfig, StrideProfData};
use stride_ir::{FuncId, InstrId};

/// Final stride profile of one load site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadStrideProfile {
    /// Top strides and frequencies, highest first. When fine sampling with
    /// factor F collected the data, the stride values have already been
    /// divided back by F (Fig. 8: `S2 = S1 / F`).
    pub top: Vec<(i64, u64)>,
    /// Number of non-zero strides profiled (Fig. 5's `total_freq`).
    pub total_freq: u64,
    /// References with unchanged (or `is_same_value`-equal) address.
    pub num_zero_stride: u64,
    /// Zero stride differences (the phased signal).
    pub num_zero_diff: u64,
    /// Stride differences observed.
    pub total_diffs: u64,
}

impl LoadStrideProfile {
    /// Extracts the final profile from per-load runtime state, undoing the
    /// fine-sampling stride scaling.
    pub fn from_data(data: &mut StrideProfData, config: &StrideProfConfig) -> Self {
        let f = config.fine_sample.unwrap_or(1) as i64;
        let top = data
            .top_strides()
            .into_iter()
            .map(|(s, c)| (s / f, c))
            .collect();
        LoadStrideProfile {
            top,
            total_freq: data.total_freq(),
            num_zero_stride: data.num_zero_stride,
            num_zero_diff: data.num_zero_diff,
            total_diffs: data.total_diffs,
        }
    }

    /// The dominant stride and its frequency, if any stride was seen.
    pub fn top1(&self) -> Option<(i64, u64)> {
        self.top.first().copied()
    }

    /// Sum of the frequencies of the top four strides (Fig. 5's
    /// `top4freq`).
    pub fn top4_freq(&self) -> u64 {
        self.top.iter().take(4).map(|&(_, c)| c).sum()
    }

    /// `top1freq / total_freq` (0 when nothing was profiled).
    pub fn top1_ratio(&self) -> f64 {
        if self.total_freq == 0 {
            return 0.0;
        }
        self.top1().map_or(0.0, |(_, c)| c as f64) / self.total_freq as f64
    }

    /// `top4freq / total_freq`.
    pub fn top4_ratio(&self) -> f64 {
        if self.total_freq == 0 {
            return 0.0;
        }
        self.top4_freq() as f64 / self.total_freq as f64
    }

    /// `num_zero_diff / total_freq` (Fig. 5's phased-ness measure).
    pub fn zero_diff_ratio(&self) -> f64 {
        if self.total_freq == 0 {
            return 0.0;
        }
        self.num_zero_diff as f64 / self.total_freq as f64
    }
}

/// Stride profiles for every profiled load of a module.
///
/// Stored as dense per-function tables indexed by the raw `FuncId` /
/// `InstrId` values: lookups on the feedback path are two bounds-checked
/// array reads instead of a hash, and iteration is in deterministic
/// (function, site) order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrideProfile {
    funcs: Vec<Vec<Option<LoadStrideProfile>>>,
    len: usize,
}

impl StrideProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the profile of one load site (replacing any previous one).
    pub fn insert(&mut self, func: FuncId, site: InstrId, profile: LoadStrideProfile) {
        let f = func.index();
        if f >= self.funcs.len() {
            self.funcs.resize_with(f + 1, Vec::new);
        }
        let table = &mut self.funcs[f];
        let i = site.index();
        if i >= table.len() {
            table.resize_with(i + 1, || None);
        }
        if table[i].is_none() {
            self.len += 1;
        }
        table[i] = Some(profile);
    }

    /// How many dense slots [`StrideProfile::insert`] at `(func, site)`
    /// would add: new function tables plus new site slots.
    pub(crate) fn slots_to_insert(&self, func: FuncId, site: InstrId) -> usize {
        let f = func.index();
        let have = self.funcs.get(f).map_or(0, Vec::len);
        (f + 1).saturating_sub(self.funcs.len()) + (site.index() + 1).saturating_sub(have)
    }

    /// The profile of one load site.
    pub fn get(&self, func: FuncId, site: InstrId) -> Option<&LoadStrideProfile> {
        self.funcs.get(func.index())?.get(site.index())?.as_ref()
    }

    /// Number of profiled sites.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no site was profiled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over all `(func, site, profile)` entries in (function,
    /// site) order.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, InstrId, &LoadStrideProfile)> {
        self.funcs.iter().enumerate().flat_map(|(f, table)| {
            table.iter().enumerate().filter_map(move |(i, p)| {
                p.as_ref()
                    .map(|p| (FuncId::new(f as u32), InstrId::new(i as u32), p))
            })
        })
    }

    /// Merges another profile into this one (multi-run PGO: profiles from
    /// several training runs are combined before feedback). Sites present
    /// in both have their counters summed and their top-stride lists
    /// joined by stride value (counts sum saturating) and re-sorted into
    /// the canonical `(count desc, stride asc)` order.
    ///
    /// The join keeps every stride of both lists — no truncation — so the
    /// operation is commutative and associative *byte-for-byte*, not just
    /// up to tie order: any delivery order of the same set of profiles
    /// converges to the identical table. Replication (profdb WAL deltas)
    /// leans on exactly this property; weaken it and replicas diverge.
    pub fn merge(&mut self, other: &StrideProfile) {
        // Canonicalize the accumulated side first: single-run tables keep
        // their LFU emission order until their first merge, and a site the
        // incoming profile does not mention would otherwise keep that
        // order forever, breaking byte commutativity.
        self.for_each_mut(|_, _, p| canonicalize_top(&mut p.top));
        for (func, site, theirs) in other.iter() {
            let Some(ours) = self.get_mut(func, site) else {
                let mut copied = theirs.clone();
                canonicalize_top(&mut copied.top);
                self.insert(func, site, copied);
                continue;
            };
            for &(stride, count) in &theirs.top {
                match ours.top.iter_mut().find(|(s, _)| *s == stride) {
                    Some((_, c)) => *c = c.saturating_add(count),
                    None => ours.top.push((stride, count)),
                }
            }
            canonicalize_top(&mut ours.top);
            ours.total_freq = ours.total_freq.saturating_add(theirs.total_freq);
            ours.num_zero_stride = ours.num_zero_stride.saturating_add(theirs.num_zero_stride);
            ours.num_zero_diff = ours.num_zero_diff.saturating_add(theirs.num_zero_diff);
            ours.total_diffs = ours.total_diffs.saturating_add(theirs.total_diffs);
        }
    }

    /// Keeps only the profiles `keep` accepts (fault injection and
    /// profile filtering: dropping a site can only move its load toward
    /// "not prefetched").
    pub fn retain(&mut self, mut keep: impl FnMut(FuncId, InstrId, &LoadStrideProfile) -> bool) {
        for (f, table) in self.funcs.iter_mut().enumerate() {
            for (i, slot) in table.iter_mut().enumerate() {
                let drop_it = match slot {
                    Some(p) => !keep(FuncId::new(f as u32), InstrId::new(i as u32), p),
                    None => false,
                };
                if drop_it {
                    *slot = None;
                    self.len -= 1;
                }
            }
        }
    }

    /// Mutates every profile in place, in deterministic (function, site)
    /// order (fault injection: truncating top tables, dropping counters).
    pub fn for_each_mut(&mut self, mut f: impl FnMut(FuncId, InstrId, &mut LoadStrideProfile)) {
        for (fi, table) in self.funcs.iter_mut().enumerate() {
            for (i, slot) in table.iter_mut().enumerate() {
                if let Some(p) = slot {
                    f(FuncId::new(fi as u32), InstrId::new(i as u32), p);
                }
            }
        }
    }

    /// Mutable access to one site's profile, if present.
    fn get_mut(&mut self, func: FuncId, site: InstrId) -> Option<&mut LoadStrideProfile> {
        self.funcs
            .get_mut(func.index())?
            .get_mut(site.index())?
            .as_mut()
    }
}

/// Sorts a top-stride table into the canonical total order: count
/// descending, then stride ascending. The order is total (no two entries
/// share a stride after a join), so the sorted table is independent of
/// the order entries were inserted or merged in.
fn canonicalize_top(top: &mut [(i64, u64)]) {
    top.sort_by(|&(sa, ca), &(sb, cb)| cb.cmp(&ca).then(sa.cmp(&sb)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stride_prof::StrideProfEngine;

    fn profile_of(addresses: &[u64], config: &StrideProfConfig) -> LoadStrideProfile {
        let mut engine = StrideProfEngine::new();
        let mut data = StrideProfData::new(config);
        for &a in addresses {
            engine.stride_prof(config, &mut data, a);
        }
        LoadStrideProfile::from_data(&mut data, config)
    }

    #[test]
    fn ratios_for_constant_stride() {
        let cfg = StrideProfConfig::plain();
        let addrs: Vec<u64> = (0..101).map(|i| i * 64).collect();
        let p = profile_of(&addrs, &cfg);
        assert_eq!(p.top1(), Some((64, 100)));
        assert!((p.top1_ratio() - 1.0).abs() < 1e-9);
        assert!((p.top4_ratio() - 1.0).abs() < 1e-9);
        assert!(p.zero_diff_ratio() > 0.95);
    }

    #[test]
    fn fine_sampling_scaling_is_undone() {
        let cfg = StrideProfConfig {
            fine_sample: Some(4),
            ..StrideProfConfig::plain()
        };
        let addrs: Vec<u64> = (0..401).map(|i| i * 16).collect();
        let p = profile_of(&addrs, &cfg);
        assert_eq!(p.top1().map(|(s, _)| s), Some(16));
    }

    #[test]
    fn empty_profile_has_zero_ratios() {
        let cfg = StrideProfConfig::plain();
        let p = profile_of(&[], &cfg);
        assert_eq!(p.top1(), None);
        assert_eq!(p.top1_ratio(), 0.0);
        assert_eq!(p.top4_ratio(), 0.0);
        assert_eq!(p.zero_diff_ratio(), 0.0);
    }

    #[test]
    fn top4_sums_at_most_four() {
        let cfg = StrideProfConfig::plain();
        // five distinct strides, 10 of each
        let mut addrs = vec![0u64];
        for s in [8i64, 16, 24, 32, 40] {
            for _ in 0..10 {
                let l = *addrs.last().unwrap();
                addrs.push(l + s as u64);
                let l = *addrs.last().unwrap();
                addrs.push(l + 1000); // separator stride, seen 5x total
            }
        }
        let p = profile_of(&addrs, &cfg);
        assert!(p.top4_freq() <= p.total_freq);
        assert!(p.top.len() >= 4);
    }

    #[test]
    fn merge_sums_counters_and_combines_tops() {
        let cfg = StrideProfConfig::plain();
        let a = profile_of(&(0..50).map(|i| i * 64).collect::<Vec<_>>(), &cfg);
        let b = profile_of(&(0..30).map(|i| i * 64).collect::<Vec<_>>(), &cfg);
        let mut pa = StrideProfile::new();
        pa.insert(FuncId::new(0), InstrId::new(1), a.clone());
        let mut pb = StrideProfile::new();
        pb.insert(FuncId::new(0), InstrId::new(1), b.clone());
        pb.insert(FuncId::new(0), InstrId::new(2), b.clone());
        pa.merge(&pb);
        assert_eq!(pa.len(), 2);
        let merged = pa.get(FuncId::new(0), InstrId::new(1)).unwrap();
        assert_eq!(merged.total_freq, a.total_freq + b.total_freq);
        assert_eq!(
            merged.top1(),
            Some((64, a.top1().unwrap().1 + b.top1().unwrap().1))
        );
        // disjoint site copied verbatim
        assert_eq!(pa.get(FuncId::new(0), InstrId::new(2)), Some(&b));
    }

    #[test]
    fn merge_combines_distinct_strides() {
        let cfg = StrideProfConfig::plain();
        let a = profile_of(&(0..40).map(|i| i * 64).collect::<Vec<_>>(), &cfg);
        let b = profile_of(&(0..10).map(|i| i * 8).collect::<Vec<_>>(), &cfg);
        let mut pa = StrideProfile::new();
        pa.insert(FuncId::new(0), InstrId::new(1), a);
        let mut pb = StrideProfile::new();
        pb.insert(FuncId::new(0), InstrId::new(1), b);
        pa.merge(&pb);
        let merged = pa.get(FuncId::new(0), InstrId::new(1)).unwrap();
        // dominant stride stays 64; the 8-byte stride appears behind it
        assert_eq!(merged.top1().unwrap().0, 64);
        assert!(merged.top.iter().any(|&(s, _)| s == 8));
    }

    #[test]
    fn merge_is_byte_commutative_and_associative_even_with_tied_counts() {
        // Three single-site profiles whose top tables tie on count: the
        // canonical (count desc, stride asc) join must make every merge
        // order produce the *identical* table, not just an equivalent set.
        let mk = |top: Vec<(i64, u64)>| {
            let mut sp = StrideProfile::new();
            sp.insert(
                FuncId::new(0),
                InstrId::new(1),
                LoadStrideProfile {
                    top,
                    total_freq: 10,
                    num_zero_stride: 1,
                    num_zero_diff: 2,
                    total_diffs: 9,
                },
            );
            sp
        };
        let a = mk(vec![(64, 5), (8, 5)]);
        let b = mk(vec![(16, 5), (24, 3)]);
        let c = mk(vec![(-32, 5), (8, 2)]);

        let mut ab_c = a.clone();
        ab_c.merge(&b);
        ab_c.merge(&c);
        let mut c_ba = c.clone();
        let mut ba = b.clone();
        ba.merge(&a);
        c_ba.merge(&ba);
        assert_eq!(ab_c, c_ba, "merge must be order-independent");
        let merged = ab_c.get(FuncId::new(0), InstrId::new(1)).unwrap();
        assert_eq!(
            merged.top,
            vec![(8, 7), (-32, 5), (16, 5), (64, 5), (24, 3)],
            "ties break by ascending stride, nothing truncated"
        );
    }

    #[test]
    fn stride_profile_map_roundtrip() {
        let cfg = StrideProfConfig::plain();
        let p = profile_of(&[0, 64, 128], &cfg);
        let mut sp = StrideProfile::new();
        assert!(sp.is_empty());
        sp.insert(FuncId::new(0), InstrId::new(7), p.clone());
        assert_eq!(sp.len(), 1);
        assert_eq!(sp.get(FuncId::new(0), InstrId::new(7)), Some(&p));
        assert_eq!(sp.get(FuncId::new(0), InstrId::new(8)), None);
        assert_eq!(sp.iter().count(), 1);
    }
}

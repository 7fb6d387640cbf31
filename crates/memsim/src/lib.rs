// Library code must degrade gracefully instead of panicking; unwrap and
// expect are allowed only under cfg(test).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! Trace-driven memory-hierarchy simulator for the stride-prefetch
//! reproduction: the 733 MHz Itanium machine of the paper's §4 (16 KB
//! 4-way L1D, 96 KB 6-way L2, 2 MB 4-way L3, DTLB), with non-blocking
//! prefetch fills and an MSHR-style in-flight limit.
//!
//! [`CacheHierarchy`] implements [`stride_vm::MemoryTiming`], so a VM run
//! over it produces the cycle counts from which speedups (Fig. 16) and
//! profiling overheads (Fig. 20) are computed.
//!
//! # Example
//!
//! ```
//! use stride_memsim::{CacheHierarchy, HierarchyConfig};
//! use stride_vm::{AccessKind, MemoryTiming};
//!
//! let mut h = CacheHierarchy::new(HierarchyConfig::itanium733());
//! let cold = h.access(0x10_000, 0, AccessKind::Load);
//! let warm = h.access(0x10_000, 1_000, AccessKind::Load);
//! assert!(cold > warm);
//! ```

pub mod cache;
pub mod hierarchy;

pub use cache::{Cache, CacheGeometry};
pub use hierarchy::{CacheHierarchy, HierarchyConfig, HierarchyStats};
